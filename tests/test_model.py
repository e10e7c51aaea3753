"""Core model invariants: validation, transitions, mass-function checks,
and the behaviour every record shares."""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings

from conftest import case_st, mass_function_st
from intent_cbr import cbr
from intent_cbr import fixtures as demo
from intent_cbr.errors import IllegalTransition, ValidationFailure
from intent_cbr.ingest import parse_evidence_file, parse_network_file
from intent_cbr.model import (
    Attack,
    BeliefReport,
    Case,
    CaseStatus,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Hypothesis,
    Intention,
    MassFunction,
    SimilarityResult,
    is_safe_id,
    now_utc,
    replace,
    transition,
    validate_attack,
    validate_case,
    validate_network,
)
from intent_cbr.serialize import (
    attack_from_dict,
    attack_to_dict,
    network_from_dict,
    network_to_dict,
)


def make_case(weights, status=CaseStatus.RETAINED, confidence=0.9):
    evidence = tuple(
        Evidence(id=ev_id, kind=EvidenceKind.TOOL_USAGE, confidence=confidence)
        for ev_id in weights
    )
    return Case(
        case_id="c1",
        attack=Attack(id="a1", name="a1", detection_state=0.5, evidence=evidence),
        intention=Intention(id="i1", label="goal"),
        evidence_weights=dict(weights),
        status=status,
    )


class TestValidateCase:
    def test_normalized_retained_case_is_clean(self):
        assert validate_case(make_case({"ev01": 0.5, "ev02": 0.5})) == []

    def test_weight_sum_violation(self):
        violations = validate_case(make_case({"ev01": 0.7, "ev02": 0.7}))
        assert any("sum" in v and "evidence_weights" in v for v in violations)

    def test_confidence_range_violation(self):
        case = make_case({"ev01": 1.0}, confidence=1.3)
        violations = validate_case(case)
        assert any("confidence" in v for v in violations)

    def test_weight_for_unknown_evidence(self):
        case = make_case({"ev01": 1.0})
        case = Case(
            case_id=case.case_id,
            attack=case.attack,
            intention=case.intention,
            evidence_weights={"ev01": 1.0, "ghost": 0.0},
            status=case.status,
        )
        assert any("no such evidence" in v for v in validate_case(case))

    def test_negative_weight(self):
        case = make_case({"ev01": 1.5, "ev02": -0.5})
        assert any("negative" in v for v in validate_case(case))

    def test_weights_whose_sum_leaves_float_range_are_a_violation(self):
        # fsum raises OverflowError on these; the sum counts as NaN instead.
        violations = validate_case(make_case({"ev01": 1e308, "ev02": 1e308}))
        assert violations == ["evidence_weights: sum nan != 1 for status 'retained'"]

    def test_in_flight_case_may_be_unnormalized(self):
        case = make_case({"ev01": 0.7, "ev02": 0.7}, status=CaseStatus.INCIPIENT)
        assert validate_case(case) == []

    def test_confirmed_case_requires_intention(self):
        case = make_case({"ev01": 1.0})
        case = Case(
            case_id=case.case_id,
            attack=case.attack,
            intention=None,
            evidence_weights=case.evidence_weights,
            status=CaseStatus.RETAINED,
        )
        assert any("intention" in v for v in validate_case(case))

    def test_duplicate_evidence_ids_flagged(self):
        evidence = (
            Evidence(id="ev01", kind=EvidenceKind.TOOL_USAGE),
            Evidence(id="ev01", kind=EvidenceKind.COMMAND_USAGE),
        )
        case = Case(
            case_id="c1",
            attack=Attack(id="a1", name="a1", detection_state=0.5, evidence=evidence),
            intention=Intention(id="i1", label="goal"),
            evidence_weights={"ev01": 1.0},
            status=CaseStatus.RETAINED,
        )
        assert any("duplicate" in v for v in validate_case(case))

    @given(case_st("c1"))
    @settings(max_examples=100)
    def test_total_never_raises(self, case):
        assert isinstance(validate_case(case), list)


class TestTransition:
    @pytest.mark.parametrize(
        "src,dst",
        [
            (CaseStatus.PROPOSED, CaseStatus.INCIPIENT),
            (CaseStatus.INCIPIENT, CaseStatus.REVISED_ACCEPTED),
            (CaseStatus.INCIPIENT, CaseStatus.REVISED_REJECTED),
            (CaseStatus.REVISED_ACCEPTED, CaseStatus.RETAINED),
        ],
    )
    def test_legal_edges(self, src, dst):
        case = make_case({"ev01": 1.0}, status=src)
        moved = transition(case, dst)
        assert moved.status == dst
        assert case.status == src  # original untouched

    @pytest.mark.parametrize(
        "src,dst",
        [
            (CaseStatus.REVISED_REJECTED, CaseStatus.RETAINED),
            (CaseStatus.PRECEDENT, CaseStatus.INCIPIENT),
            (CaseStatus.RETAINED, CaseStatus.PROPOSED),
            (CaseStatus.PROPOSED, CaseStatus.RETAINED),
            (CaseStatus.INCIPIENT, CaseStatus.PROPOSED),
        ],
    )
    def test_illegal_edges(self, src, dst):
        case = make_case({"ev01": 1.0}, status=src)
        with pytest.raises(IllegalTransition):
            transition(case, dst)


class TestMassFunction:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationFailure):
            MassFunction(frame=("i1", "i2"), masses={frozenset({"i1"}): 0.5})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationFailure):
            MassFunction(
                frame=("i1", "i2"),
                masses={frozenset({"i1"}): 1.5, frozenset({"i2"}): -0.5},
            )

    def test_nonzero_empty_set_rejected(self):
        with pytest.raises(ValidationFailure):
            MassFunction(
                frame=("i1",), masses={frozenset(): 0.5, frozenset({"i1"}): 0.5}
            )

    def test_subset_outside_frame_rejected(self):
        with pytest.raises(ValidationFailure):
            MassFunction(frame=("i1",), masses={frozenset({"i9"}): 1.0})

    @pytest.mark.parametrize(
        "masses, total",
        [
            # abs(nan - 1.0) > SUM_TOLERANCE is false, so a plain test passed it.
            ({frozenset({"i1"}): math.nan, frozenset({"i1", "i2"}): 0.5}, "nan"),
            ({frozenset({"i1"}): 1e308, frozenset({"i2"}): 1e308}, "nan"),
            ({frozenset({"i1"}): math.inf}, "inf"),
        ],
    )
    def test_masses_that_are_nan_or_sum_beyond_float_range_rejected(self, masses, total):
        with pytest.raises(ValidationFailure, match=f"masses sum to {total}, expected 1"):
            MassFunction(frame=("i1", "i2"), masses=masses)

    def test_zero_masses_dropped(self):
        m = MassFunction(
            frame=("i1", "i2"),
            masses={frozenset({"i1"}): 1.0, frozenset({"i2"}): 0.0},
        )
        assert frozenset({"i2"}) not in m.masses
        assert m.mass({"i2"}) == 0.0

    @pytest.mark.parametrize("frame", [(), ("i1", "i1")])
    def test_empty_or_repeated_frame_rejected(self, frame):
        with pytest.raises(ValidationFailure, match="non-empty set of unique ids"):
            MassFunction(frame=frame, masses={frozenset({"i1"}): 1.0})

    def test_zero_mass_on_the_empty_set_dropped(self):
        m = MassFunction(frame=("i1",), masses={frozenset(): 0.0, frozenset({"i1"}): 1.0})
        assert m.masses == {frozenset({"i1"}): 1.0}

    @given(mass_function_st())
    @settings(max_examples=150)
    def test_constructed_masses_always_normalized(self, m):
        assert abs(math.fsum(m.masses.values()) - 1.0) <= 1e-9
        assert m.mass(frozenset()) == 0.0
        assert all(v > 0 for v in m.masses.values())


class TestBeliefReport:
    def test_selected_must_be_argmax(self):
        mass = MassFunction(frame=("i1", "i2"), masses={frozenset({"i1"}): 1.0})
        with pytest.raises(ValidationFailure):
            BeliefReport(
                per_intention={"i1": (1.0, 1.0), "i2": (0.0, 0.0)},
                selected="i2",
                mass=mass,
            )

    def test_ties_break_to_smallest_id(self):
        mass = MassFunction(frame=("i1", "i2"), masses={frozenset({"i1", "i2"}): 1.0})
        report = BeliefReport(
            per_intention={"i2": (0.0, 1.0), "i1": (0.0, 1.0)},
            selected="i1",
            mass=mass,
        )
        assert report.selected == "i1"

    def test_belief_above_plausibility_rejected(self):
        mass = MassFunction(frame=("i1",), masses={frozenset({"i1"}): 1.0})
        with pytest.raises(ValidationFailure):
            BeliefReport(per_intention={"i1": (0.9, 0.5)}, selected="i1", mass=mass)


def test_now_utc_shape():
    stamp = now_utc()
    assert stamp.endswith("Z") and "T" in stamp and len(stamp) == 20


@pytest.mark.parametrize(
    "record_id,ok",
    [
        ("case-1", True), ("a.b_c-9", True), ("", False), ("../evil", False), (".hidden", False),
        # A write's temp name is the id plus 27 bytes, within the usual 255.
        pytest.param("a" * 228, True, id="228-characters"),
        pytest.param("a" * 229, False, id="229-characters"),
    ],
)
def test_is_safe_id(record_id, ok):
    assert is_safe_id(record_id) is ok


@pytest.mark.parametrize("record_id", ["case-1\n", "case-1\nx", "\ncase-1"])
def test_is_safe_id_rejects_line_breaks(record_id):
    assert not is_safe_id(record_id)


@pytest.mark.parametrize(
    "prior, message",
    [
        (float("nan"), "priors['int-recon']: nan is not finite"),
        (float("inf"), "priors['int-recon']: inf is not finite"),
        (-float("inf"), "priors['int-recon']: -inf is not finite"),
        (-0.5, "priors['int-recon']: -0.5 is negative"),
    ],
)
def test_validate_network_names_a_bad_prior(prior, message):
    network = demo.demo_network()
    network = replace(network, priors={**network.priors, "int-recon": prior})
    assert message in validate_network(network)


def test_validate_network_lists_a_none_prior_as_a_missing_one():
    network = demo.demo_network()
    missing = {iid: p for iid, p in network.priors.items() if iid != "int-recon"}
    expected = validate_network(replace(network, priors=missing))
    assert "priors: missing entry for intention 'int-recon'" in expected
    none = replace(network, priors={**network.priors, "int-recon": None})
    assert validate_network(none) == expected


def test_validate_network_priors_whose_sum_leaves_float_range():
    network = demo.demo_network()
    network = replace(network, priors={iid: 1e308 for iid in network.priors})
    assert validate_network(network) == ["priors: sum nan != 1"]


def test_every_builder_passes_exact_tuples(tmp_path):
    """Records take their fields as given, so each builder in the package
    hands them tuples, never lists."""
    keylogging = demo.keylogging_attack()
    attacks = [
        keylogging,
        demo.demo_attack(),
        *(case.attack for case in demo.precedent_cases()),
        attack_from_dict(attack_to_dict(keylogging)),
        parse_evidence_file(demo.write_keylogging_csv(tmp_path / "k.csv"), "csv", attack_id="k"),
        parse_evidence_file(demo.write_keylogging_json(tmp_path / "k.json"), "json"),
    ]
    networks = [
        demo.demo_network(),
        network_from_dict(network_to_dict(demo.demo_network())),
        parse_network_file(demo.write_demo_network(tmp_path / "n.json")),
    ]
    query = Case(
        case_id="q",
        attack=keylogging,
        intention=None,
        evidence_weights={},
        status=CaseStatus.PROPOSED,
    )
    repo = demo.install_demo_repository(tmp_path / "repo")
    rankings = [cbr.retrieve(query, repo, k=k) for k in (3, None)]
    results = [entry for ranking in rankings for entry in ranking.entries]
    results += [cbr.similarity(query, p) for p in demo.precedent_cases()]

    assert all(type(attack.evidence) is tuple for attack in attacks)
    for network in networks:
        assert type(network.intentions) is tuple
        assert type(network.evidence_ids) is tuple
    assert all(type(ranking.entries) is tuple for ranking in rankings)
    for result in results:
        assert type(result.alignment) is tuple
        assert all(type(entry) is tuple for entry in result.alignment)
    assert type(cbr.align_evidence(query, demo.precedent_cases()[0])) is tuple


def test_find_intention_of_an_unknown_id():
    network = demo.demo_network()
    with pytest.raises(ValidationFailure, match="'ghost' not in network"):
        network.find_intention("ghost")


def test_validate_attack_names_an_empty_evidence_id_and_an_unknown_kind():
    attack = Attack(
        id="a1",
        name="a1",
        detection_state=0.5,
        evidence=(Evidence(id="", kind=EvidenceKind.OTHER), Evidence(id="e2", kind="tool")),
    )
    assert validate_attack(attack) == [
        "evidence with empty id: id must be non-empty",
        "evidence 'e2': kind 'tool' not a known kind",
    ]


def test_validate_case_names_an_empty_case_id():
    assert validate_case(replace(make_case({"ev01": 1.0}), case_id="")) == [
        "case_id: must be non-empty"
    ]


# --- records -------------------------------------------------------------------

_EVIDENCE = Evidence("ev1", EvidenceKind.TOOL_USAGE, {"tool": "nc"}, "netcat", 0.5)
_ATTACK = Attack("a1", "Attack one", 0.75, (_EVIDENCE,))
_INTENTION = Intention("int-1", "Steal data.", "theft")
_MASS = MassFunction(("int-1",), {frozenset({"int-1"}): 1.0})
_RESULT = SimilarityResult("q", "c1", (("ev1", "ev1", 1.0),), 0.5)

# One of each record and its exact repr, in the form `Name(field=value, ...)`.
_EV_REPR = (
    "Evidence(id='ev1', kind=<EvidenceKind.TOOL_USAGE: 'tool-usage'>, "
    "attributes={'tool': 'nc'}, description='netcat', confidence=0.5)"
)
_ATTACK_REPR = (
    f"Attack(id='a1', name='Attack one', detection_state=0.75, evidence=({_EV_REPR},))"
)
_INTENTION_REPR = "Intention(id='int-1', label='Steal data.', category='theft')"
_MASS_REPR = "MassFunction(frame=('int-1',), masses={frozenset({'int-1'}): 1.0})"
_RESULT_REPR = (
    "SimilarityResult(new_case_id='q', precedent_case_id='c1', "
    "alignment=(('ev1', 'ev1', 1.0),), score=0.5)"
)
_RECORDS = [
    (_EVIDENCE, _EV_REPR),
    (_ATTACK, _ATTACK_REPR),
    (_INTENTION, _INTENTION_REPR),
    (Hypothesis("h1", 0.9, "int-1"), "Hypothesis(id='h1', accuracy=0.9, applies_to='int-1')"),
    (
        CausalNetwork("a1", (_INTENTION,), ("ev1",), {"int-1": 1.0}, {"ev1": {"int-1": 0.5}}),
        f"CausalNetwork(attack_id='a1', intentions=({_INTENTION_REPR},), "
        "evidence_ids=('ev1',), priors={'int-1': 1.0}, likelihoods={'ev1': {'int-1': 0.5}})",
    ),
    (
        Case(
            "c1", _ATTACK, _INTENTION, {"ev1": 1.0}, CaseStatus.RETAINED, "analyst",
            "2020-01-02T03:04:05Z",
        ),
        f"Case(case_id='c1', attack={_ATTACK_REPR}, intention={_INTENTION_REPR}, "
        "evidence_weights={'ev1': 1.0}, status=<CaseStatus.RETAINED: 'retained'>, "
        "provenance='analyst', created_at='2020-01-02T03:04:05Z')",
    ),
    (_MASS, _MASS_REPR),
    (
        BeliefReport({"int-1": (1.0, 1.0)}, "int-1", _MASS),
        "BeliefReport(per_intention={'int-1': (1.0, 1.0)}, selected='int-1', "
        f"mass={_MASS_REPR})",
    ),
    (_RESULT, _RESULT_REPR),
    (
        cbr.RetrievalRanking("q", (_RESULT,), {"c1": _INTENTION}),
        f"RetrievalRanking(new_case_id='q', entries=({_RESULT_REPR},), "
        f"precedent_intentions={{'c1': {_INTENTION_REPR}}})",
    ),
    (
        cbr.ReviseVerdict("reject", "wrong goal", "fraud", "none"),
        "ReviseVerdict(verdict='reject', rationale='wrong goal', crime_type='fraud', "
        "damage_note='none')",
    ),
]
_IDS = [type(record).__name__ for record, _ in _RECORDS]
# The records with no dict among their values, which therefore hash.
_HASHABLE = {"Intention", "Hypothesis", "SimilarityResult", "ReviseVerdict"}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record, text", _RECORDS, ids=_IDS)
def test_record_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", _RECORDS, ids=_IDS)
def test_record_equality_is_by_class_and_fields(record, text):
    twin = type(record)(*_fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert record.__eq__(object()) is NotImplemented
    assert record != _fields(record)
    # Another value of one field: the last, which no record checks but
    # MassFunction, whose frame may grow instead.
    if isinstance(record, MassFunction):
        assert replace(record, frame=("int-1", "int-2")) != record
    else:
        assert replace(record, **{type(record).__slots__[-1]: "other"}) != record


@pytest.mark.parametrize("record, text", _RECORDS, ids=_IDS)
def test_record_hash_is_the_hash_of_its_fields(record, text):
    if type(record).__name__ in _HASHABLE:
        assert hash(record) == hash(_fields(record)) == hash(type(record)(*_fields(record)))
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)


@pytest.mark.parametrize("record, text", _RECORDS, ids=_IDS)
def test_record_refuses_writes(record, text):
    assert not hasattr(record, "__dict__")
    for name in (*type(record).__slots__, "extra"):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, "x")
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert getattr(record, name, None) is before
    assert repr(record) == text


@pytest.mark.parametrize("record, text", _RECORDS, ids=_IDS)
def test_record_pickles_and_copies(record, text):
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(again) is type(record)
        assert again == record
        assert repr(again) == text


def test_replace_sets_the_named_fields_and_keeps_the_rest():
    changed = replace(_EVIDENCE, description="nc", confidence=1.0)
    assert changed == Evidence("ev1", EvidenceKind.TOOL_USAGE, {"tool": "nc"}, "nc", 1.0)
    assert changed.attributes is _EVIDENCE.attributes
    assert replace(_EVIDENCE) == _EVIDENCE
    with pytest.raises(TypeError, match="colour"):
        replace(_EVIDENCE, colour="red")


def test_replace_runs_the_checks_again():
    with pytest.raises(ValidationFailure, match="a reject verdict requires a rationale"):
        replace(cbr.ReviseVerdict("accept"), verdict="reject")
    both = frozenset({"int-1", "int-2"})
    halves = replace(
        _MASS,
        frame=("int-1", "int-2"),
        masses={frozenset({"int-1"}): 0.5, frozenset({"int-2"}): 0.5, both: 0.0},
    )
    assert halves.masses == {frozenset({"int-1"}): 0.5, frozenset({"int-2"}): 0.5}
    with pytest.raises(ValidationFailure, match="masses sum to 0.5, expected 1"):
        replace(halves, masses={frozenset({"int-1"}): 0.5})
    report = BeliefReport({"int-1": (1.0, 1.0)}, "int-1", _MASS)
    with pytest.raises(ValidationFailure, match="not the belief argmax"):
        replace(report, per_intention={"int-1": (0.0, 1.0), "int-0": (0.5, 1.0)})


def test_record_defaults():
    bare = Evidence("e", EvidenceKind.OTHER)
    assert bare == Evidence("e", EvidenceKind.OTHER, {}, "", 1.0)
    assert bare.attributes is not Evidence("e", EvidenceKind.OTHER).attributes
    assert Intention("i", "goal").category is None
    assert Hypothesis("h", 0.9).applies_to == "*"
    case = Case("c", _ATTACK, None, {}, CaseStatus.PROPOSED)
    assert case.provenance == "analyst"
    assert len(case.created_at) == 20 and case.created_at.endswith("Z")
    ranking = cbr.RetrievalRanking("q", ())
    assert ranking.precedent_intentions == {}
    assert ranking.precedent_intentions is not cbr.RetrievalRanking("q", ()).precedent_intentions
    assert cbr.ReviseVerdict("accept") == cbr.ReviseVerdict("accept", "", "", "")
