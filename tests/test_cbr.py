"""Similarity, retrieval, and the retrieve/reuse/revise/retain cycle."""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_pair_st, case_st, random_case
from intent_cbr import cbr
from intent_cbr import fixtures as demo
from intent_cbr.cbr import (
    ReviseVerdict,
    align_evidence,
    initialize_incipient,
    local_similarity,
    retain,
    retrieve,
    reuse,
    revise,
    similarity,
)
from intent_cbr.errors import (
    DuplicateCaseId,
    EmptyRanking,
    EmptyRepository,
    IllegalTransition,
    UnnormalizedWeights,
    ValidationFailure,
)
from intent_cbr.model import (
    CONFIRMED_STATUSES,
    Attack,
    Case,
    CaseStatus,
    Evidence,
    EvidenceKind,
    Intention,
    replace,
)
from intent_cbr.repository import Repository
from oracles import resum_similarity

TOOL, OTHER = EvidenceKind.TOOL_USAGE, EvidenceKind.OTHER


def ev(ev_id, kind=EvidenceKind.TOOL_USAGE, attrs=None, confidence=1.0):
    return Evidence(id=ev_id, kind=kind, attributes=attrs or {}, confidence=confidence)


def case_of(case_id, evidence, weights=None, status=CaseStatus.PRECEDENT, intention="int-x"):
    return Case(
        case_id=case_id,
        attack=Attack(id=f"attack-{case_id}", name=case_id, detection_state=0.9, evidence=tuple(evidence)),
        intention=None if intention is None else Intention(intention, f"goal {intention}"),
        evidence_weights=weights or {},
        status=status,
        created_at="2024-01-01T00:00:00Z",
    )


class TestLocalSimilarity:
    def test_identical_evidence(self):
        item = ev("e1", attrs={"tool": "W32/Agobot"})
        assert local_similarity(item, item) == 1.0

    def test_different_kinds(self):
        a = ev("e1", kind=EvidenceKind.TOOL_USAGE)
        b = ev("e2", kind=EvidenceKind.COMMAND_USAGE)
        assert local_similarity(a, b) == 0.0

    def test_partial_attribute_overlap(self):
        # Jaccard of {tool=W32/Agobot} vs {tool=W32/Agobot, mode=irc} is 1/2
        a = ev("e1", attrs={"tool": "W32/Agobot"})
        b = ev("e2", attrs={"tool": "W32/Agobot", "mode": "irc"})
        assert local_similarity(a, b) == pytest.approx(0.75)

    def test_same_kind_empty_attributes(self):
        assert local_similarity(ev("e1"), ev("e2")) == 1.0

    def test_same_kind_disjoint_attributes(self):
        a = ev("e1", attrs={"tool": "agobot"})
        b = ev("e2", attrs={"tool": "sdbot"})
        assert local_similarity(a, b) == 0.5


class TestAlignEvidence:
    def test_identity_matching(self):
        items = [ev(f"e{i}", attrs={"n": str(i)}) for i in range(1, 6)]
        new = case_of("new", items)
        old = case_of("old", items)
        alignment = align_evidence(new, old)
        assert len(alignment) == 5
        assert all(sim == 1.0 for _, _, sim in alignment)
        assert all(n_id == p_id for n_id, p_id, _ in alignment)

    def test_kind_disjoint_cases(self):
        new = case_of("new", [ev("e1", kind=EvidenceKind.TOOL_USAGE)])
        old = case_of("old", [ev("e2", kind=EvidenceKind.PORT_EXPLOIT)])
        assert align_evidence(new, old) == ()

    def test_greedy_prefers_highest_then_ids(self):
        # Build a 2x2 with sims 1.0 on the diagonal, 0.5 off it.
        new = case_of(
            "new",
            [ev("a", attrs={"k": "1"}), ev("b", attrs={"k": "2"})],
        )
        old = case_of(
            "old",
            [ev("x", attrs={"k": "1"}), ev("y", attrs={"k": "2"})],
        )
        alignment = align_evidence(new, old)
        assert [(n, p) for n, p, _ in alignment] == [("a", "x"), ("b", "y")]

    def test_each_precedent_item_used_once(self):
        new = case_of("new", [ev("a"), ev("b")])
        old = case_of("old", [ev("x")])
        alignment = align_evidence(new, old)
        assert len(alignment) == 1
        assert alignment[0][:2] == ("a", "x")


def test_greedy_trace_2x2():
    # Engineered Jaccard overlaps give sims (a,x)=0.9, (a,y)=0.8,
    # (b,x)=0.8, (b,y)=0.7. Greedy takes (a,x), skips the 0.8 pairs
    # (their items are used), and still pairs b with y at the lowest sim.
    def attrs(ids):
        return {f"k{i}": "v" for i in ids}

    a = ev("a", attrs=attrs([1, 2, 3, 4, 5, 6, 7, 8, 10]))
    b = ev("b", attrs=attrs([3, 4, 5, 6, 7, 8, 11]))
    x = ev("x", attrs=attrs([1, 2, 3, 4, 5, 6, 7, 8, 12]))
    y = ev("y", attrs=attrs([1, 2, 3, 4, 5, 6, 13]))
    alignment = align_evidence(case_of("new", [a, b]), case_of("old", [x, y]))
    sims = {(n, p): s for n, p, s in alignment}
    assert set(sims) == {("a", "x"), ("b", "y")}
    assert sims[("a", "x")] == pytest.approx(0.9)   # J = 8/10
    assert sims[("b", "y")] == pytest.approx(0.7)   # J = 4/10


class TestSimilarity:
    def test_single_pair_weight_085(self):
        matched = ev("p-e1", attrs={"tool": "agobot"})
        new = case_of("new", [ev("n-e1", attrs={"tool": "agobot"})])
        old = case_of(
            "old",
            [matched, ev("p-e2", kind=EvidenceKind.PORT_EXPLOIT)],
            weights={"p-e1": 0.85, "p-e2": 0.15},
        )
        result = similarity(new, old)
        assert result.score == pytest.approx(0.85)

    def test_two_half_pairs(self):
        new = case_of(
            "new",
            [ev("n1", attrs={"a": "1"}), ev("n2", kind=EvidenceKind.COMMAND_USAGE, attrs={"b": "1"})],
        )
        old = case_of(
            "old",
            [ev("p1", attrs={"a": "2"}), ev("p2", kind=EvidenceKind.COMMAND_USAGE, attrs={"b": "2"})],
            weights={"p1": 0.5, "p2": 0.5},
        )
        result = similarity(new, old)
        # both local sims are 0.5 (same kind, disjoint attrs)
        assert result.score == pytest.approx(0.5)

    def test_self_similarity_is_one(self):
        case = demo.precedent_cases()[0]
        assert similarity(case, case).score == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_weights_rejected(self):
        old = case_of("old", [ev("p1")], weights={"p1": 0.7})
        new = case_of("new", [ev("n1")])
        with pytest.raises(UnnormalizedWeights):
            similarity(new, old)

    @given(case_pair_st())
    @settings(max_examples=150)
    def test_score_bounded(self, pair):
        new, old = pair
        result = similarity(new, old)
        assert -1e-12 <= result.score <= 1.0 + 1e-9

    @given(case_st("c"))
    @settings(max_examples=100)
    def test_identity_property(self, case):
        assert similarity(case, case).score == pytest.approx(1.0, abs=1e-12)

    @given(case_pair_st())
    @settings(max_examples=150)
    def test_matches_brute_force_resummation(self, pair):
        new, old = pair
        result = similarity(new, old)
        assert result.score == pytest.approx(
            resum_similarity(new, old, result.alignment), abs=1e-12
        )

    @given(case_pair_st())
    @settings(max_examples=100)
    def test_raising_one_local_sim_never_lowers_score(self, pair):
        new, old = pair
        result = similarity(new, old)
        if not result.alignment:
            return
        weights = old.evidence_weights
        base = math.fsum(s * weights.get(p, 0.0) for _, p, s in result.alignment)
        for index in range(len(result.alignment)):
            bumped = [
                (n, p, min(1.0, s + 0.25) if i == index else s)
                for i, (n, p, s) in enumerate(result.alignment)
            ]
            bumped_score = math.fsum(s * weights.get(p, 0.0) for _, p, s in bumped)
            assert bumped_score >= base - 1e-12


class TestRetrieve:
    def test_reference_ranking_top3(self, demo_repo, keylogging_case):
        ranking = retrieve(keylogging_case, demo_repo, k=3)
        got = [(e.precedent_case_id, e.score) for e in ranking.entries]
        assert [g[0] for g in got] == ["botnet-03", "botnet-01", "botnet-02"]
        for (_, score), expected in zip(got, (0.91, 0.85, 0.79)):
            assert score == pytest.approx(expected, abs=1e-9)

    def test_exact_copy_scores_one(self, repo):
        case = demo.precedent_cases()[0]
        repo.add_case(case)
        probe = replace(case, case_id="probe", status=CaseStatus.PROPOSED, evidence_weights={})
        ranking = retrieve(probe, repo, k=1)
        assert ranking.entries[0].precedent_case_id == case.case_id
        assert ranking.entries[0].score == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_by_ascending_case_id(self, repo):
        base = demo.precedent_cases()[0]
        repo.add_case(replace(base, case_id="bbb"))
        repo.add_case(replace(base, case_id="aaa"))
        probe = replace(base, case_id="probe", status=CaseStatus.PROPOSED, evidence_weights={})
        ranking = retrieve(probe, repo, k=None)
        assert [e.precedent_case_id for e in ranking.entries] == ["aaa", "bbb"]

    def test_empty_repository(self, repo, keylogging_case):
        with pytest.raises(EmptyRepository):
            retrieve(keylogging_case, repo, k=3)

    def test_in_flight_cases_not_eligible(self, repo, keylogging_case):
        incipient = replace(
            demo.precedent_cases()[0], case_id="wip", status=CaseStatus.INCIPIENT
        )
        repo.add_case(incipient)
        with pytest.raises(EmptyRepository):
            retrieve(keylogging_case, repo, k=3)

    @pytest.mark.parametrize("status", list(CaseStatus), ids=lambda s: s.value)
    def test_only_confirmed_cases_are_ranked(self, demo_repo, keylogging_case, status):
        demo_repo.add_case(replace(demo.precedent_cases()[0], case_id="copy", status=status))
        ranked = {e.precedent_case_id for e in retrieve(keylogging_case, demo_repo, k=None).entries}
        assert ("copy" in ranked) == (status in CONFIRMED_STATUSES)

    def test_k_must_be_positive(self, demo_repo, keylogging_case):
        with pytest.raises(ValidationFailure):
            retrieve(keylogging_case, demo_repo, k=0)

    @pytest.mark.parametrize("k", [3, None])
    def test_precedent_intentions_are_those_of_the_ranked_ids(
        self, demo_repo, keylogging_case, k
    ):
        ranking = retrieve(keylogging_case, demo_repo, k=k)
        ranked = {e.precedent_case_id for e in ranking.entries}
        assert set(ranking.precedent_intentions) == ranked
        for case_id, intention in ranking.precedent_intentions.items():
            assert intention == demo_repo.get_case(case_id).intention

    def test_truncation_and_order(self, demo_repo, keylogging_case):
        full = retrieve(keylogging_case, demo_repo, k=None)
        assert len(full.entries) == 11
        scores = [e.score for e in full.entries]
        assert scores == sorted(scores, reverse=True)
        top4 = retrieve(keylogging_case, demo_repo, k=4)
        assert [e.precedent_case_id for e in top4.entries] == [
            e.precedent_case_id for e in full.entries[:4]
        ]

    def test_duplicate_precedent_leaves_other_scores_alone(self, demo_repo, keylogging_case):
        before = {
            e.precedent_case_id: e.score
            for e in retrieve(keylogging_case, demo_repo, k=None).entries
        }
        clone = replace(demo_repo.get_case("botnet-05"), case_id="zzz-clone")
        demo_repo.add_case(clone)
        after = {
            e.precedent_case_id: e.score
            for e in retrieve(keylogging_case, demo_repo, k=None).entries
        }
        for case_id, score in before.items():
            assert after[case_id] == score
        assert after["zzz-clone"] == before["botnet-05"]


class ListRepository:
    """In-memory stand-in for the repository: the confirmed cases by case id."""

    def __init__(self, cases):
        self.cases = sorted(cases, key=lambda c: c.case_id)

    def list_cases(self, status=None):
        return [c for c in self.cases if c.status in CONFIRMED_STATUSES]


@st.composite
def retrieval_st(draw):
    """A query and precedents with clones (ties), no-shared-kind cases and
    a precedent without an intention."""
    query = draw(case_st("new", status=CaseStatus.PROPOSED))
    precedents = [draw(case_st(f"p{i}")) for i in range(draw(st.integers(1, 8)))]
    for n, j in enumerate(draw(st.lists(st.integers(0, len(precedents) - 1), max_size=3))):
        precedents.append(replace(precedents[j], case_id=f"p{j}-clone{n}"))
    query_kinds = {e.kind for e in query.attack.evidence}
    unshared = [kind for kind in EvidenceKind if kind not in query_kinds][0]
    stranger = draw(case_st("stranger"))
    precedents.append(
        replace(
            stranger,
            attack=replace(
                stranger.attack,
                evidence=tuple(replace(e, kind=unshared) for e in stranger.attack.evidence),
            ),
        )
    )
    if draw(st.booleans()):
        precedents[0] = replace(precedents[0], intention=None)
    return query, ListRepository(precedents)


class TestBoundedRetrieve:
    @settings(max_examples=100, deadline=None)
    @given(retrieval_st())
    def test_top_k_is_the_head_of_the_full_ranking(self, drawn):
        query, repository = drawn
        full = retrieve(query, repository, k=None)
        for k in range(1, len(repository.cases) + 2):
            top = retrieve(query, repository, k=k)
            assert top.entries == full.entries[:k]
            head = {e.precedent_case_id for e in full.entries[:k]}
            assert top.precedent_intentions == {
                case_id: intention
                for case_id, intention in full.precedent_intentions.items()
                if case_id in head
            }

    @settings(max_examples=200, deadline=None)
    @given(case_pair_st(), st.integers(0, 6))
    def test_bound_is_never_below_the_score(self, pair, keep):
        # The query's first `keep` items: of no kind, one kind or several.
        new, old = pair
        new = replace(new, attack=replace(new.attack, evidence=new.attack.evidence[:keep]))
        [bound] = cbr._bounds(new, [cbr._bound_row(old)])
        assert bound >= similarity(new, old).score

    @pytest.mark.parametrize(
        "query_kinds, precedent_evidence, expected",
        [
            ([], [(TOOL, 1.0)], 0.0),
            ([TOOL] * 2, [(TOOL, 0.5), (TOOL, 0.5)], 1.0),
            ([TOOL], [(TOOL, 0.3), (TOOL, 0.7)], 1.0),
            ([TOOL] * 2, [(TOOL, 0.25), (TOOL, 0.5), (TOOL, 0.25)], 1.0),
            ([OTHER], [(TOOL, 0.3), (TOOL, 0.7)], 0.0),
            ([TOOL], [(TOOL, 0.3), (OTHER, 0.7)], 0.3),
            ([TOOL, OTHER], [(TOOL, 0.25), (EvidenceKind.PORT_EXPLOIT, 0.5), (OTHER, 0.25)], 0.5),
            ([OTHER, TOOL, OTHER], [(TOOL, 0.3), (OTHER, 0.7)], 1.0),
        ],
    )
    def test_bound_is_the_weight_of_the_evidence_of_the_query_kinds(
        self, query_kinds, precedent_evidence, expected
    ):
        query = case_of("new", [ev(f"q{i}", kind=kind) for i, kind in enumerate(query_kinds)])
        precedent = case_of(
            "p",
            [ev(f"p{i}", kind=kind) for i, (kind, _) in enumerate(precedent_evidence)],
            {f"p{i}": w for i, (_, w) in enumerate(precedent_evidence)},
        )
        assert list(cbr._bounds(query, [cbr._bound_row(precedent)])) == [expected]

    def test_two_query_items_of_one_kind_can_lift_a_precedent_to_the_top(self):
        query = case_of("new", [ev("q1"), ev("q2")], status=CaseStatus.PROPOSED)
        b = case_of("b", [ev("b1"), ev("b2")], {"b1": 0.5, "b2": 0.5})
        a = case_of(
            "a", [ev("a1"), ev("a2", kind=EvidenceKind.OTHER)], {"a1": 0.6, "a2": 0.4}
        )
        ranking = retrieve(query, ListRepository([a, b]), k=1)
        assert [(e.precedent_case_id, e.score) for e in ranking.entries] == [("b", 1.0)]

    def test_bound_equal_to_the_kth_score_is_scored(self):
        # "b" has the higher bound (1.0) but scores 0.5; "a" is bounded by
        # 0.5, scores 0.5, and takes the top place on its case id.
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        b = case_of("b", [ev("b1", attrs={"tool": "x"})], {"b1": 1.0})
        a = case_of(
            "a", [ev("a1"), ev("a2", kind=EvidenceKind.OTHER)], {"a1": 0.5, "a2": 0.5}
        )
        ranking = retrieve(query, ListRepository([a, b]), k=1)
        assert [(e.precedent_case_id, e.score) for e in ranking.entries] == [("a", 0.5)]

    def test_unnormalized_precedent_raises_even_when_its_bound_is_zero(self):
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        copy = case_of("a", [ev("a1")], {"a1": 1.0})
        unshared = ev("z1", kind=EvidenceKind.OTHER)
        skewed = case_of("z", [unshared], {"z1": 0.5})
        with pytest.raises(UnnormalizedWeights, match="'z'"):
            retrieve(query, ListRepository([copy, skewed]), k=1)

    @pytest.mark.parametrize("k", [None, 1])
    def test_a_negative_weight_is_refused_by_every_ranking(self, k):
        # Both sum to 1. Unchecked, k=None ranked "a" (-0.25) above "b"
        # (-0.3), while the bound of k=1 kept "b".
        query = case_of("new", [ev("q1", attrs={"tool": "x"})], status=CaseStatus.PROPOSED)
        a = case_of(
            "a", [ev("a1", attrs={"tool": "y"}), ev("a2", kind=OTHER)], {"a1": -0.5, "a2": 1.5}
        )
        b = case_of(
            "b", [ev("b1", attrs={"tool": "x"}), ev("b2", kind=OTHER)], {"b1": -0.3, "b2": 1.3}
        )
        with pytest.raises(UnnormalizedWeights, match="'a'"):
            retrieve(query, ListRepository([a, b]), k=k)

    @pytest.mark.parametrize("k", [None, 1])
    @pytest.mark.parametrize(
        "weights",
        [
            {"n1": math.nan, "n2": 1.0},
            # min passes over a NaN that is not the first value.
            {"n1": 1.0, "n2": math.nan},
            {"n1": math.inf, "n2": 0.0},
            {"n1": math.inf, "n2": -math.inf},
            {"n1": 1e308, "n2": 1e308},
        ],
    )
    def test_a_weight_that_is_not_finite_or_too_large_is_refused(self, weights, k):
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        copy = case_of("a", [ev("a1")], {"a1": 1.0})
        bad = case_of("n", [ev("n1"), ev("n2")], weights)
        with pytest.raises(UnnormalizedWeights, match="'n'"):
            retrieve(query, ListRepository([copy, bad]), k=k)

    def test_top_k_scores_fewer_precedents_than_a_full_ranking(self, monkeypatch):
        rng = random.Random(20031)
        n = 300
        repository = ListRepository([random_case(rng, f"p{i:03d}") for i in range(n)])
        queries = [
            replace(random_case(rng, f"q{i}"), status=CaseStatus.PROPOSED) for i in range(5)
        ]
        scored = []

        def counting(new_case, precedent):
            scored.append(precedent.case_id)
            return similarity(new_case, precedent)

        monkeypatch.setattr(cbr, "similarity", counting)
        for query in queries:
            del scored[:]
            retrieve(query, repository, k=5)
            assert len(scored) < n
            del scored[:]
            retrieve(query, repository, k=None)
            assert len(scored) == n


def _top_k_is_the_head_of_the_full_ranking(query, repository):
    full = retrieve(query, repository, k=None).entries
    for k in range(1, len(full) + 1):
        assert retrieve(query, repository, k=k).entries == full[:k]
    return full


class TestBoundRows:
    """Each repository handle keeps one bound row per confirmed precedent."""

    def test_writes_on_one_handle_keep_the_top_k_exact(self, tmp_path):
        rng = random.Random(18)
        repository = Repository.open(tmp_path / "repo")
        for i in range(6):
            repository.add_case(random_case(rng, f"p{i}"))
        query = replace(random_case(rng, "q"), case_id="query", status=CaseStatus.PROPOSED)
        _top_k_is_the_head_of_the_full_ranking(query, repository)
        for i in range(4):
            repository.add_case(random_case(rng, f"n{i}"))
            _top_k_is_the_head_of_the_full_ranking(query, repository)
            # An in-flight copy of the query, then its retained record, under
            # an id that sorts first: the retained one must take the top.
            twin = replace(
                query,
                case_id=f"a{i}",
                intention=Intention("int-x", "goal"),
                status=CaseStatus.REVISED_ACCEPTED,
            )
            repository.add_case(twin)
            _top_k_is_the_head_of_the_full_ranking(query, repository)
            retain(twin, repository)
            full = _top_k_is_the_head_of_the_full_ranking(query, repository)
            assert full[0].precedent_case_id == "a0"
            assert f"a{i}" in cbr._ROWS[repository]

    def test_a_new_object_under_an_old_case_id_gets_a_new_row(self):
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        a = case_of("a", [ev("a1"), ev("a2", kind=OTHER)], {"a1": 0.1, "a2": 0.9})
        b = case_of("b", [ev("b1", attrs={"tool": "x"})], {"b1": 1.0})
        repository = ListRepository([a, b])
        top = retrieve(query, repository, k=1).entries
        assert [(e.precedent_case_id, e.score) for e in top] == [("b", 0.5)]
        # The old row bounds "a" by 0.1, below b's 0.5: used, it would hide "a".
        repository.cases[0] = replace(a, evidence_weights={"a1": 0.9, "a2": 0.1})
        top = retrieve(query, repository, k=1).entries
        assert [(e.precedent_case_id, e.score) for e in top] == [("a", 0.9)]
        assert cbr._ROWS[repository]["a"][0] is repository.cases[0]

    def test_bad_weights_raise_on_every_call(self):
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        good = case_of("a", [ev("a1")], {"a1": 1.0})
        bad = case_of("z", [ev("z1", kind=OTHER)], {"z1": 0.5})
        repository = ListRepository([good, bad])
        for _ in range(3):
            with pytest.raises(UnnormalizedWeights, match="'z'"):
                retrieve(query, repository, k=1)

    def test_rows_die_with_their_handle(self, tmp_path):
        repository = Repository.open(tmp_path / "repo")
        repository.add_case(case_of("a", [ev("a1")], {"a1": 1.0}))
        retrieve(case_of("new", [ev("q1")], status=CaseStatus.PROPOSED), repository, k=1)
        assert list(cbr._ROWS[repository]) == ["a"]
        handle = weakref.ref(repository)
        held = len(cbr._ROWS)
        del repository
        gc.collect()
        assert handle() is None
        assert len(cbr._ROWS) < held

    def test_a_query_without_evidence_ranks_every_precedent_at_zero(self):
        query = replace(
            case_of("new", [ev("q1")], status=CaseStatus.PROPOSED),
            attack=Attack(id="empty", name="empty", detection_state=0.9, evidence=()),
        )
        repository = ListRepository([case_of(c, [ev(f"{c}1")], {f"{c}1": 1.0}) for c in "ba"])
        full = _top_k_is_the_head_of_the_full_ranking(query, repository)
        assert [(e.precedent_case_id, e.score) for e in full] == [("a", 0.0), ("b", 0.0)]

    def test_a_repeated_kind_whose_fsum_rounds_down_is_rounded_up(self):
        weights = {"p0": 1.0, "p1": 2.0**-53}
        assert math.fsum(weights.values()) == 1.0
        precedent = case_of("p", [ev("p0"), ev("p1")], weights)
        [bound] = cbr._bounds(case_of("new", [ev("q1")]), [cbr._bound_row(precedent)])
        assert Fraction(bound) >= Fraction(1) + Fraction(2.0**-53)
        assert bound == math.nextafter(1.0, 2.0)

    def test_row_layout(self):
        weights = {"t1": 0.25, "t2": 0.5, "o1": 0.25}
        precedent = case_of("p", [ev("t1"), ev("o1", kind=OTHER), ev("t2")], weights)
        row = cbr._bound_row(precedent)
        assert row[0] is precedent
        assert len(row) == 1 + len(EvidenceKind)
        assert row[cbr._COLUMN[TOOL]] == 0.75
        # A kind with one item holds that very weight object.
        assert row[cbr._COLUMN[OTHER]] is weights["o1"]
        assert [row[cbr._COLUMN[k]] for k in EvidenceKind if k not in (TOOL, OTHER)] == [0.0] * 7

    @settings(max_examples=200, deadline=None)
    @given(case_st("p"))
    def test_each_total_is_the_least_float_not_below_its_exact_sum(self, precedent):
        row = cbr._bound_row(precedent)
        for kind, column in cbr._COLUMN.items():
            exact = sum(
                Fraction(precedent.evidence_weights[e.id])
                for e in precedent.attack.evidence
                if e.kind == kind
            )
            total = row[column]
            assert Fraction(math.nextafter(total, -math.inf)) < exact <= Fraction(total)


class TestReuse:
    def test_copies_top_intention(self, demo_repo, keylogging_case):
        ranking = retrieve(keylogging_case, demo_repo, k=11)
        proposed = reuse(keylogging_case, ranking)
        assert proposed.status == CaseStatus.PROPOSED
        assert proposed.intention.id == "int-03"
        assert proposed.intention.label.startswith("To observe everything the victim is doing")
        assert "botnet-03" in proposed.provenance
        assert "0.91" in proposed.provenance

    def test_single_precedent(self, repo, keylogging_case):
        repo.add_case(demo.precedent_cases()[4])
        ranking = retrieve(keylogging_case, repo, k=1)
        proposed = reuse(keylogging_case, ranking)
        assert proposed.intention.id == "int-05"

    def test_zero_score_flagged_low_confidence(self, repo, keylogging_case):
        stranger = case_of(
            "stranger",
            [ev("s1", kind=EvidenceKind.PORT_EXPLOIT)],
            weights={"s1": 1.0},
            intention="int-09",
        )
        repo.add_case(stranger)
        ranking = retrieve(keylogging_case, repo, k=1)
        proposed = reuse(keylogging_case, ranking)
        assert proposed.intention.id == "int-09"
        assert "low-confidence" in proposed.provenance
        assert "score=0" in proposed.provenance

    def test_empty_ranking(self, keylogging_case):
        from intent_cbr.cbr import RetrievalRanking

        with pytest.raises(EmptyRanking):
            reuse(keylogging_case, RetrievalRanking("x", ()))

    def test_top_precedent_without_an_intention(self, keylogging_case):
        precedent = case_of("p", [ev("p1")], {"p1": 1.0})
        ranking = retrieve(keylogging_case, ListRepository([precedent]), k=1)
        ranking = replace(ranking, precedent_intentions={})
        with pytest.raises(ValidationFailure, match="precedent 'p' carries no intention"):
            reuse(keylogging_case, ranking)


class TestInitializeIncipient:
    def make_proposed(self, confidences):
        evidence = [
            ev(f"e{i}", confidence=c) for i, c in enumerate(confidences, start=1)
        ]
        case = case_of("c1", evidence, status=CaseStatus.PROPOSED)
        return case

    @pytest.mark.parametrize(
        "confidences,expected",
        [
            ((0.5, 0.5), (0.5, 0.5)),
            ((0.9, 0.1), (0.9, 0.1)),
            ((0.4, 0.4, 0.2), (0.4, 0.4, 0.2)),
        ],
    )
    def test_confidence_normalization(self, confidences, expected):
        incipient = initialize_incipient(self.make_proposed(confidences))
        assert incipient.status == CaseStatus.INCIPIENT
        for i, want in enumerate(expected, start=1):
            assert incipient.evidence_weights[f"e{i}"] == pytest.approx(want)

    def test_all_zero_confidences_fall_back_to_uniform(self):
        incipient = initialize_incipient(self.make_proposed((0.0, 0.0)))
        assert incipient.evidence_weights == {"e1": 0.5, "e2": 0.5}

    def test_summary_attached(self):
        incipient = initialize_incipient(self.make_proposed((0.5, 0.5)))
        assert "incipient summary" in incipient.provenance
        assert "e1" in incipient.provenance

    def test_requires_proposed_status(self):
        case = case_of("c1", [ev("e1")], status=CaseStatus.INCIPIENT)
        with pytest.raises(IllegalTransition):
            initialize_incipient(case)


class TestRevise:
    def incipient(self):
        case = case_of("c1", [ev("e1", confidence=0.5)], status=CaseStatus.PROPOSED)
        return initialize_incipient(case)

    def test_accept(self):
        revised = revise(self.incipient(), ReviseVerdict("accept"))
        assert revised.status == CaseStatus.REVISED_ACCEPTED

    def test_accept_notes_crime_type_and_damage(self):
        revised = revise(
            self.incipient(),
            ReviseVerdict("accept", crime_type="espionage", damage_note="keys leaked"),
        )
        assert revised.provenance.endswith(
            "revise accept crime_type=espionage damage=keys leaked"
        )

    def test_reject_with_rationale(self):
        revised = revise(
            self.incipient(),
            ReviseVerdict("reject", rationale="evidence inconsistent with goal"),
        )
        assert revised.status == CaseStatus.REVISED_REJECTED
        assert "evidence inconsistent" in revised.provenance

    def test_reject_requires_rationale(self):
        with pytest.raises(ValidationFailure):
            ReviseVerdict("reject", rationale="   ")

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValidationFailure):
            ReviseVerdict("maybe")

    def test_requires_incipient_status(self):
        case = case_of("c1", [ev("e1")], status=CaseStatus.PROPOSED)
        with pytest.raises(IllegalTransition):
            revise(case, ReviseVerdict("accept"))


class TestRetain:
    def accepted(self, demo_repo, keylogging_case):
        ranking = retrieve(keylogging_case, demo_repo, k=11)
        incipient = initialize_incipient(reuse(keylogging_case, ranking))
        return revise(incipient, ReviseVerdict("accept"))

    def test_repository_gains_a_precedent(self, demo_repo, keylogging_case):
        accepted = self.accepted(demo_repo, keylogging_case)
        assert len(demo_repo.list_cases(status=("precedent", "retained"))) == 11
        retained = retain(accepted, demo_repo)
        assert retained.status == CaseStatus.RETAINED
        assert len(demo_repo.list_cases(status=("precedent", "retained"))) == 12

    def test_retain_then_retrieve_identical_evidence(self, demo_repo, keylogging_case):
        retain(self.accepted(demo_repo, keylogging_case), demo_repo)
        probe = replace(keylogging_case, case_id="probe")
        ranking = retrieve(probe, demo_repo, k=1)
        assert ranking.entries[0].precedent_case_id == keylogging_case.case_id
        assert ranking.entries[0].score == pytest.approx(1.0, abs=1e-12)

    def test_rejected_cases_never_retained(self, demo_repo, keylogging_case):
        ranking = retrieve(keylogging_case, demo_repo, k=11)
        incipient = initialize_incipient(reuse(keylogging_case, ranking))
        rejected = revise(incipient, ReviseVerdict("reject", rationale="wrong goal"))
        with pytest.raises(IllegalTransition):
            retain(rejected, demo_repo)

    def test_duplicate_id_rejected(self, demo_repo, keylogging_case):
        accepted = self.accepted(demo_repo, keylogging_case)
        clash = replace(accepted, case_id="botnet-03")
        with pytest.raises(DuplicateCaseId):
            retain(clash, demo_repo)


@given(case_st("fresh", status=CaseStatus.PROPOSED))
@settings(max_examples=30, deadline=None)
def test_full_cycle_property(tmp_path_factory, case):
    """retrieve -> reuse -> incipient -> accept -> retain; then the
    retained case wins retrieval for the same evidence."""
    from intent_cbr.repository import Repository

    root = tmp_path_factory.mktemp("cycle")
    repo = Repository.open(root)
    for precedent in demo.precedent_cases():
        repo.add_case(precedent)
    seed = replace(case, evidence_weights={}, intention=None)
    ranking = retrieve(seed, repo, k=None)
    incipient = initialize_incipient(reuse(seed, ranking))
    retained = retain(revise(incipient, ReviseVerdict("accept")), repo)
    probe = replace(seed, case_id="probe-again")
    after = retrieve(probe, repo, k=1)
    assert after.entries[0].precedent_case_id == retained.case_id
    # The retained case reads back exactly as written, so it scores what
    # it scores in memory.
    assert after.entries[0].score == similarity(probe, retained).score
