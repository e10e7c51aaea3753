"""Posteriors, mass building, Dempster combination, and the full estimator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mass_function_st, network_st, random_network
from intent_cbr.errors import (
    AllZeroPosteriors,
    EmptyPosteriors,
    FrameMismatch,
    NoHypothesis,
    SubsetOutsideFrame,
    TotalConflict,
    UnknownEvidence,
    ValidationFailure,
    ZeroMarginal,
)
from intent_cbr.inference import (
    analyze_attack,
    belief,
    build_mass_function,
    combine,
    evidence_marginal,
    plausibility,
    posterior,
    posteriors_for_evidence,
    vacuous,
)
from intent_cbr.model import (
    Attack,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Hypothesis,
    Intention,
    MassFunction,
    replace,
    validate_network,
)
from oracles import (
    dense_belief,
    dense_combine,
    dense_plausibility,
    exact_fusion,
    reference_analyze,
)


def two_intention_network(lik_i1=0.8, lik_i2=0.4) -> CausalNetwork:
    return CausalNetwork(
        attack_id="a1",
        intentions=(Intention("i1", "first goal"), Intention("i2", "second goal")),
        evidence_ids=("ev1",),
        priors={"i1": 0.5, "i2": 0.5},
        likelihoods={"ev1": {"i1": lik_i1, "i2": lik_i2}},
    )


def singleton_mass(frame, **named) -> MassFunction:
    masses = {}
    for key, value in named.items():
        subset = frozenset(frame) if key == "theta" else frozenset({key})
        masses[subset] = value
    return MassFunction(frame=frame, masses=masses)


class TestMarginalAndPosterior:
    def test_total_probability_hand_example(self):
        # 0.8 * 0.5 + 0.4 * 0.5
        assert evidence_marginal(two_intention_network(), "ev1") == pytest.approx(0.6)

    def test_all_zero_likelihoods(self):
        assert evidence_marginal(two_intention_network(0.0, 0.0), "ev1") == 0.0

    def test_all_one_likelihoods(self):
        assert evidence_marginal(two_intention_network(1.0, 1.0), "ev1") == pytest.approx(1.0)

    def test_unknown_evidence(self):
        with pytest.raises(UnknownEvidence):
            evidence_marginal(two_intention_network(), "nope")

    def test_posterior_hand_bayes(self):
        # 0.8*0.5 / 0.6 = 2/3
        assert posterior(two_intention_network(), "i1", "ev1") == pytest.approx(
            0.6667, abs=1e-4
        )

    def test_posterior_single_intention_frame(self):
        net = CausalNetwork(
            attack_id="a1",
            intentions=(Intention("i1", "only goal"),),
            evidence_ids=("ev1",),
            priors={"i1": 1.0},
            likelihoods={"ev1": {"i1": 0.7}},
        )
        assert posterior(net, "i1", "ev1") == pytest.approx(1.0)

    def test_posterior_zero_likelihood(self):
        assert posterior(two_intention_network(0.0, 0.4), "i1", "ev1") == 0.0

    def test_zero_marginal(self):
        with pytest.raises(ZeroMarginal):
            posterior(two_intention_network(0.0, 0.0), "i1", "ev1")

    def test_bayes_rule_bit_for_bit_on_seeded_networks(self):
        for seed in range(300):
            net = random_network(random.Random(seed), intentions=(2, 6), evidence=(1, 8))
            ids = net.intention_ids()
            for ev_id in net.evidence_ids:
                row = net.likelihoods[ev_id]
                marginal = math.fsum(row[i] * net.priors[i] for i in ids)
                assert evidence_marginal(net, ev_id) == marginal
                assert posteriors_for_evidence(net, ev_id) == {
                    i: row[i] * net.priors[i] / marginal for i in ids
                }

    @pytest.mark.parametrize(
        "no_likelihood, no_prior, error",
        [("i1", "i1", ValidationFailure), ("i2", "i1", KeyError), ("i1", "i2", ValidationFailure)],
    )
    def test_missing_entries_raise_in_frame_order(self, no_likelihood, no_prior, error):
        """Per intention in frame order, its likelihood is checked before its prior."""
        net = two_intention_network()
        row = dict(net.likelihoods["ev1"])
        del row[no_likelihood]
        priors = dict(net.priors)
        del priors[no_prior]
        net = replace(net, likelihoods={"ev1": row}, priors=priors)
        for call in (evidence_marginal, posteriors_for_evidence):
            with pytest.raises(error):
                call(net, "ev1")

    @given(network_st())
    @settings(max_examples=100)
    def test_posteriors_sum_to_one(self, net):
        for ev_id in net.evidence_ids:
            posts = posteriors_for_evidence(net, ev_id)
            assert abs(math.fsum(posts.values()) - 1.0) <= 1e-9


class TestBuildMassFunction:
    def test_full_confidence_normalizes_posteriors(self):
        m = build_mass_function(
            {"i1": 0.6667, "i2": 0.3333}, Hypothesis("h1", accuracy=1.0)
        )
        assert m.mass({"i1"}) == pytest.approx(0.6667, abs=1e-4)
        assert m.mass({"i2"}) == pytest.approx(0.3333, abs=1e-4)
        assert m.mass({"i1", "i2"}) == 0.0

    def test_zero_accuracy_is_vacuous(self):
        m = build_mass_function({"i1": 0.9, "i2": 0.1}, Hypothesis("h1", accuracy=0.0))
        assert m.mass({"i1", "i2"}) == pytest.approx(1.0)
        assert m.mass({"i1"}) == 0.0

    def test_partial_accuracy_hand_arithmetic(self):
        m = build_mass_function({"i1": 0.5, "i2": 0.5}, Hypothesis("h1", accuracy=0.8))
        assert m.mass({"i1"}) == pytest.approx(0.4)
        assert m.mass({"i2"}) == pytest.approx(0.4)
        assert m.mass({"i1", "i2"}) == pytest.approx(0.2)

    def test_empty_posteriors(self):
        with pytest.raises(EmptyPosteriors):
            build_mass_function({}, Hypothesis("h1", accuracy=1.0))

    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("bad", ["i1", "i2"])
    def test_posterior_outside_the_unit_interval(self, p, bad):
        posteriors = {"i1": 0.5, "i2": 0.5, "i3": p, bad: p}
        with pytest.raises(ValidationFailure, match=rf"posterior for '{bad}' is .*, outside \[0,1\]"):
            build_mass_function(posteriors, Hypothesis("h1", accuracy=1.0))

    def test_all_zero_posteriors(self):
        with pytest.raises(AllZeroPosteriors):
            build_mass_function({"i1": 0.0, "i2": 0.0}, Hypothesis("h1", accuracy=1.0))

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_discounting_monotonicity(self, acc_low, acc_high, p1, p2):
        # Lower accuracy never raises belief or lowers plausibility.
        if acc_low > acc_high:
            acc_low, acc_high = acc_high, acc_low
        posts = {"i1": p1, "i2": p2}
        low = build_mass_function(posts, Hypothesis("h", accuracy=acc_low))
        high = build_mass_function(posts, Hypothesis("h", accuracy=acc_high))
        for iid in ("i1", "i2"):
            assert belief(low, {iid}) <= belief(high, {iid}) + 1e-12
            assert plausibility(low, {iid}) >= plausibility(high, {iid}) - 1e-12


class TestCombine:
    def test_hand_example_without_conflict(self):
        m1 = singleton_mass(("i1", "i2"), i1=0.6, theta=0.4)
        m2 = singleton_mass(("i1", "i2"), i1=0.5, theta=0.5)
        out = combine(m1, m2)
        assert out.mass({"i1"}) == pytest.approx(0.8)
        assert out.mass({"i1", "i2"}) == pytest.approx(0.2)

    def test_hand_example_with_conflict(self):
        m1 = singleton_mass(("i1", "i2"), i1=0.6, i2=0.4)
        m2 = singleton_mass(("i1", "i2"), i1=0.5, i2=0.5)
        out = combine(m1, m2)
        # K = 0.6*0.5 + 0.4*0.5 = 0.5
        assert out.mass({"i1"}) == pytest.approx(0.6)
        assert out.mass({"i2"}) == pytest.approx(0.4)

    def test_vacuous_is_identity(self):
        m = singleton_mass(("i1", "i2"), i1=0.3, i2=0.45, theta=0.25)
        out = combine(m, vacuous(("i1", "i2")))
        assert set(out.masses) == set(m.masses)
        for subset, value in m.masses.items():
            assert abs(out.masses[subset] - value) <= 1e-12

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            combine(singleton_mass(("i1",), i1=1.0), singleton_mass(("i2",), i2=1.0))

    def test_total_conflict(self):
        m1 = singleton_mass(("i1", "i2"), i1=1.0)
        m2 = singleton_mass(("i1", "i2"), i2=1.0)
        with pytest.raises(TotalConflict):
            combine(m1, m2)

    @given(mass_function_st(theta_floor=0.05), mass_function_st(theta_floor=0.05))
    @settings(max_examples=150)
    def test_commutative_exactly(self, m1, m2):
        m2 = replace_frame(m2, m1.frame)
        left = combine(m1, m2)
        right = combine(m2, m1)
        assert left.masses == right.masses

    @given(
        mass_function_st(theta_floor=0.05),
        mass_function_st(theta_floor=0.05),
        mass_function_st(theta_floor=0.05),
    )
    @settings(max_examples=100)
    def test_associative_within_tolerance(self, m1, m2, m3):
        m2 = replace_frame(m2, m1.frame)
        m3 = replace_frame(m3, m1.frame)
        left = combine(combine(m1, m2), m3)
        right = combine(m1, combine(m2, m3))
        for subset in set(left.masses) | set(right.masses):
            assert left.masses.get(subset, 0.0) == pytest.approx(
                right.masses.get(subset, 0.0), abs=1e-9
            )

    @given(mass_function_st(theta_floor=0.05), mass_function_st(theta_floor=0.05))
    @settings(max_examples=150)
    def test_matches_dense_enumeration_exactly(self, m1, m2):
        m2 = replace_frame(m2, m1.frame)
        expected, _ = dense_combine(m1, m2)
        got = combine(m1, m2)
        assert got.masses == expected


class TestBeliefPlausibility:
    def test_definitional_sums(self):
        m = singleton_mass(("i1", "i2"), i1=0.8, theta=0.2)
        assert belief(m, {"i1"}) == pytest.approx(0.8)
        assert plausibility(m, {"i1"}) == pytest.approx(1.0)

    def test_vacuous_bounds(self):
        m = vacuous(("i1", "i2"))
        assert belief(m, {"i1"}) == 0.0
        assert plausibility(m, {"i1"}) == 1.0

    def test_full_frame(self):
        m = singleton_mass(("i1", "i2"), i1=0.3, i2=0.5, theta=0.2)
        assert belief(m, {"i1", "i2"}) == pytest.approx(1.0)
        assert plausibility(m, {"i1", "i2"}) == pytest.approx(1.0)

    def test_subset_outside_frame(self):
        with pytest.raises(SubsetOutsideFrame):
            belief(vacuous(("i1",)), {"i9"})
        with pytest.raises(SubsetOutsideFrame):
            plausibility(vacuous(("i1",)), {"i9"})

    @given(mass_function_st())
    @settings(max_examples=150)
    def test_matches_dense_enumeration_exactly(self, m):
        from conftest import nonempty_subsets

        for subset in nonempty_subsets(m.frame):
            assert belief(m, subset) == dense_belief(m, subset)
            assert plausibility(m, subset) == dense_plausibility(m, subset)

    @given(mass_function_st())
    @settings(max_examples=150)
    def test_duality_and_ordering(self, m):
        from conftest import nonempty_subsets

        frame = frozenset(m.frame)
        for subset in nonempty_subsets(m.frame):
            bel = belief(m, subset)
            pl = plausibility(m, subset)
            assert bel <= pl
            assert pl == pytest.approx(1.0 - belief(m, frame - subset), abs=1e-9)


def make_attack(evidence_ids, detection_state=1.0) -> Attack:
    return Attack(
        id="a1",
        name="a1",
        detection_state=detection_state,
        evidence=tuple(
            Evidence(id=ev, kind=EvidenceKind.TOOL_USAGE) for ev in evidence_ids
        ),
    )


class TestAnalyzeAttack:
    def test_single_evidence_hand_example(self):
        report = analyze_attack(
            make_attack(["ev1"]),
            two_intention_network(),
            [Hypothesis("h1", accuracy=1.0)],
        )
        assert report.selected == "i1"
        assert report.per_intention["i1"][0] == pytest.approx(0.6667, abs=1e-4)

    def test_repeated_evidence_reinforces(self):
        net = two_intention_network()
        net = replace(
            net,
            evidence_ids=("ev1", "ev2"),
            likelihoods={"ev1": net.likelihoods["ev1"], "ev2": net.likelihoods["ev1"]},
        )
        single = analyze_attack(
            make_attack(["ev1"]), two_intention_network(), [Hypothesis("h", 1.0)]
        )
        double = analyze_attack(make_attack(["ev1", "ev2"]), net, [Hypothesis("h", 1.0)])
        assert double.selected == single.selected == "i1"
        # Hand value: K = 2*(2/3)*(1/3) = 4/9; (4/9)/(5/9) = 0.8
        assert double.per_intention["i1"][0] == pytest.approx(0.8)
        assert double.per_intention["i1"][0] > single.per_intention["i1"][0]

    def test_symmetric_rows_tie_break(self):
        net = two_intention_network(0.5, 0.5)
        report = analyze_attack(make_attack(["ev1"]), net, [Hypothesis("h", 1.0)])
        assert report.per_intention["i1"][0] == pytest.approx(
            report.per_intention["i2"][0]
        )
        assert report.selected == "i1"

    def test_detection_state_is_default_hypothesis(self):
        report = analyze_attack(make_attack(["ev1"], detection_state=0.8), two_intention_network())
        explicit = analyze_attack(
            make_attack(["ev1"]), two_intention_network(), [Hypothesis("h", 0.8)]
        )
        assert report.per_intention == explicit.per_intention

    def test_explicit_empty_hypotheses_rejected(self):
        with pytest.raises(NoHypothesis):
            analyze_attack(make_attack(["ev1"]), two_intention_network(), [])

    def test_missing_wildcard_for_uncovered_intention(self):
        with pytest.raises(NoHypothesis):
            analyze_attack(
                make_attack(["ev1"]),
                two_intention_network(),
                [Hypothesis("h", 0.9, applies_to="i1")],
            )

    def test_per_intention_hypotheses_with_wildcard(self):
        report = analyze_attack(
            make_attack(["ev1"]),
            two_intention_network(),
            [Hypothesis("h1", 0.9, applies_to="i1"), Hypothesis("h2", 0.7)],
        )
        # m({i1}) = 0.9 * 2/3, m({i2}) = 0.7 * 1/3
        assert report.per_intention["i1"][0] == pytest.approx(0.6)
        assert report.per_intention["i2"][0] == pytest.approx(0.7 / 3)

    @pytest.mark.parametrize("accuracy", [1.5, -0.5])
    def test_accuracy_outside_unit_interval_rejected_at_its_item(self, accuracy):
        # ev1's masses are invalid; the unknown item after it is never reached.
        with pytest.raises(ValidationFailure):
            analyze_attack(
                make_attack(["ev1", "ghost"]),
                two_intention_network(),
                [Hypothesis("h", accuracy)],
            )

    def test_single_intention_frame_has_full_belief(self):
        net = CausalNetwork(
            attack_id="a1",
            intentions=(Intention("i1", "only goal"),),
            evidence_ids=("ev1", "ev2"),
            priors={"i1": 1.0},
            likelihoods={"ev1": {"i1": 0.7}, "ev2": {"i1": 0.2}},
        )
        report = analyze_attack(make_attack(["ev1", "ev2"], detection_state=0.8), net)
        assert report.per_intention == {"i1": (1.0, 1.0)}
        assert report.mass.masses == {frozenset({"i1"}): 1.0}

    def test_network_must_cover_all_evidence(self):
        with pytest.raises(UnknownEvidence):
            analyze_attack(make_attack(["ev1", "ghost"]), two_intention_network())

    @given(network_st(), st.data())
    @settings(max_examples=60)
    def test_evidence_order_irrelevant(self, net, data):
        evidence_ids = list(net.evidence_ids)
        attack = make_attack(evidence_ids)
        base = analyze_attack(attack, net, [Hypothesis("h", 0.9)])
        shuffled_ids = data.draw(st.permutations(evidence_ids))
        shuffled = analyze_attack(
            make_attack(shuffled_ids), net, [Hypothesis("h", 0.9)]
        )
        assert shuffled.selected == base.selected
        for iid, (bel, pl) in base.per_intention.items():
            got_bel, got_pl = shuffled.per_intention[iid]
            assert got_bel == pytest.approx(bel, abs=1e-9)
            assert got_pl == pytest.approx(pl, abs=1e-9)

    @given(network_st())
    @settings(max_examples=60)
    def test_intention_relabeling_invariance(self, net):
        attack = make_attack(list(net.evidence_ids))
        base = analyze_attack(attack, net, [Hypothesis("h", 0.9)])
        mapping = {iid: f"z{iid}" for iid in net.intention_ids()}
        relabeled = CausalNetwork(
            attack_id=net.attack_id,
            intentions=tuple(
                Intention(mapping[it.id], it.label) for it in net.intentions
            ),
            evidence_ids=net.evidence_ids,
            priors={mapping[i]: p for i, p in net.priors.items()},
            likelihoods={
                ev: {mapping[i]: p for i, p in row.items()}
                for ev, row in net.likelihoods.items()
            },
        )
        got = analyze_attack(attack, relabeled, [Hypothesis("h", 0.9)])
        # Same belief assignment under the renamed ids; tie-breaks may
        # legitimately pick a different member of a tied set.
        for iid, (bel, pl) in base.per_intention.items():
            got_bel, got_pl = got.per_intention[mapping[iid]]
            assert got_bel == pytest.approx(bel, abs=1e-9)
            assert got_pl == pytest.approx(pl, abs=1e-9)
        base_best = base.per_intention[base.selected][0]
        assert got.per_intention[got.selected][0] == pytest.approx(base_best, abs=1e-9)


def assert_matches_exact_fusion(net: CausalNetwork) -> None:
    """analyze_attack at accuracy 0.8 within 1e-12 of exact rational fusion."""
    report = analyze_attack(make_attack(net.evidence_ids, detection_state=0.8), net)
    for iid, (bel, pl) in exact_fusion(net, net.evidence_ids, 0.8).items():
        got_bel, got_pl = report.per_intention[iid]
        assert abs(got_bel - bel) <= 1e-12, (iid, got_bel, float(bel))
        assert abs(got_pl - pl) <= 1e-12, (iid, got_pl, float(pl))


class TestFusionMatchesExactOracle:
    """Many evidence items: dividing by 1 - K instead of the mass kept let
    rounding error compound until a valid network failed validation."""

    def test_seeded_networks(self):
        rng = random.Random(20240505)
        for _ in range(300):
            assert_matches_exact_fusion(
                random_network(rng, intentions=(3, 6), evidence=(10, 30))
            )

    def test_two_hundred_evidence_items(self):
        net = random_network(random.Random(0), intentions=(4, 4), evidence=(200, 200))
        assert len(net.evidence_ids) == 200
        assert_matches_exact_fusion(net)


def replace_frame(m: MassFunction, frame) -> MassFunction:
    """Rebuild a generated mass function onto the target frame.

    Keeps the hypothesis strategies independent while letting pairwise
    operations share one frame: focal subsets are mapped positionally.
    """
    source = sorted(m.frame)
    target = sorted(frame)
    if len(source) > len(target):
        source = source[: len(target)]
    mapping = dict(zip(source, target))
    masses: dict[frozenset, float] = {}
    theta = frozenset(target)
    for subset, value in m.masses.items():
        mapped = frozenset(mapping[x] for x in subset if x in mapping)
        key = mapped if mapped else theta
        masses[key] = masses.get(key, 0.0) + value
    return MassFunction(frame=tuple(target), masses=masses)


def test_posterior_of_an_unknown_intention():
    with pytest.raises(ValidationFailure, match="'ghost' not in network"):
        posterior(two_intention_network(), "ghost", "ev1")


def test_analyze_attack_refuses_an_attack_without_evidence():
    attack = Attack(id="a1", name="a1", detection_state=0.9, evidence=())
    with pytest.raises(ValidationFailure, match="attack 'a1' has no evidence"):
        analyze_attack(attack, two_intention_network())


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def estimator_input_st(draw):
    """(attack, network, hypotheses) over a seeded network that passes
    validate_network: 1-6 intentions, 1-60 evidence items, zero priors and
    likelihoods, an attack over a shuffled subset of its evidence, and
    wildcard, per-intention or no explicit hypotheses."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_int, n_ev = draw(st.integers(1, 6)), draw(st.integers(1, 60))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    ids = [f"i{k}" for k in range(1, n_int + 1)]
    evidence_ids = tuple(f"ev{k}" for k in range(1, n_ev + 1))

    def draw_p(low):
        r = rng.random()
        return 0.0 if r < zeros else 1.0 if r < zeros + 0.1 else rng.uniform(low, 1.0)

    raw_priors = [draw_p(0.05) for _ in ids]
    if not any(raw_priors):
        raw_priors[rng.randrange(n_int)] = 1.0
    total = sum(raw_priors)
    network = CausalNetwork(
        attack_id="attack-x",
        intentions=tuple(Intention(iid, f"goal {iid}") for iid in ids),
        evidence_ids=evidence_ids,
        priors={iid: p / total for iid, p in zip(ids, raw_priors)},
        likelihoods={ev: {iid: draw_p(0.0) for iid in ids} for ev in evidence_ids},
    )
    assert validate_network(network) == []
    detection_state = draw(st.sampled_from([0.0, 1.0, rng.random()]))
    attack = make_attack(rng.sample(evidence_ids, rng.randint(1, n_ev)), detection_state)
    accuracy = st.sampled_from([0.0, 1.0, rng.random(), rng.random(), 1.5, -0.5])
    kind = draw(st.sampled_from(["none", "wildcard", "per-intention", "per-intention only"]))
    if kind == "none":
        return attack, network, None
    hypotheses = [
        Hypothesis(f"h{iid}", draw(accuracy), applies_to=iid)
        for iid in rng.sample(ids, rng.randint(0, n_int))
    ] if kind.startswith("per-intention") else []
    if kind != "per-intention only":
        hypotheses.insert(rng.randint(0, len(hypotheses)), Hypothesis("h", draw(accuracy)))
    return attack, network, hypotheses


class TestMatchesTheReferenceEstimator:
    """analyze_attack returns a report == the frozen per-evidence dict
    fusion's (tests/oracles.py::reference_analyze), or raises the same
    exception type with the same message."""

    @given(estimator_input_st())
    @settings(max_examples=300, deadline=None)
    def test_seeded_networks(self, drawn):
        attack, network, hypotheses = drawn
        got = outcome(lambda: analyze_attack(attack, network, hypotheses))
        assert got == outcome(lambda: reference_analyze(attack, network, hypotheses))

    @pytest.mark.parametrize(
        "evidence, likelihoods, priors, hypotheses, error, message",
        [
            # ev2 has a likelihood row but is not one of the network's evidence ids.
            (["ev1", "ev2"], {"ev2": {"i1": 0.5, "i2": 0.5}}, None, None,
             UnknownEvidence, "evidence 'ev2' not in network"),
            (["ev1", "ev3"], {"ev3": {"i1": 0.5}}, None, None,
             ValidationFailure, "likelihoods['ev3'] has no entry for intention 'i2'"),
            (["ev1", "ev3"], None, {"i1": 1.0}, None, KeyError, "'i2'"),
            (["ev1", "ev3"], {"ev3": {"i1": 0.0, "i2": 0.0}}, None, None,
             ZeroMarginal, "evidence 'ev3' impossible under every intention"),
            (["ev1", "ev3"], {"ev1": {"i1": 1.0, "i2": 0.0}, "ev3": {"i1": 0.0, "i2": 1.0}},
             None, None, TotalConflict, "total conflict between sources (K=1.0)"),
            (["ev1"], None, None, [Hypothesis("h", 0.9, applies_to="i1")],
             NoHypothesis, "no hypothesis applies to intention 'i2'"),
            (["ev1"], None, None, [], NoHypothesis, "at least one hypothesis required"),
            # The first failing item raises, whichever failure follows it.
            (["ev1", "ghost", "ev3"], {"ev3": {"i1": 0.5}}, None, None,
             UnknownEvidence, "evidence 'ghost' not in network"),
            (["ev1", "ev3", "ghost"], {"ev3": {"i1": 0.5}}, None, None,
             ValidationFailure, "likelihoods['ev3'] has no entry for intention 'i2'"),
            (["ev1", "ev3"], {"ev3": {"i1": 0.0, "i2": 0.0}}, None, [Hypothesis("h", 1.5)],
             ValidationFailure, "masses sum to 1.5, expected 1"),
        ],
    )
    def test_errors(self, evidence, likelihoods, priors, hypotheses, error, message):
        net = two_intention_network()
        rows = {"ev3": {"i1": 0.3, "i2": 0.6}, **net.likelihoods, **(likelihoods or {})}
        net = replace(
            net,
            evidence_ids=("ev1", "ev3"),
            likelihoods=rows,
            priors=net.priors if priors is None else priors,
        )
        attack = make_attack(evidence)
        got = outcome(lambda: analyze_attack(attack, net, hypotheses))
        assert got == (error, message)
        assert got == outcome(lambda: reference_analyze(attack, net, hypotheses))


def test_a_frame_with_a_repeated_intention_id_is_refused():
    """validate_network refuses such a network; the estimator's mass
    function refuses its frame rather than fuse over a collapsed one."""
    net = replace(two_intention_network(), intentions=(
        Intention("i1", "first goal"), Intention("i2", "second goal"), Intention("i1", "again")
    ))
    with pytest.raises(ValidationFailure, match="frame must be a non-empty set of unique ids"):
        analyze_attack(make_attack(["ev1"]), net)


class CountingIds(tuple):
    """A tuple of evidence ids that counts membership tests and iterations."""

    calls = 0

    def __contains__(self, item):
        self.calls += 1
        return super().__contains__(item)

    def __iter__(self):
        self.calls += 1
        return super().__iter__()


def evidence_id_reads(n_evidence: int) -> int:
    """Membership tests and iterations of the network's evidence ids that
    one analyze_attack call over `n_evidence` items makes."""
    net = random_network(random.Random(n_evidence), intentions=(4, 4), evidence=(n_evidence,) * 2)
    attack = make_attack(net.evidence_ids)
    ids = CountingIds(net.evidence_ids)
    report = analyze_attack(attack, replace(net, evidence_ids=ids))
    assert report == reference_analyze(attack, net)
    return ids.calls


def test_the_estimator_reads_the_evidence_ids_a_constant_number_of_times():
    """The evidence ids are read once a call, not scanned once per item."""
    assert evidence_id_reads(5) == evidence_id_reads(50)
