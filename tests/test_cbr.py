"""Similarity, retrieval, and the retrieve/reuse/revise/retain cycle."""

import gc
import math
import random
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_pair_st, case_st, random_case, settle
from intent_cbr import cbr
from intent_cbr import fixtures as demo
from intent_cbr import summary
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
from oracles import flat_visits, greedy_alignment, refined_bound, resum_similarity

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


@st.composite
def crowded_pair_st(draw):
    """A query and a precedent of up to 8 items each, mostly of two kinds,
    whose attribute sets come from four (one empty), so that most pairs
    share a kind and many similarities are equal. Ids are shuffled, so the
    tie-break's id order is not the items' order."""
    attribute_sets = [{}, {"tool": "x"}, {"port": "80"}, {"tool": "x", "port": "80"}]
    kinds = [TOOL, TOOL, OTHER, OTHER, EvidenceKind.PORT_EXPLOIT]

    def items(prefix, least):
        n = draw(st.integers(least, 8))
        ids = draw(st.permutations([f"{prefix}{i}" for i in range(n)]))
        return [
            ev(i, kind=draw(st.sampled_from(kinds)), attrs=dict(draw(st.sampled_from(attribute_sets))))
            for i in ids
        ]

    query = case_of("new", items("e", 0), status=CaseStatus.PROPOSED)
    evidence = items("e", 1)
    raws = [draw(st.integers(1, 3)) for _ in evidence]
    precedent = case_of("old", evidence, {e.id: w / sum(raws) for e, w in zip(evidence, raws)})
    return query, precedent


@settings(max_examples=300, deadline=None)
@given(st.one_of(crowded_pair_st(), case_pair_st()))
def test_alignment_is_the_greedy_oracle(pair):
    new, old = pair
    alignment = align_evidence(new, old)
    assert alignment == greedy_alignment(new, old)
    assert similarity(new, old).score == pytest.approx(
        resum_similarity(new, old, alignment), abs=1e-12
    )


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

    def test_a_lone_pair_of_weight_negative_zero_scores_positive_zero(self):
        # A -0.0 weight passes the weight check; fsum of one -0.0 term is 0.0.
        new = case_of("new", [ev("n1", kind=OTHER)])
        old = case_of("old", [ev("p1"), ev("p2", kind=OTHER)], weights={"p1": 1.0, "p2": -0.0})
        result = similarity(new, old)
        assert [p_id for _, p_id, _ in result.alignment] == ["p2"]
        assert math.copysign(1.0, result.score) == 1.0

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
    """A query and precedents with clones (ties, up to 12 long at one
    score), no-shared-kind cases and a precedent without an intention."""
    query = draw(case_st("new", status=CaseStatus.PROPOSED))
    precedents = [draw(case_st(f"p{i}")) for i in range(draw(st.integers(1, 8)))]
    for n, j in enumerate(draw(st.lists(st.integers(0, len(precedents) - 1), max_size=3))):
        precedents.append(replace(precedents[j], case_id=f"p{j}-clone{n}"))
    j = draw(st.integers(0, len(precedents) - 1))
    for n in range(draw(st.integers(0, 12))):
        precedents.append(replace(precedents[j], case_id=f"p{j}-twin{n:02d}"))
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

    @settings(max_examples=25, deadline=None)
    @given(retrieval_st())
    def test_top_k_of_a_stored_repository_is_the_head_of_the_full_ranking(self, drawn):
        query, listed = drawn
        with tempfile.TemporaryDirectory() as tmp:
            repository = Repository.open(Path(tmp) / "repo")
            for case in listed.cases:
                # A stored precedent carries an intention.
                repository.add_case(replace(case, intention=Intention("int-x", "goal")))
            _top_k_is_the_head_of_the_full_ranking(query, repository)

    @settings(max_examples=200, deadline=None)
    @given(case_pair_st(), st.integers(0, 6))
    def test_bound_is_never_below_the_score(self, pair, keep):
        # The query's first `keep` items: of no kind, one kind or several.
        new, old = pair
        new = replace(new, attack=replace(new.attack, evidence=new.attack.evidence[:keep]))
        [bound] = summary.bounds(new)([summary.bound_row(old)])
        assert bound >= similarity(new, old).score

    @settings(max_examples=100, deadline=None)
    @given(retrieval_st(), st.randoms(use_true_random=False))
    def test_refined_bound_lies_between_the_score_and_the_bound(self, drawn, rng):
        query, listed = drawn
        refined = summary.refiner(query)
        bound = summary.bounds(query)
        extra = [random_case(rng, f"r{i}") for i in range(8)]
        for precedent in [*listed.cases, *extra]:
            [kind_total] = bound([summary.bound_row(precedent)])
            value = refined(precedent)
            assert similarity(query, precedent).score <= value <= kind_total
            assert value == refined_bound(query, precedent)

    @pytest.mark.parametrize(
        "precedent_evidence, expected",
        [
            # An attribute mismatch: b2 aligns with nothing but is bounded
            # by its best, 0.5, where the kind total counts it whole.
            (
                [("b1", TOOL, {"tool": "x"}, 0.5), ("b2", TOOL, {"tool": "y"}, 0.5)],
                (0.5, 0.75, 1.0),
            ),
            # A single exact match of weight 0.25: every bound is its score.
            ([("b1", TOOL, {"tool": "x"}, 0.25), ("b2", OTHER, {}, 0.75)], (0.25, 0.25, 0.25)),
        ],
        ids=["attribute-mismatch", "single-exact-match"],
    )
    def test_refined_bound_of_a_hand_built_precedent(self, precedent_evidence, expected):
        query = case_of("new", [ev("q1", attrs={"tool": "x"})], status=CaseStatus.PROPOSED)
        precedent = case_of(
            "p",
            [ev(ev_id, kind=kind, attrs=attrs) for ev_id, kind, attrs, _ in precedent_evidence],
            {ev_id: weight for ev_id, _, _, weight in precedent_evidence},
        )
        [kind_total] = summary.bounds(query)([summary.bound_row(precedent)])
        refined = summary.refiner(query)(precedent)
        assert (similarity(query, precedent).score, refined, kind_total) == expected

    def test_a_small_top_k_refines_no_bound(self, demo_repo, keylogging_case, monkeypatch):
        # The 11 paper precedents: the first five scores already rule out
        # every other precedent by its row's bound, so no refiner is built.
        full = retrieve(keylogging_case, demo_repo, k=None).entries
        scored = []
        monkeypatch.setattr(
            cbr, "similarity", lambda new, old: scored.append(old.case_id) or similarity(new, old)
        )
        monkeypatch.setattr(summary, "refiner", lambda new: pytest.fail("a bound was refined"))
        for repository in (demo_repo, Repository.attach(demo_repo.root)):
            del scored[:]
            assert retrieve(keylogging_case, repository, k=5).entries == full[:5]
            assert len(scored) == 5

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
        assert list(summary.bounds(query)([summary.bound_row(precedent)])) == [expected]

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

    def test_clones_of_the_query_score_only_k(self, tmp_path, monkeypatch):
        # Each clone scores its bound, 1.0, so the k-th key (-1.0, "c02")
        # sorts before every later clone's (-1.0, case id).
        evidence = [ev("q1", attrs={"tool": "x"}), ev("q2", kind=OTHER, attrs={"port": "80"})]
        query = case_of("new", evidence, status=CaseStatus.PROPOSED)
        clones = [case_of(f"c{i:02d}", evidence, {"q1": 0.25, "q2": 0.75}) for i in range(40)]
        root = tmp_path / "repo"
        writer = Repository.attach(root)
        for clone in clones:
            writer.add_case(clone)
        settle(root)
        summarizer = Repository.attach(root)
        retrieve(query, summarizer, k=3)
        summarizer._write_summary()
        listed = ListRepository(clones)
        head = retrieve(query, listed, k=None).entries[:3]
        assert [e.score for e in head] == [1.0] * 3
        scored = []
        monkeypatch.setattr(
            cbr, "similarity", lambda new, old: scored.append(old.case_id) or similarity(new, old)
        )
        attached = Repository.attach(root)
        for repository in (listed, Repository.open(root), attached):
            del scored[:]
            assert retrieve(query, repository, k=3).entries == head
            assert scored == ["c00", "c01", "c02"]
        assert attached._cases is None  # ranked from the summary, no scan

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
    """For a Repository, also on handles that have not scanned, each with
    the summary that the one before it wrote."""
    full = retrieve(query, repository, k=None).entries
    for k in range(1, len(full) + 1):
        assert retrieve(query, repository, k=k).entries == full[:k]
    if isinstance(repository, Repository):
        settle(repository.root)
        for k in range(1, len(full) + 1):
            attached = Repository.attach(repository.root)
            assert retrieve(query, attached, k=k).entries == full[:k]
            attached._write_summary()
        assert (repository.root / "summary.json").is_file()
    return full


def _kept_rows(repository):
    """The bound rows a scanned handle keeps in its kind-set groups, by case id."""
    return {row[0]: row for _, rows in repository._groups.values() for row in rows}


def _kind_set(row):
    """The columns of a bound row's positive totals."""
    return tuple(column for column in range(1, len(row)) if row[column] > 0.0)


@st.composite
def write_sequence_st(draw):
    """A query of one or two kinds and a sequence of case writes, each
    ("add", precedent) or ("retain", case): the case stored in flight, then
    as retained. Ids sort before and after those already stored. A
    precedent draws its kinds from the query's and two others, so that kind
    sets repeat; or shares no kind with the query; or holds an item of
    weight 0.0 whose kind has no other item; or copies an earlier one with
    its evidence of other kinds moved to another kind, for the same score
    from another kind set."""
    kinds = draw(st.lists(st.sampled_from(list(EvidenceKind)), min_size=1, max_size=2, unique=True))
    others = [kind for kind in EvidenceKind if kind not in kinds]

    def kinded(case, choices):
        evidence = tuple(replace(e, kind=draw(st.sampled_from(choices))) for e in case.attack.evidence)
        return replace(case, attack=replace(case.attack, evidence=evidence))

    query = kinded(draw(case_st("new", status=CaseStatus.PROPOSED)), kinds)
    writes = []
    for i in range(draw(st.integers(1, 16))):
        case_id = f"{draw(st.sampled_from('amz'))}{i:02d}"
        shape = draw(st.sampled_from(["drawn", "stranger", "zero", "moved"]))
        case = draw(case_st(case_id))
        if shape == "drawn":
            case = kinded(case, kinds + others[:2])
        elif shape == "stranger":
            case = kinded(case, others)
        elif shape == "zero" and len(case.attack.evidence) > 1:
            zero, *rest = case.attack.evidence
            zero = replace(zero, kind=draw(st.sampled_from(kinds)))
            rest = [replace(e, kind=others[0]) if e.kind == zero.kind else e for e in rest]
            total = math.fsum(case.evidence_weights[e.id] for e in rest)
            weights = {zero.id: 0.0, **{e.id: case.evidence_weights[e.id] / total for e in rest}}
            case = replace(
                case,
                attack=replace(case.attack, evidence=(zero, *rest)),
                evidence_weights=weights,
            )
        elif shape == "moved" and writes:
            original = draw(st.sampled_from([case for _, case in writes]))
            moved = others[draw(st.integers(0, len(others) - 1))]
            evidence = tuple(
                e if e.kind in kinds else replace(e, kind=moved) for e in original.attack.evidence
            )
            case = replace(original, case_id=case_id, attack=replace(original.attack, evidence=evidence))
        writes.append((draw(st.sampled_from(["add", "retain"])), case))
    return query, writes, draw(st.integers(0, len(writes)))


@settings(max_examples=60, deadline=None)
@given(write_sequence_st())
def test_every_handle_kind_visits_as_the_flat_loop_through_the_writes(drawn):
    """After each write through a Repository.open handle, each top k on it,
    on a fresh attach-only handle on its root and on a list of its
    precedents is the head of the full ranking, and loads and scores
    exactly the precedents the flat two-stage loop does, in its order. A
    precedent is loaded where it is first refined or scored."""
    query, writes, before_open = drawn

    def write(repository, op, case):
        if op == "add":
            repository.add_case(case)
        else:
            in_flight = replace(case, status=CaseStatus.REVISED_ACCEPTED)
            repository.add_case(in_flight)
            check(repository)
            retain(in_flight, repository)

    def check(repository):
        precedents = repository.list_cases(status=CONFIRMED_STATUSES)
        if not precedents:
            return
        full = retrieve(query, repository, k=None).entries
        handles = (repository, Repository.attach(repository.root), ListRepository(precedents))
        for k in range(1, len(precedents) + 2):
            loaded, scored = flat_visits(precedents, bound, refine, score, k)
            for handle in handles:
                del events[:]
                assert retrieve(query, handle, k=k).entries == full[:k]
                assert list(dict.fromkeys(case_id for _, case_id in events)) == loaded
                assert [case_id for call, case_id in events if call == "score"] == scored
        assert handles[1]._cases is None  # ranked from the case files, no scan

    def bound(precedent):
        [value] = summary.bounds(query)([summary.bound_row(precedent)])
        return value

    def refine(precedent):
        return refined_bound(query, precedent)

    def score(precedent):
        return similarity(query, precedent).score

    def refiner(new_case):
        refined = summary_refiner(new_case)
        return lambda old: events.append(("refine", old.case_id)) or refined(old)

    def scoring(new_case, precedent):
        events.append(("score", precedent.case_id))
        return similarity(new_case, precedent)

    events = []  # ("refine" | "score", case id), in call order
    summary_refiner = summary.refiner
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cbr, "similarity", scoring)
        patch.setattr(summary, "refiner", refiner)
        root = Path(tmp) / "repo"
        for op, case in writes[:before_open]:
            write(Repository.attach(root), op, case)
        repository = Repository.open(root)
        check(repository)
        for op, case in writes[before_open:]:
            write(repository, op, case)
            check(repository)


class TestBoundRows:
    """A Repository handle keeps one bound row per confirmed precedent, in
    kind-set groups; any other handle's rows are built on each call."""

    def test_a_handles_groups_are_a_fresh_grouping_of_its_rows(self, tmp_path):
        rng = random.Random(30)
        root = tmp_path / "repo"
        repository = Repository.open(root)
        for i in range(20):
            repository.add_case(random_case(rng, f"m{i:02d}"))
        query = replace(random_case(rng, "q"), case_id="query", status=CaseStatus.PROPOSED)
        retrieve(query, repository, k=3)  # the first top-k call groups the rows
        for i in range(40):
            case = random_case(rng, f"{rng.choice('az')}{i:02d}")
            if i % 3:
                repository.add_case(case)
            else:
                in_flight = replace(case, status=CaseStatus.REVISED_ACCEPTED)
                repository.add_case(in_flight)
                retain(in_flight, repository)
        fresh = {}
        for case in Repository.open(root).list_cases(status=CONFIRMED_STATUSES):
            row = summary.bound_row(case)
            fresh.setdefault(_kind_set(row), []).append(row)
        groups = repository._groups
        assert {kinds: sorted(rows) for kinds, (_, rows) in groups.items()} == {
            kinds: sorted(rows) for kinds, rows in fresh.items()
        }
        for head, rows in groups.values():
            assert head[0] == "" and len(head) == 1 + len(EvidenceKind)
            for row in rows:
                assert all(head[column] >= row[column] for column in range(1, len(row)))

    def test_a_precedent_replaced_behind_the_scan_leaves_its_group(self, tmp_path):
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        repository = Repository.open(tmp_path / "repo")
        for case_id in "abc":
            repository.add_case(case_of(case_id, [ev(f"{case_id}1")], {f"{case_id}1": 1.0}))
        assert [e.precedent_case_id for e in retrieve(query, repository, k=2).entries] == ["a", "b"]
        (tmp_path / "repo" / "cases" / "a.json").unlink()
        repository.add_case(case_of("a", [ev("a1")], {"a1": 1.0}, status=CaseStatus.PROPOSED))
        full = retrieve(query, repository, k=None).entries
        assert [e.precedent_case_id for e in full] == ["b", "c"]
        assert retrieve(query, repository, k=2).entries == full

    def test_a_one_kind_query_bounds_fewer_rows_than_the_handle_holds(self, tmp_path, monkeypatch):
        rng = random.Random(31)
        repository = Repository.open(tmp_path / "repo")
        for i in range(120):
            kinds = rng.sample(list(EvidenceKind), rng.randint(1, 2))
            evidence = [ev(f"p{i}-{j}", kind=kind) for j, kind in enumerate(kinds)]
            weights = {e.id: 1 / len(evidence) for e in evidence}
            repository.add_case(case_of(f"p{i:03d}", evidence, weights))
        query = case_of("new", [ev("q1")], status=CaseStatus.PROPOSED)
        full = retrieve(query, repository, k=None).entries
        bounded = []
        bounds = summary.bounds

        def counting(new_case):
            bound = bounds(new_case)
            return lambda rows: bounded.extend(rows) or bound(rows)

        monkeypatch.setattr(summary, "bounds", counting)
        assert retrieve(query, repository, k=5).entries == full[:5]
        assert len(repository._groups) > 20
        assert len(bounded) < len(_kept_rows(repository)) == 120

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
            retained = retain(twin, repository)
            full = _top_k_is_the_head_of_the_full_ranking(query, repository)
            assert full[0].precedent_case_id == "a0"
            assert _kept_rows(repository)[f"a{i}"] == summary.bound_row(retained)

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
        assert list(_kept_rows(repository)) == ["a"]
        handle = weakref.ref(repository)
        del repository
        gc.collect()
        assert handle() is None

    def test_a_handle_need_be_neither_hashable_nor_weakly_referenceable(self):
        class Handle:
            __slots__ = ("cases",)
            __hash__ = None
            list_cases = ListRepository.list_cases

        rng = random.Random(27)
        handle = Handle()
        handle.cases = [random_case(rng, f"p{i}") for i in range(8)]
        with pytest.raises(TypeError):
            hash(handle)
        with pytest.raises(TypeError):
            weakref.ref(handle)
        query = replace(random_case(rng, "q"), status=CaseStatus.PROPOSED)
        assert _top_k_is_the_head_of_the_full_ranking(query, handle) == (
            retrieve(query, ListRepository(handle.cases), k=None).entries
        )

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
        [bound] = summary.bounds(case_of("new", [ev("q1")]))([summary.bound_row(precedent)])
        assert Fraction(bound) >= Fraction(1) + Fraction(2.0**-53)
        assert bound == math.nextafter(1.0, 2.0)

    def test_row_layout(self):
        weights = {"t1": 0.25, "t2": 0.5, "o1": 0.25}
        precedent = case_of("p", [ev("t1"), ev("o1", kind=OTHER), ev("t2")], weights)
        row = summary.bound_row(precedent)
        assert row[0] == "p"
        assert len(row) == 1 + len(EvidenceKind)
        assert row[summary._COLUMN[TOOL]] == 0.75
        # A kind with one item holds that very weight object.
        assert row[summary._COLUMN[OTHER]] is weights["o1"]
        assert [row[summary._COLUMN[k]] for k in EvidenceKind if k not in (TOOL, OTHER)] == [0.0] * 7

    @settings(max_examples=200, deadline=None)
    @given(case_st("p"))
    def test_each_total_is_the_least_float_not_below_its_exact_sum(self, precedent):
        row = summary.bound_row(precedent)
        for kind, column in summary._COLUMN.items():
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
