"""Independent brute-force oracles.

These deliberately re-derive results from definitions (dense enumeration
over all 2^|frame| subsets, plain re-summation, exact rational fusion)
rather than calling back into the engine's code paths. Float sums use
math.fsum so comparisons against the engine are exact and
order-independent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from intent_cbr.errors import (
    AllZeroPosteriors,
    EmptyPosteriors,
    NoHypothesis,
    TotalConflict,
    UnknownEvidence,
    ValidationFailure,
    ZeroMarginal,
)
from intent_cbr.model import (
    SUM_TOLERANCE,
    BeliefReport,
    Case,
    Evidence,
    Hypothesis,
    MassFunction,
)


def all_subsets(frame) -> list[frozenset[str]]:
    """Every subset of the frame, the empty set included."""
    return [
        frozenset(combo)
        for r in range(len(frame) + 1)
        for combo in itertools.combinations(sorted(frame), r)
    ]


def dense_combine(m1: MassFunction, m2: MassFunction):
    """Dempster's rule by exhaustive enumeration over all subset pairs.

    Returns (masses over every subset with nonzero result, conflict K).
    """
    subsets = all_subsets(m1.frame)
    per_subset: dict[frozenset[str], list[float]] = {s: [] for s in subsets}
    conflict_terms: list[float] = []
    for b in subsets:
        for c in subsets:
            term = m1.masses.get(b, 0.0) * m2.masses.get(c, 0.0)
            meet = b & c
            if meet:
                per_subset[meet].append(term)
            else:
                conflict_terms.append(term)
    conflict = math.fsum(conflict_terms)
    denominator = 1.0 - conflict
    masses = {}
    for subset, terms in per_subset.items():
        value = math.fsum(terms) / denominator
        if value != 0.0:
            masses[subset] = value
    return masses, conflict


def dense_belief(m: MassFunction, subset) -> float:
    target = frozenset(subset)
    return math.fsum(
        m.masses.get(s, 0.0) for s in all_subsets(m.frame) if s <= target
    )


def dense_plausibility(m: MassFunction, subset) -> float:
    target = frozenset(subset)
    return math.fsum(
        m.masses.get(s, 0.0) for s in all_subsets(m.frame) if s & target
    )


def _attribute_overlap(a: Evidence, b: Evidence) -> float:
    left = {(k, v) for k, v in a.attributes.items()}
    right = {(k, v) for k, v in b.attributes.items()}
    if not left and not right:
        return 1.0
    return len(left & right) / len(left | right)


def greedy_alignment(new_case: Case, precedent: Case) -> tuple[tuple[str, str, float], ...]:
    """The greedy alignment, literally from its definition.

    Every (new item, precedent item) pair gets its local similarity: 0.0
    across kinds, else 0.5 plus 0.5 times the attribute overlap. Pairs
    with a positive similarity are taken by (-sim, new id, precedent id),
    each one kept unless one of its items is already paired.
    """
    candidates = []
    for n_ev in new_case.attack.evidence:
        for p_ev in precedent.attack.evidence:
            if n_ev.kind != p_ev.kind:
                sim = 0.0
            else:
                sim = 0.5 + 0.5 * _attribute_overlap(n_ev, p_ev)
            if sim > 0.0:
                candidates.append((-sim, n_ev.id, p_ev.id))
    candidates.sort()
    paired_new, paired_precedent, alignment = set(), set(), []
    for neg_sim, new_id, precedent_id in candidates:
        if new_id not in paired_new and precedent_id not in paired_precedent:
            paired_new.add(new_id)
            paired_precedent.add(precedent_id)
            alignment.append((new_id, precedent_id, -neg_sim))
    return tuple(alignment)


def resum_similarity(new_case: Case, precedent: Case, alignment) -> float:
    """Plain re-summation of local_sim * precedent weight over an alignment.

    Local similarities are re-derived from the evidence objects, not
    taken from the alignment entries.
    """
    new_by_id = {ev.id: ev for ev in new_case.attack.evidence}
    prec_by_id = {ev.id: ev for ev in precedent.attack.evidence}
    total = 0.0
    for new_id, prec_id, _ in alignment:
        n_ev = new_by_id[new_id]
        p_ev = prec_by_id[prec_id]
        if n_ev.kind != p_ev.kind:
            sim = 0.0
        else:
            sim = 0.5 + 0.5 * _attribute_overlap(n_ev, p_ev)
        total += sim * precedent.evidence_weights.get(prec_id, 0.0)
    return total


def exact_fusion(network, evidence_ids, accuracy) -> dict[str, tuple[Fraction, Fraction]]:
    """(belief, plausibility) of each intention by exact rational arithmetic.

    Every float input is converted exactly to a Fraction. Each evidence
    item's posteriors come from Bayes' rule and are discounted by
    `accuracy`, the rest going to the full frame; the sources are fused
    with Dempster's rule in its general form, every pair of focal sets
    intersected. Dempster's rule is the conjunctive rule plus one
    normalization, and neither step minds a positive factor on a source,
    so each source is kept as integers proportional to its masses (its
    masses times P(evidence) times a common denominator) and the fused
    masses are normalized once, at the end.
    """
    frame = frozenset(it.id for it in network.intentions)
    acc = Fraction(accuracy)
    fused: dict[frozenset[str], int] = {frame: 1}
    for ev_id in evidence_ids:
        row = network.likelihoods[ev_id]
        joint = {
            iid: Fraction(row[iid]) * Fraction(network.priors[iid]) for iid in frame
        }
        source = {frozenset({iid}): acc * p for iid, p in joint.items()}
        source[frame] = source.get(frame, 0) + (1 - acc) * sum(joint.values())
        scale = math.lcm(*(v.denominator for v in source.values()))
        weights = {subset: int(v * scale) for subset, v in source.items()}
        products: dict[frozenset[str], int] = {}
        for left, x in fused.items():
            for right, y in weights.items():
                meet = left & right
                products[meet] = products.get(meet, 0) + x * y
        products.pop(frozenset(), None)
        fused = products
    total = sum(fused.values())
    return {
        iid: (
            Fraction(sum(v for s, v in fused.items() if s <= {iid}), total),
            Fraction(sum(v for s, v in fused.items() if iid in s), total),
        )
        for iid in frame
    }


def refined_bound(new_case: Case, precedent: Case) -> float:
    """The refined bound on the score, literally from its definition: the
    fsum over every precedent item of its best local similarity to any new
    item (0.0 across kinds, and for no new item) times its weight."""
    terms = []
    for p_ev in precedent.attack.evidence:
        sims = [
            0.5 + 0.5 * _attribute_overlap(n_ev, p_ev) if n_ev.kind == p_ev.kind else 0.0
            for n_ev in new_case.attack.evidence
        ]
        terms.append(max(sims, default=0.0) * precedent.evidence_weights.get(p_ev.id, 0.0))
    return math.fsum(terms)


def flat_visits(precedents, bound, refine, score, k: int) -> tuple[list[str], list[str]]:
    """Case ids of the precedents a top-k retrieval loads and of those it
    scores, each in order, by the flat two-stage loop. Every precedent waits
    under (-bound, case id); the loop takes the least key and stops at the
    first that sorts after the k-th best (-score, case id) so far. A
    precedent taken for the first time is loaded; once k are scored, one
    whose refined bound is below its bound waits again under (-refined,
    case id). Any other is scored."""
    by_id = {p.case_id: p for p in precedents}
    waiting = sorted((-bound(p), p.case_id) for p in precedents)
    best, loaded, scored = [], [], []
    while waiting:
        key = waiting.pop(0)
        if len(best) >= k and key > sorted(best)[k - 1]:
            break
        case_id = key[1]
        precedent = by_id[case_id]
        if case_id not in loaded:
            loaded.append(case_id)
            refined = refine(precedent) if len(best) >= k else -key[0]
            if refined < -key[0]:
                waiting = sorted([*waiting, (-refined, case_id)])
                continue
        scored.append(case_id)
        best.append((-score(precedent), case_id))
    return loaded, scored


def reference_analyze(attack, network, hypotheses=None) -> BeliefReport:
    """``inference.analyze_attack`` as it fused before its per-call tables:
    per evidence item, Bayes' rule over the frame-order intention ids into a
    dict, discounting into a dict, and Dempster's rule in closed form on
    dicts; each step looks the evidence up in the network's tuple. Kept
    verbatim, with its checks in their order and its messages, so the
    estimator's reports and errors can be compared bit for bit."""
    if not attack.evidence:
        raise ValidationFailure(f"attack '{attack.id}' has no evidence")
    if hypotheses is None:
        hypotheses = [Hypothesis(id="detection-state", accuracy=attack.detection_state)]
    if not hypotheses:
        raise NoHypothesis("at least one hypothesis required")
    wildcard = next((h for h in hypotheses if h.applies_to == "*"), None)
    accuracies = {}
    for iid in network.intention_ids():
        match = next((h for h in hypotheses if h.applies_to == iid), wildcard)
        if match is None:
            raise NoHypothesis(f"no hypothesis applies to intention '{iid}'")
        accuracies[iid] = match.accuracy
    fused = dict.fromkeys(network.intention_ids(), 0.0)
    fused_theta = 1.0
    for ev in attack.evidence:
        row = network.likelihoods.get(ev.id)
        if row is None or ev.id not in network.evidence_ids:
            raise UnknownEvidence(f"evidence '{ev.id}' not in network")
        intention_ids = network.intention_ids()
        joint = []
        for iid in intention_ids:
            p = row.get(iid)
            if p is None:
                raise ValidationFailure(
                    f"likelihoods['{ev.id}'] has no entry for intention '{iid}'"
                )
            joint.append(p * network.priors[iid])
        marginal = math.fsum(joint)
        if marginal <= 0.0:
            raise ZeroMarginal(f"evidence '{ev.id}' impossible under every intention")
        posteriors = {iid: p / marginal for iid, p in zip(intention_ids, joint)}
        if not posteriors:
            raise EmptyPosteriors("posterior map is empty")
        for iid, p in posteriors.items():
            if not (0.0 <= p <= 1.0):
                raise ValidationFailure(f"posterior for '{iid}' is {p!r}, outside [0,1]")
        total = math.fsum(posteriors.values())
        if total <= 0.0:
            raise AllZeroPosteriors("every posterior is zero")
        source = {iid: accuracies[iid] * (p / total) for iid, p in posteriors.items()}
        for iid, m in source.items():
            if m < 0:
                raise ValidationFailure(f"negative mass {m!r} on {[iid]}")
        committed = math.fsum(source.values())
        if committed - 1.0 > SUM_TOLERANCE:
            raise ValidationFailure(f"masses sum to {committed!r}, expected 1")
        source_theta = max(1.0 - committed, 0.0)
        fused = {
            iid: m * (source[iid] + source_theta) + fused_theta * source[iid]
            for iid, m in fused.items()
        }
        fused_theta *= source_theta
        kept = math.fsum([*fused.values(), fused_theta])
        if kept <= 1e-12:  # inference.CONFLICT_TOLERANCE
            raise TotalConflict(1.0 - kept)
        fused = {iid: m / kept for iid, m in fused.items()}
        fused_theta /= kept
    frame = tuple(sorted(fused))
    full = frozenset(frame)
    masses = {frozenset({iid}): m for iid, m in fused.items()}
    masses[full] = masses.get(full, 0.0) + fused_theta
    combined = MassFunction(frame=frame, masses=masses)
    per_intention = {
        iid: (
            math.fsum(v for s, v in combined.masses.items() if s <= {iid}),
            math.fsum(v for s, v in combined.masses.items() if iid in s),
        )
        for iid in network.intention_ids()
    }
    selected = min(per_intention, key=lambda iid: (-per_intention[iid][0], iid))
    return BeliefReport(per_intention=per_intention, selected=selected, mass=combined)
