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

from intent_cbr.model import Case, Evidence, MassFunction


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


def flat_visits(precedents, bound, score, k: int) -> list[str]:
    """Case ids of the precedents a top-k retrieval scores, in visit order,
    by the flat loop: every precedent gets its bound, they are visited by
    ascending (-bound, case id), and the loop stops at the first whose key
    sorts after the k-th best (-score, case id) so far."""
    by_id = {p.case_id: p for p in precedents}
    best, visited = [], []
    for key in sorted((-bound(p), p.case_id) for p in precedents):
        if len(best) >= k and key > sorted(best)[k - 1]:
            break
        visited.append(key[1])
        best.append((-score(by_id[key[1]]), key[1]))
    return visited
