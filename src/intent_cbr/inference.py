"""Intention estimation over a causal network.

Each evidence item yields Bayesian posteriors over the candidate
intentions; the posteriors become a mass function discounted by the
applicable hypothesis accuracy (residual mass on the full frame); the
per-evidence mass functions are fused with Dempster's rule; the
intention with the highest resulting belief wins, ties going to the
lexicographically smallest id.

All sums use ``math.fsum`` so results are independent of iteration
order and agree bit-for-bit with dense enumeration oracles.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

from .errors import (
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
from .model import (
    Attack,
    BeliefReport,
    CausalNetwork,
    Hypothesis,
    MassFunction,
)

# 1 - K below this means the sources fully contradict each other.
CONFLICT_TOLERANCE = 1e-12


def evidence_marginal(network: CausalNetwork, evidence_id: str) -> float:
    """P(evidence) by total probability over the intention partition."""
    row = network.likelihoods.get(evidence_id)
    if row is None or evidence_id not in network.evidence_ids:
        raise UnknownEvidence(f"evidence '{evidence_id}' not in network")
    return math.fsum(
        _likelihood(row, iid, evidence_id) * network.priors[iid]
        for iid in network.intention_ids()
    )


def posterior(network: CausalNetwork, intention_id: str, evidence_id: str) -> float:
    """P(intention | evidence): one entry of :func:`posteriors_for_evidence`."""
    posteriors = posteriors_for_evidence(network, evidence_id)
    if intention_id not in posteriors:
        raise ValidationFailure(f"intention '{intention_id}' not in network")
    return posteriors[intention_id]


def posteriors_for_evidence(
    network: CausalNetwork, evidence_id: str
) -> dict[str, float]:
    """Posterior for every intention given one evidence item."""
    marginal = evidence_marginal(network, evidence_id)
    if marginal <= 0.0:
        raise ZeroMarginal(
            f"evidence '{evidence_id}' impossible under every intention"
        )
    row = network.likelihoods[evidence_id]
    return {
        iid: _likelihood(row, iid, evidence_id) * network.priors[iid] / marginal
        for iid in network.intention_ids()
    }


def build_mass_function(
    posteriors: dict[str, float], hypothesis: Hypothesis
) -> MassFunction:
    """Normalized posteriors on singletons, discounted by one hypothesis.

    m({i}) = accuracy * posterior(i) / sum(posteriors); the residual
    1 - accuracy expresses ignorance and sits on the full frame.
    """
    accuracies = dict.fromkeys(posteriors, hypothesis.accuracy)
    return _discounted_mass(posteriors, accuracies)


def vacuous(frame: Iterable[str]) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    frame = tuple(sorted(set(frame)))
    return MassFunction(frame=frame, masses={frozenset(frame): 1.0})


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule of combination for two independent sources."""
    if frozenset(m1.frame) != frozenset(m2.frame):
        raise FrameMismatch(f"frames differ: {m1.frame} vs {m2.frame}")
    frame = tuple(sorted(set(m1.frame)))
    terms: dict[frozenset[str], list[float]] = defaultdict(list)
    conflict_terms: list[float] = []
    for left, left_mass in m1.masses.items():
        for right, right_mass in m2.masses.items():
            product = left_mass * right_mass
            overlap = left & right
            if overlap:
                terms[overlap].append(product)
            else:
                conflict_terms.append(product)
    conflict = math.fsum(conflict_terms)
    denominator = 1.0 - conflict
    if denominator <= CONFLICT_TOLERANCE:
        raise TotalConflict(conflict)
    masses = {subset: math.fsum(parts) / denominator for subset, parts in terms.items()}
    return MassFunction(frame=frame, masses=masses)


def belief(m: MassFunction, subset: Iterable[str]) -> float:
    """Total mass committed to subsets of `subset` (lower bound)."""
    target = _check_subset(m, subset)
    return math.fsum(v for focal, v in m.masses.items() if focal <= target)


def plausibility(m: MassFunction, subset: Iterable[str]) -> float:
    """Total mass not contradicting `subset` (upper bound)."""
    target = _check_subset(m, subset)
    return math.fsum(v for focal, v in m.masses.items() if focal & target)


def analyze_attack(
    attack: Attack,
    network: CausalNetwork,
    hypotheses: Sequence[Hypothesis] | None = None,
) -> BeliefReport:
    """Full pipeline: per-evidence masses fused into a belief report.

    With ``hypotheses=None`` the attack's detection_state acts as a
    wildcard hypothesis accuracy. An explicitly empty list is an error.
    """
    if not attack.evidence:
        raise ValidationFailure(f"attack '{attack.id}' has no evidence")
    if hypotheses is None:
        hypotheses = [
            Hypothesis(id="detection-state", accuracy=attack.detection_state)
        ]
    if not hypotheses:
        raise NoHypothesis("at least one hypothesis required")
    accuracies = _resolve_accuracies(network.intention_ids(), hypotheses)

    combined: MassFunction | None = None
    for ev in attack.evidence:
        posts = posteriors_for_evidence(network, ev.id)
        mass = _discounted_mass(posts, accuracies)
        combined = mass if combined is None else combine(combined, mass)
    assert combined is not None

    per_intention = {
        iid: (belief(combined, {iid}), plausibility(combined, {iid}))
        for iid in network.intention_ids()
    }
    selected = min(per_intention, key=lambda iid: (-per_intention[iid][0], iid))
    return BeliefReport(per_intention=per_intention, selected=selected, mass=combined)


# --- internals --------------------------------------------------------------


def _likelihood(row: dict[str, float], intention_id: str, evidence_id: str) -> float:
    p = row.get(intention_id)
    if p is None:
        raise ValidationFailure(
            f"likelihoods['{evidence_id}'] has no entry for intention '{intention_id}'"
        )
    return p


def _resolve_accuracies(
    intention_ids: list[str], hypotheses: Sequence[Hypothesis]
) -> dict[str, float]:
    """Per-intention accuracy: first exact match, else first wildcard."""
    wildcard = next((h for h in hypotheses if h.applies_to == "*"), None)
    accuracies: dict[str, float] = {}
    for iid in intention_ids:
        match = next((h for h in hypotheses if h.applies_to == iid), wildcard)
        if match is None:
            raise NoHypothesis(f"no hypothesis applies to intention '{iid}'")
        accuracies[iid] = match.accuracy
    return accuracies


def _discounted_mass(
    posteriors: dict[str, float], accuracies: dict[str, float]
) -> MassFunction:
    if not posteriors:
        raise EmptyPosteriors("posterior map is empty")
    for iid, p in posteriors.items():
        if not (0.0 <= p <= 1.0):
            raise ValidationFailure(f"posterior for '{iid}' is {p!r}, outside [0,1]")
    total = math.fsum(posteriors.values())
    if total <= 0.0:
        raise AllZeroPosteriors("every posterior is zero")
    frame = tuple(sorted(posteriors))
    theta = frozenset(frame)
    masses: dict[frozenset[str], float] = defaultdict(float)
    for iid, p in posteriors.items():
        masses[frozenset({iid})] += accuracies[iid] * (p / total)
    # Residual ignorance; clamp the odd -1e-17 float residue to zero.
    residual = 1.0 - math.fsum(masses.values())
    masses[theta] += max(residual, 0.0)
    return MassFunction(frame=frame, masses=dict(masses))


def _check_subset(m: MassFunction, subset: Iterable[str]) -> frozenset[str]:
    target = frozenset(subset)
    if not target <= frozenset(m.frame):
        raise SubsetOutsideFrame(
            f"{sorted(target)} not inside frame {sorted(m.frame)}"
        )
    return target
