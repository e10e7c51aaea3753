"""Intention estimation over a causal network.

Each evidence item yields Bayesian posteriors over the candidate
intentions; the posteriors become a mass function discounted by the
applicable hypothesis accuracy (residual mass on the full frame); the
per-evidence mass functions are fused with Dempster's rule; the
intention with the highest resulting belief wins, ties going to the
lexicographically smallest id.

The per-evidence masses sit on singletons and the full frame Θ only,
a shape Dempster's rule keeps, so :func:`analyze_attack` fuses them in
closed form and renormalizes by the mass actually kept at every step
(Barnett 1981); it agrees with exact rational fusion to rounding.
:func:`combine` stays the general rule over any focal sets. A call reads
the network's evidence ids into a set and resolves the frame's
intention ids and accuracies once, then runs each of its n items in
O(|Θ|). Bayes' rule and discounting each have one implementation, on
lists in frame order.

All sums use ``math.fsum`` so results are independent of iteration
order; :func:`combine`, :func:`belief` and :func:`plausibility` agree
bit-for-bit with dense enumeration oracles.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

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
    SUM_TOLERANCE,
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
    intention_ids = network.intention_ids()
    return math.fsum(_joint(network, evidence_id, network.evidence_ids, intention_ids))


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
    intention_ids = network.intention_ids()
    joint = _joint(network, evidence_id, network.evidence_ids, intention_ids)
    return dict(zip(intention_ids, _posteriors(evidence_id, joint)))


def build_mass_function(
    posteriors: dict[str, float], hypothesis: Hypothesis
) -> MassFunction:
    """Normalized posteriors on singletons, discounted by one hypothesis.

    m({i}) = accuracy * posterior(i) / sum(posteriors); the residual
    1 - accuracy expresses ignorance and sits on the full frame.
    """
    ids, values = list(posteriors), list(posteriors.values())
    accuracies = [hypothesis.accuracy] * len(ids)
    return _mass_function(ids, *_discounted(ids, values, accuracies))


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
    # What every step shares, looked up once.
    known = frozenset(network.evidence_ids)
    intention_ids = network.intention_ids()
    accuracies = _resolve_accuracies(intention_ids, hypotheses)

    # Running fusion, starting from the vacuous mass function: m(i) for
    # each singleton {i} plus m(theta), in frame order. A new source s keeps
    # m(i)·(s(i) + s(theta)) + m(theta)·s(i) on {i} and m(theta)·s(theta)
    # on theta; every other product is conflict.
    fused = [0.0] * len(intention_ids)
    fused_theta = 1.0
    for ev in attack.evidence:
        joint = _joint(network, ev.id, known, intention_ids)
        source, source_theta = _discounted(
            intention_ids, _posteriors(ev.id, joint), accuracies
        )
        fused = [
            m * (s + source_theta) + fused_theta * s for m, s in zip(fused, source)
        ]
        fused_theta *= source_theta
        # Divide by the mass kept, not by 1 - K: rounding then cannot compound.
        kept = math.fsum([*fused, fused_theta])
        if kept <= CONFLICT_TOLERANCE:
            raise TotalConflict(1.0 - kept)
        fused = [m / kept for m in fused]
        fused_theta /= kept
    combined = _mass_function(intention_ids, fused, fused_theta)

    per_intention = {
        iid: (belief(combined, {iid}), plausibility(combined, {iid}))
        for iid in intention_ids
    }
    selected = min(per_intention, key=lambda iid: (-per_intention[iid][0], iid))
    return BeliefReport(per_intention=per_intention, selected=selected, mass=combined)


# --- internals --------------------------------------------------------------


def _joint(
    network: CausalNetwork,
    evidence_id: str,
    evidence_ids: Iterable[str],
    intention_ids: list[str],
) -> list[float]:
    """P(evidence | i) * P(i) for each of `intention_ids`, in their order."""
    row = network.likelihoods.get(evidence_id)
    if row is None or evidence_id not in evidence_ids:
        raise UnknownEvidence(f"evidence '{evidence_id}' not in network")
    joint = []
    for iid in intention_ids:
        p = row.get(iid)
        if p is None:
            raise ValidationFailure(
                f"likelihoods['{evidence_id}'] has no entry for intention '{iid}'"
            )
        joint.append(p * network.priors[iid])
    return joint


def _posteriors(evidence_id: str, joint: list[float]) -> list[float]:
    """Bayes' rule: each joint probability over their sum, the marginal."""
    marginal = math.fsum(joint)
    if marginal <= 0.0:
        raise ZeroMarginal(
            f"evidence '{evidence_id}' impossible under every intention"
        )
    return [p / marginal for p in joint]


def _resolve_accuracies(
    intention_ids: list[str], hypotheses: Sequence[Hypothesis]
) -> list[float]:
    """Per-intention accuracy in frame order: first exact match, else wildcard."""
    wildcard = next((h for h in hypotheses if h.applies_to == "*"), None)
    accuracies = []
    for iid in intention_ids:
        match = next((h for h in hypotheses if h.applies_to == iid), wildcard)
        if match is None:
            raise NoHypothesis(f"no hypothesis applies to intention '{iid}'")
        accuracies.append(match.accuracy)
    return accuracies


def _discounted(
    intention_ids: list[str], posteriors: list[float], accuracies: list[float]
) -> tuple[list[float], float]:
    """One source's singleton masses, in frame order, and its mass on the full frame.

    m({i}) = accuracy(i) * posterior(i) / sum(posteriors); the rest is
    ignorance on the full frame. Raises what a MassFunction of these
    masses would raise.
    """
    if not posteriors:
        raise EmptyPosteriors("posterior map is empty")
    for iid, p in zip(intention_ids, posteriors):
        if not (0.0 <= p <= 1.0):
            raise ValidationFailure(f"posterior for '{iid}' is {p!r}, outside [0,1]")
    total = math.fsum(posteriors)
    if total <= 0.0:
        raise AllZeroPosteriors("every posterior is zero")
    singletons = [a * (p / total) for a, p in zip(accuracies, posteriors)]
    for iid, m in zip(intention_ids, singletons):
        if m < 0:
            raise ValidationFailure(f"negative mass {m!r} on {[iid]}")
    committed = math.fsum(singletons)
    if committed - 1.0 > SUM_TOLERANCE:
        raise ValidationFailure(f"masses sum to {committed!r}, expected 1")
    # Residual ignorance; clamp the odd -1e-17 float residue to zero.
    return singletons, max(1.0 - committed, 0.0)


def _mass_function(
    intention_ids: list[str], singletons: list[float], theta: float
) -> MassFunction:
    """Singleton masses, in frame order, plus mass on the full frame."""
    frame = tuple(sorted(intention_ids))
    full = frozenset(frame)
    masses = {frozenset({iid}): m for iid, m in zip(intention_ids, singletons)}
    # On a one-intention frame the singleton is the full frame.
    masses[full] = masses.get(full, 0.0) + theta
    return MassFunction(frame=frame, masses=masses)


def _check_subset(m: MassFunction, subset: Iterable[str]) -> frozenset[str]:
    target = frozenset(subset)
    if not target <= frozenset(m.frame):
        raise SubsetOutsideFrame(
            f"{sorted(target)} not inside frame {sorted(m.frame)}"
        )
    return target
