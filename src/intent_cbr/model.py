"""Domain model shared by every other module.

Evidence, attacks, candidate intentions, cases moving through the
reasoning life cycle, and the belief-mass structures used by the
intention-inference engine. All types are immutable value objects; a
"mutation" is a copy with the change applied (``dataclasses.replace``),
so instances are safe to share across threads.

Records take their fields as given, with no copy or conversion: a field
typed as a tuple must be passed a tuple. Only ``MassFunction`` and
``BeliefReport`` check what they are built from.

The records built once per stored case or per scored precedent
(``Evidence``, ``Attack``, ``Intention``, ``Case`` and
``SimilarityResult``) are slotted: they have no ``__dict__``, so each is
smaller and quicker to build, which a full scan of the repository repeats
thousands of times. The stored-record decoders build the first four slot
by slot (``serialize._builder``), skipping ``__init__``, so none of them
may gain a ``__post_init__``; ``_builder`` refuses such a class.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import IllegalTransition, ValidationFailure

# Tolerance for "sums to 1" checks on weights, priors and masses.
SUM_TOLERANCE = 1e-9

_ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

# Longest record id: a write's temp file, ``.<id>.json.<16 hex>.tmp``, is
# the id plus 27 bytes, and 255 bytes is the usual file-name limit.
_MAX_ID_LENGTH = 228


class EvidenceKind(str, Enum):
    """Categories of observable attack artifacts."""

    PORT_EXPLOIT = "port-exploit"
    FUNCTION_IMPLEMENTATION = "function-implementation"
    TOOL_USAGE = "tool-usage"
    COMMAND_USAGE = "command-usage"
    REGISTRY_ACCESS = "registry-access"
    ADDRESS_INDICATOR = "address-indicator"
    PROTOCOL_INDICATOR = "protocol-indicator"
    VULNERABILITY_INDICATOR = "vulnerability-indicator"
    OTHER = "other"


class CaseStatus(str, Enum):
    """Life-cycle stages of a case."""

    PRECEDENT = "precedent"
    PROPOSED = "proposed"
    INCIPIENT = "incipient"
    REVISED_ACCEPTED = "revised-accepted"
    REVISED_REJECTED = "revised-rejected"
    RETAINED = "retained"


# Legal life-cycle edges. Rejected cases are terminal; a rejected
# intention re-enters the cycle as a brand new case, never by mutating
# the old record.
_LEGAL_TRANSITIONS: dict[CaseStatus, frozenset[CaseStatus]] = {
    CaseStatus.PRECEDENT: frozenset(),
    CaseStatus.PROPOSED: frozenset({CaseStatus.INCIPIENT}),
    CaseStatus.INCIPIENT: frozenset(
        {CaseStatus.REVISED_ACCEPTED, CaseStatus.REVISED_REJECTED}
    ),
    CaseStatus.REVISED_ACCEPTED: frozenset({CaseStatus.RETAINED}),
    CaseStatus.REVISED_REJECTED: frozenset(),
    CaseStatus.RETAINED: frozenset(),
}

# Statuses eligible for retrieval, i.e. confirmed repository precedents.
CONFIRMED_STATUSES = frozenset({CaseStatus.PRECEDENT, CaseStatus.RETAINED})

# Statuses of cases still moving through the cycle.
IN_FLIGHT_STATUSES = frozenset(
    {CaseStatus.PROPOSED, CaseStatus.INCIPIENT, CaseStatus.REVISED_ACCEPTED}
)


def now_utc() -> str:
    """Current time as an ISO-8601 UTC string (second resolution)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True, slots=True)
class Evidence:
    """One observable artifact of an attack."""

    id: str
    kind: EvidenceKind
    attributes: dict[str, str] = field(default_factory=dict)  # ordered
    description: str = ""
    confidence: float = 1.0  # detection confidence in [0, 1]


@dataclass(frozen=True, slots=True)
class Attack:
    """A detected attack and the evidence collected for it."""

    id: str
    name: str
    detection_state: float  # detection accuracy ratio in [0, 1]
    evidence: tuple[Evidence, ...]

    def evidence_ids(self) -> list[str]:
        return [ev.id for ev in self.evidence]


@dataclass(frozen=True, slots=True)
class Intention:
    """A candidate attacker goal."""

    id: str
    label: str
    category: str | None = None


@dataclass(frozen=True)
class Hypothesis:
    """Reliability of detection/collection, used to discount masses.

    ``applies_to`` is either a specific intention id or ``"*"`` for a
    wildcard that covers every intention without a closer match.
    """

    id: str
    accuracy: float
    applies_to: str = "*"


@dataclass(frozen=True)
class CausalNetwork:
    """Attack, evidence and intention structure with the probabilities.

    ``likelihoods`` is a dense table: one row per evidence id, one entry
    per intention id, holding P(evidence | intention). The complement is
    1 - p, derived on demand and never stored.
    """

    attack_id: str
    intentions: tuple[Intention, ...]
    evidence_ids: tuple[str, ...]
    priors: dict[str, float]  # intention id -> P(intention)
    likelihoods: dict[str, dict[str, float]]  # evidence id -> intention id -> p

    def intention_ids(self) -> list[str]:
        return [it.id for it in self.intentions]

    def find_intention(self, intention_id: str) -> Intention:
        for it in self.intentions:
            if it.id == intention_id:
                return it
        raise ValidationFailure(f"intention '{intention_id}' not in network")


@dataclass(frozen=True, slots=True)
class Case:
    """An attack paired with an (eventual) intention and evidence weights."""

    case_id: str
    attack: Attack
    intention: Intention | None
    evidence_weights: dict[str, float]  # evidence id -> weight
    status: CaseStatus
    provenance: str = "analyst"
    created_at: str = field(default_factory=now_utc)


@dataclass(frozen=True)
class MassFunction:
    """Basic probability assignment over subsets of an intention frame.

    Construction normalizes and checks the invariants: masses are
    non-negative, sum to 1 within tolerance, the empty set carries no
    mass, and every focal subset lies inside the frame. Zero-mass
    entries are dropped so equal assignments compare equal.
    """

    frame: tuple[str, ...]
    masses: dict[frozenset[str], float]

    def __post_init__(self):
        frame = tuple(self.frame)
        frame_set = frozenset(frame)
        if len(frame_set) != len(frame) or not frame:
            raise ValidationFailure("frame must be a non-empty set of unique ids")
        cleaned: dict[frozenset[str], float] = {}
        for subset, mass in self.masses.items():
            key = frozenset(subset)
            if mass < 0:
                raise ValidationFailure(f"negative mass {mass!r} on {sorted(key)}")
            # Zero mass on the empty set is dropped below like any zero mass.
            if not key and mass != 0.0:
                raise ValidationFailure("empty set must carry zero mass")
            if not key <= frame_set:
                raise ValidationFailure(
                    f"focal subset {sorted(key)} outside frame {sorted(frame_set)}"
                )
            if mass != 0.0:
                cleaned[key] = cleaned.get(key, 0.0) + mass
        total = fsum_or_nan(cleaned.values())
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise ValidationFailure(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masses", cleaned)

    def mass(self, subset) -> float:
        return self.masses.get(frozenset(subset), 0.0)


@dataclass(frozen=True)
class BeliefReport:
    """Belief/plausibility per intention plus the selected one."""

    per_intention: dict[str, tuple[float, float]]  # id -> (belief, plausibility)
    selected: str
    mass: MassFunction

    def __post_init__(self):
        for iid, (bel, pl) in self.per_intention.items():
            if not (0.0 <= bel <= pl <= 1.0 + SUM_TOLERANCE):
                raise ValidationFailure(
                    f"intention '{iid}': belief {bel!r} / plausibility {pl!r} out of order"
                )
        best = min(
            self.per_intention, key=lambda iid: (-self.per_intention[iid][0], iid)
        )
        if self.selected != best:
            raise ValidationFailure(
                f"selected '{self.selected}' is not the belief argmax '{best}'"
            )


@dataclass(frozen=True, slots=True)
class SimilarityResult:
    """Outcome of scoring a new case against one precedent."""

    new_case_id: str
    precedent_case_id: str
    # (new evidence id, precedent evidence id, local similarity)
    alignment: tuple[tuple[str, str, float], ...]
    score: float


# --- validation -----------------------------------------------------------


def validate_attack(attack: Attack) -> list[str]:
    """Check Attack/Evidence invariants; returns violation messages."""
    violations: list[str] = []
    if not attack.id:
        violations.append("attack.id: must be non-empty")
    if not _is_finite_unit(attack.detection_state):
        violations.append(
            f"attack.detection_state: {attack.detection_state!r} outside [0,1]"
        )
    if not attack.evidence:
        violations.append("attack.evidence: at least one evidence item required")
    seen: set[str] = set()
    for ev in attack.evidence:
        where = f"evidence '{ev.id}'" if ev.id else "evidence with empty id"
        if not ev.id:
            violations.append(f"{where}: id must be non-empty")
        elif ev.id in seen:
            violations.append(f"{where}: duplicate id within attack")
        seen.add(ev.id)
        if not isinstance(ev.kind, EvidenceKind):
            violations.append(f"{where}: kind {ev.kind!r} not a known kind")
        if not _is_finite_unit(ev.confidence):
            violations.append(f"{where}: confidence {ev.confidence!r} outside [0,1]")
        if not isinstance(ev.description, str):
            violations.append(f"{where}: description {ev.description!r} is not text")
        for key, value in ev.attributes.items():
            if not isinstance(value, str):
                violations.append(f"{where}: attribute '{key}' value {value!r} is not text")
    return violations


def validate_case(case: Case) -> list[str]:
    """Check every Case invariant; violations are data, not exceptions.

    Total over well-formed inputs: always returns a list, never raises.
    """
    violations: list[str] = []
    if not case.case_id:
        violations.append("case_id: must be non-empty")
    violations.extend(validate_attack(case.attack))
    if case.intention is not None and not case.intention.label:
        violations.append("intention.label: must be non-empty")
    evidence_ids = set(case.attack.evidence_ids())
    finite = True
    for ev_id, weight in case.evidence_weights.items():
        if not math.isfinite(weight):
            violations.append(f"evidence_weights['{ev_id}']: {weight!r} is not finite")
            finite = False
        elif weight < 0:
            violations.append(f"evidence_weights['{ev_id}']: {weight!r} is negative")
        if ev_id not in evidence_ids:
            violations.append(
                f"evidence_weights['{ev_id}']: no such evidence in the case"
            )
    if case.status in CONFIRMED_STATUSES:
        # A sum over a non-finite weight means nothing (and fsum raises on
        # inf + -inf); that weight is reported above.
        if finite:
            weight_sum = fsum_or_nan(
                case.evidence_weights.get(ev_id, 0.0) for ev_id in evidence_ids
            )
            if not abs(weight_sum - 1.0) <= SUM_TOLERANCE:
                violations.append(
                    f"evidence_weights: sum {weight_sum!r} != 1 for status '{case.status.value}'"
                )
        if case.intention is None:
            violations.append(
                f"intention: required for status '{case.status.value}'"
            )
    return violations


def validate_network(network: CausalNetwork) -> list[str]:
    """Check CausalNetwork invariants (dense table, normalized priors)."""
    violations: list[str] = []
    intention_ids = network.intention_ids()
    if len(set(intention_ids)) != len(intention_ids):
        violations.append("intentions: ids must be unique within the frame")
    for it in network.intentions:
        if not it.label:
            violations.append(f"intention '{it.id}': label must be non-empty")
    priors = [network.priors.get(iid, 0.0) for iid in intention_ids]
    # A non-finite prior is reported below; a sum over it means nothing.
    if all(map(math.isfinite, priors)):
        prior_sum = fsum_or_nan(priors)
        if not abs(prior_sum - 1.0) <= SUM_TOLERANCE:
            violations.append(f"priors: sum {prior_sum!r} != 1")
    for iid in intention_ids:
        prior = network.priors.get(iid)
        if prior is None:
            violations.append(f"priors: missing entry for intention '{iid}'")
        elif not math.isfinite(prior):
            violations.append(f"priors['{iid}']: {prior!r} is not finite")
        elif prior < 0:
            violations.append(f"priors['{iid}']: {prior!r} is negative")
    for ev_id in network.evidence_ids:
        row = network.likelihoods.get(ev_id)
        if row is None:
            violations.append(f"likelihoods: missing row for evidence '{ev_id}'")
            continue
        for iid in intention_ids:
            p = row.get(iid)
            if p is None:
                violations.append(
                    f"likelihoods['{ev_id}']: missing entry for intention '{iid}'"
                )
            elif not _is_finite_unit(p):
                violations.append(
                    f"likelihoods['{ev_id}']['{iid}']: {p!r} outside [0,1]"
                )
    return violations


def transition(case: Case, target: CaseStatus) -> Case:
    """Move a case one step along the life cycle; copies, never mutates."""
    target = CaseStatus(target)
    if target not in _LEGAL_TRANSITIONS[case.status]:
        raise IllegalTransition(
            f"case '{case.case_id}': {case.status.value} -> {target.value} is not legal"
        )
    return replace(case, status=target)


def is_safe_id(record_id: str) -> bool:
    """True when the id is usable as a file name (no separators, no dots-only,
    and short enough for the temp name of a write)."""
    return len(record_id) <= _MAX_ID_LENGTH and bool(_ID_PATTERN.fullmatch(record_id))


def fsum_or_nan(values) -> float:
    """``math.fsum`` of the values, or NaN where ``fsum`` raises: on
    inf + -inf, or when a sum of finite values leaves float range.

    Every "sums to 1" check tests ``not abs(total - 1.0) <= SUM_TOLERANCE``,
    which a NaN total fails.
    """
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def _is_finite_unit(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0
