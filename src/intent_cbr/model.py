"""Domain model shared by every other module.

Evidence, attacks, candidate intentions, cases moving through the
reasoning life cycle, and the belief-mass structures used by the
intention-inference engine. All types are immutable value objects; a
"mutation" is a copy with the change applied (:func:`replace`), so
instances are safe to share across threads.

Records take their fields as given, with no copy or conversion: a field
typed as a tuple must be passed a tuple. Only ``MassFunction`` and
``BeliefReport`` check what they are built from.

Every record is a plain class on one base, :class:`Record`. Its fields,
in order, are its ``__slots__``, and its ``__init__`` takes them in that
order. The base gives each record equality, hash, repr, pickling and
copying over those fields, and refuses writes. A record has no
``__dict__``, so it is small and quick to build, which a full scan of the
repository repeats thousands of times. These are not dataclasses: the
``dataclasses`` import and the methods it generates cost each CLI process
about 20 ms of start-up.
"""

from __future__ import annotations

import math
import re
import time
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


class Record:
    """Base of the records: equality, hash, repr, pickling and copying over
    the fields, which are the class's ``__slots__``; a write raises
    AttributeError.

    A record class sets its slots in ``__init__`` through their setters
    (see :func:`_setters`), since its own ``__setattr__`` refuses.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # A TypeError for a record that holds a dict, as for any tuple.
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Unpickling and copying build the record again through __init__.
        return self.__class__, self._values()


def replace(record: Record, /, **changes) -> Record:
    """A copy of `record` with the fields named in `changes` set to their
    values. The copy is built by the class's ``__init__``, so its checks
    run again; a name that is not a field is a TypeError."""
    return record.__class__(**dict(zip(record.__slots__, record._values()), **changes))


def _setters(cls: type) -> list:
    """The setter of each of `cls`'s slots, in ``__slots__`` order.

    A slot's own setter writes past the refusing ``__setattr__``, in about
    two thirds of the time of ``object.__setattr__``, which a full scan
    pays for each field of each record.
    """
    return [vars(cls)[name].__set__ for name in cls.__slots__]


class Evidence(Record):
    """One observable artifact of an attack."""

    __slots__ = ("id", "kind", "attributes", "description", "confidence")

    def __init__(
        self,
        id: str,
        kind: EvidenceKind,
        attributes: dict[str, str] | None = None,  # ordered; None: a new {}
        description: str = "",
        confidence: float = 1.0,  # detection confidence in [0, 1]
    ):
        _ev_id(self, id)
        _ev_kind(self, kind)
        _ev_attributes(self, {} if attributes is None else attributes)
        _ev_description(self, description)
        _ev_confidence(self, confidence)


_ev_id, _ev_kind, _ev_attributes, _ev_description, _ev_confidence = _setters(Evidence)


class Attack(Record):
    """A detected attack and the evidence collected for it."""

    __slots__ = ("id", "name", "detection_state", "evidence")

    def __init__(
        self,
        id: str,
        name: str,
        detection_state: float,  # detection accuracy ratio in [0, 1]
        evidence: tuple[Evidence, ...],
    ):
        _atk_id(self, id)
        _atk_name(self, name)
        _atk_detection_state(self, detection_state)
        _atk_evidence(self, evidence)

    def evidence_ids(self) -> list[str]:
        return [ev.id for ev in self.evidence]


_atk_id, _atk_name, _atk_detection_state, _atk_evidence = _setters(Attack)


class Intention(Record):
    """A candidate attacker goal."""

    __slots__ = ("id", "label", "category")

    def __init__(self, id: str, label: str, category: str | None = None):
        _int_id(self, id)
        _int_label(self, label)
        _int_category(self, category)


_int_id, _int_label, _int_category = _setters(Intention)


class Hypothesis(Record):
    """Reliability of detection/collection, used to discount masses.

    ``applies_to`` is either a specific intention id or ``"*"`` for a
    wildcard that covers every intention without a closer match.
    """

    __slots__ = ("id", "accuracy", "applies_to")

    def __init__(self, id: str, accuracy: float, applies_to: str = "*"):
        _hyp_id(self, id)
        _hyp_accuracy(self, accuracy)
        _hyp_applies_to(self, applies_to)


_hyp_id, _hyp_accuracy, _hyp_applies_to = _setters(Hypothesis)


class CausalNetwork(Record):
    """Attack, evidence and intention structure with the probabilities.

    ``likelihoods`` is a dense table: one row per evidence id, one entry
    per intention id, holding P(evidence | intention). The complement is
    1 - p, derived on demand and never stored.
    """

    __slots__ = ("attack_id", "intentions", "evidence_ids", "priors", "likelihoods")

    def __init__(
        self,
        attack_id: str,
        intentions: tuple[Intention, ...],
        evidence_ids: tuple[str, ...],
        priors: dict[str, float],  # intention id -> P(intention)
        likelihoods: dict[str, dict[str, float]],  # evidence id -> intention id -> p
    ):
        _net_attack_id(self, attack_id)
        _net_intentions(self, intentions)
        _net_evidence_ids(self, evidence_ids)
        _net_priors(self, priors)
        _net_likelihoods(self, likelihoods)

    def intention_ids(self) -> list[str]:
        return [it.id for it in self.intentions]

    def find_intention(self, intention_id: str) -> Intention:
        for it in self.intentions:
            if it.id == intention_id:
                return it
        raise ValidationFailure(f"intention '{intention_id}' not in network")


_net_attack_id, _net_intentions, _net_evidence_ids, _net_priors, _net_likelihoods = _setters(
    CausalNetwork
)


class Case(Record):
    """An attack paired with an (eventual) intention and evidence weights."""

    __slots__ = (
        "case_id", "attack", "intention", "evidence_weights", "status", "provenance", "created_at"
    )

    def __init__(
        self,
        case_id: str,
        attack: Attack,
        intention: Intention | None,
        evidence_weights: dict[str, float],  # evidence id -> weight
        status: CaseStatus,
        provenance: str = "analyst",
        created_at: str | None = None,  # None: now_utc()
    ):
        _case_id(self, case_id)
        _case_attack(self, attack)
        _case_intention(self, intention)
        _case_weights(self, evidence_weights)
        _case_status(self, status)
        _case_provenance(self, provenance)
        _case_created_at(self, now_utc() if created_at is None else created_at)


(
    _case_id,
    _case_attack,
    _case_intention,
    _case_weights,
    _case_status,
    _case_provenance,
    _case_created_at,
) = _setters(Case)


class MassFunction(Record):
    """Basic probability assignment over subsets of an intention frame.

    Construction normalizes and checks the invariants: masses are
    non-negative, sum to 1 within tolerance, the empty set carries no
    mass, and every focal subset lies inside the frame. Zero-mass
    entries are dropped so equal assignments compare equal.
    """

    __slots__ = ("frame", "masses")

    def __init__(self, frame: tuple[str, ...], masses: dict[frozenset[str], float]):
        frame = tuple(frame)
        frame_set = frozenset(frame)
        if len(frame_set) != len(frame) or not frame:
            raise ValidationFailure("frame must be a non-empty set of unique ids")
        cleaned: dict[frozenset[str], float] = {}
        for subset, mass in masses.items():
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
        _mf_frame(self, frame)
        _mf_masses(self, cleaned)

    def mass(self, subset) -> float:
        return self.masses.get(frozenset(subset), 0.0)


_mf_frame, _mf_masses = _setters(MassFunction)


class BeliefReport(Record):
    """Belief/plausibility per intention plus the selected one."""

    __slots__ = ("per_intention", "selected", "mass")

    def __init__(
        self,
        per_intention: dict[str, tuple[float, float]],  # id -> (belief, plausibility)
        selected: str,
        mass: MassFunction,
    ):
        for iid, (bel, pl) in per_intention.items():
            if not (0.0 <= bel <= pl <= 1.0 + SUM_TOLERANCE):
                raise ValidationFailure(
                    f"intention '{iid}': belief {bel!r} / plausibility {pl!r} out of order"
                )
        best = min(per_intention, key=lambda iid: (-per_intention[iid][0], iid))
        if selected != best:
            raise ValidationFailure(f"selected '{selected}' is not the belief argmax '{best}'")
        _br_per_intention(self, per_intention)
        _br_selected(self, selected)
        _br_mass(self, mass)


_br_per_intention, _br_selected, _br_mass = _setters(BeliefReport)


class SimilarityResult(Record):
    """Outcome of scoring a new case against one precedent."""

    __slots__ = ("new_case_id", "precedent_case_id", "alignment", "score")

    def __init__(
        self,
        new_case_id: str,
        precedent_case_id: str,
        # (new evidence id, precedent evidence id, local similarity)
        alignment: tuple[tuple[str, str, float], ...],
        score: float,
    ):
        _sim_new_case_id(self, new_case_id)
        _sim_precedent_case_id(self, precedent_case_id)
        _sim_alignment(self, alignment)
        _sim_score(self, score)


_sim_new_case_id, _sim_precedent_case_id, _sim_alignment, _sim_score = _setters(SimilarityResult)


# --- validation -----------------------------------------------------------


def validate_attack(attack: Attack) -> list[str]:
    """Check Attack/Evidence invariants; returns violation messages."""
    violations: list[str] = []
    if not isinstance(attack.id, str):
        violations.append(f"attack.id: {attack.id!r} is not text")
    elif not attack.id:
        violations.append("attack.id: must be non-empty")
    if not isinstance(attack.name, str):
        violations.append(f"attack.name: {attack.name!r} is not text")
    if not _is_finite_unit(attack.detection_state):
        violations.append(
            f"attack.detection_state: {attack.detection_state!r} outside [0,1]"
        )
    if not attack.evidence:
        violations.append("attack.evidence: at least one evidence item required")
    seen: set[str] = set()
    for ev in attack.evidence:
        where = f"evidence '{ev.id}'" if ev.id else "evidence with empty id"
        if not isinstance(ev.id, str):
            violations.append(f"{where}: id {ev.id!r} is not text")
        elif not ev.id:
            violations.append(f"{where}: id must be non-empty")
        elif ev.id in seen:
            violations.append(f"{where}: duplicate id within attack")
        else:
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
    intention = case.intention
    if intention is not None:
        if not isinstance(intention.id, str):
            violations.append(f"intention.id: {intention.id!r} is not text")
        if not isinstance(intention.label, str):
            violations.append(f"intention.label: {intention.label!r} is not text")
        elif not intention.label:
            violations.append("intention.label: must be non-empty")
        if not isinstance(intention.category, (str, type(None))):
            violations.append(f"intention.category: {intention.category!r} is not text")
    if not isinstance(case.provenance, str):
        violations.append(f"provenance: {case.provenance!r} is not text")
    if not isinstance(case.created_at, str):
        violations.append(f"created_at: {case.created_at!r} is not text")
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
    """True when the id is text usable as a file name (no separators, no
    dots-only, and short enough for the temp name of a write)."""
    return (
        isinstance(record_id, str)
        and len(record_id) <= _MAX_ID_LENGTH
        and bool(_ID_PATTERN.fullmatch(record_id))
    )


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
