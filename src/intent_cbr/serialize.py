"""Canonical JSON wire format for the domain model.

One schema serves disk storage and interchange: sorted keys, two-space
indent, floats rounded to 12 significant digits. Equal values therefore
always serialize to identical bytes, which keeps golden-file tests and
repository round-trips stable.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ValidationFailure
from .model import (
    Attack,
    Case,
    CaseStatus,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Intention,
)


def canonical_float(x: float) -> float:
    """Round to 12 significant digits; idempotent."""
    return float(format(float(x), ".12g"))


def canonical_dumps(data: Any) -> str:
    """Serialize to the canonical byte form (trailing newline included)."""
    return (
        json.dumps(
            _round_floats(data),
            sort_keys=True,
            indent=2,
            ensure_ascii=False,
            allow_nan=False,
        )
        + "\n"
    )


def _round_floats(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return canonical_float(value)
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


# --- per-type codecs -------------------------------------------------------


def evidence_to_dict(ev: Evidence) -> dict:
    return {
        "id": ev.id,
        "kind": ev.kind.value,
        "attributes": dict(ev.attributes),
        "description": ev.description,
        "confidence": ev.confidence,
    }


# Each field is read by one call to the readers at the end of this
# module, which hold the type rule and its messages. On the scan's path a
# nested object is tested for its exact type inline, which costs no call,
# and goes to `_obj` only when that test fails.


def evidence_from_dict(doc: dict) -> Evidence:
    ev_id = _req(doc, "id", str)
    kind = _member(doc, "kind", _KINDS, EvidenceKind)
    attributes = doc.get("attributes", {})
    if type(attributes) is not dict:
        attributes = _obj(attributes, "attributes")
    return Evidence(
        id=ev_id,
        kind=kind,
        attributes={str(k): str(v) for k, v in attributes.items()},
        description=str(doc.get("description", "")),
        confidence=_num(doc.get("confidence", 1.0), "confidence"),
    )


def attack_to_dict(attack: Attack) -> dict:
    return {
        "id": attack.id,
        "name": attack.name,
        "detection_state": attack.detection_state,
        "evidence": [evidence_to_dict(ev) for ev in attack.evidence],
    }


def attack_from_dict(doc: dict) -> Attack:
    attack_id = _req(doc, "id", str)
    return Attack(
        id=attack_id,
        name=str(doc.get("name", attack_id)),
        detection_state=_num(doc.get("detection_state", 1.0), "detection_state"),
        evidence=tuple([
            evidence_from_dict(item if type(item) is dict else _obj(item, f"evidence[{i}]"))
            for i, item in enumerate(_req(doc, "evidence", list))
        ]),
    )


def intention_to_dict(it: Intention) -> dict:
    return {"id": it.id, "label": it.label, "category": it.category}


def intention_from_dict(doc: dict) -> Intention:
    return Intention(
        id=_req(doc, "id", str),
        label=_req(doc, "label", str),
        category=None if doc.get("category") is None else str(doc["category"]),
    )


def network_to_dict(net: CausalNetwork) -> dict:
    return {
        "attack_id": net.attack_id,
        "intentions": [intention_to_dict(it) for it in net.intentions],
        "evidence_ids": list(net.evidence_ids),
        "priors": dict(net.priors),
        "likelihoods": {ev: dict(row) for ev, row in net.likelihoods.items()},
    }


def network_from_dict(doc: dict) -> CausalNetwork:
    intentions = tuple(
        intention_from_dict(_obj(item, f"intentions[{i}]"))
        for i, item in enumerate(_req(doc, "intentions", list))
    )
    priors = doc.get("priors")
    if priors is None:
        # Documents may omit priors; default to uniform over the frame.
        n = len(intentions)
        priors = {it.id: 1.0 / n for it in intentions} if n else {}
    return CausalNetwork(
        attack_id=_req(doc, "attack_id", str),
        intentions=intentions,
        evidence_ids=tuple(str(e) for e in _req(doc, "evidence_ids", list)),
        priors={str(k): _num(v, f"priors[{k}]") for k, v in _obj(priors, "priors").items()},
        likelihoods={
            str(ev): {
                str(i): _num(p, f"likelihoods[{ev}][{i}]")
                for i, p in _obj(row, f"likelihoods[{ev}]").items()
            }
            for ev, row in _req(doc, "likelihoods", dict).items()
        },
    )


def case_to_dict(case: Case) -> dict:
    return {
        "case_id": case.case_id,
        "attack": attack_to_dict(case.attack),
        "intention": None if case.intention is None else intention_to_dict(case.intention),
        "evidence_weights": dict(case.evidence_weights),
        "status": case.status.value,
        "provenance": case.provenance,
        "created_at": case.created_at,
    }


def case_from_dict(doc: dict) -> Case:
    case_id = _req(doc, "case_id", str)
    attack = attack_from_dict(_req(doc, "attack", dict))
    intention = doc.get("intention")
    if intention is not None:
        intention = intention_from_dict(
            intention if type(intention) is dict else _obj(intention, "intention")
        )
    return Case(
        case_id=case_id,
        attack=attack,
        intention=intention,
        # Inline: a label and a call per weight would slow the scan.
        evidence_weights={
            str(k): v if type(v) is float else _num(v, f"evidence_weights[{k}]")
            for k, v in _req(doc, "evidence_weights", dict).items()
        },
        status=_member(doc, "status", _STATUSES, CaseStatus),
        provenance=str(doc.get("provenance", "")),
        created_at=str(doc.get("created_at", "")),
    )


# --- helpers ---------------------------------------------------------------

_KINDS = {kind.value: kind for kind in EvidenceKind}
_STATUSES = {status.value: status for status in CaseStatus}


def _req(doc: dict, key: str, expected: type) -> Any:
    """``doc[key]``, which must be an `expected`."""
    value = doc.get(key) if type(doc) is dict else None
    if type(value) is expected:
        return value
    if not isinstance(doc, dict):
        raise ValidationFailure(f"document has wrong type {type(doc).__name__}")
    if key not in doc:
        raise ValidationFailure(f"missing required field '{key}'")
    value = doc[key]
    if not isinstance(value, expected):
        raise ValidationFailure(f"field '{key}' has wrong type {type(value).__name__}")
    return value


def _num(value: Any, label: str) -> float:
    """`value` as a ``float``; `label` names it in the error."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationFailure(f"field '{label}' must be a number")
    return float(value)


def _obj(value: Any, label: str) -> dict:
    """`value`, which must be a JSON object; `label` names it in the error."""
    if isinstance(value, dict):
        return value
    raise ValidationFailure(f"field '{label}' has wrong type {type(value).__name__}")


def _member(doc: dict, key: str, members: dict, enum: type) -> Any:
    """The `enum` member named by the string ``doc[key]``."""
    value = doc.get(key) if type(doc) is dict else None
    member = members.get(value) if type(value) is str else None
    return enum(_req(doc, key, str)) if member is None else member
