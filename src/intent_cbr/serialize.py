"""Canonical JSON wire format for the domain model.

One schema serves disk storage and interchange: sorted keys, two-space
indent, and each float as its shortest repr that reads back as the same
float (as in RFC 8785). Equal values therefore always serialize to
identical bytes, and a record reads back exactly as written, which keeps
golden-file tests and repository round-trips stable.

A record's document is exactly its fields, by name: those of its class's
``__slots__`` (see ``model.Record``). One walker writes every record, an
enum member as its value and a tuple as a list.
Each record type has its own decoder, which checks what it reads. A
decoder keeps the dicts of the document it is given where their values
already have the stored type, so the record shares them with it.
"""

from __future__ import annotations

import json
from enum import Enum

from .errors import ValidationFailure
from .model import (
    Attack,
    Case,
    CaseStatus,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Intention,
    Record,
)


def canonical_dumps(data: object) -> str:
    """Serialize to the canonical byte form (trailing newline included)."""
    return (
        json.dumps(
            _walk(data),
            sort_keys=True,
            indent=2,
            ensure_ascii=False,
            allow_nan=False,
        )
        + "\n"
    )


def _walk(value: object) -> object:
    """`value` as JSON data: a record as its document (a dict of its fields
    by name), an enum member as its value, a tuple as a list."""
    # Strings, floats, dicts and records, most of the nodes, come first and
    # pay for no test meant for another type. A str-valued enum member is
    # a str, but not exactly one; an enum must not subclass float or dict.
    kind = type(value)
    if kind is str or value is None or isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {key: _walk(item) for key, item in value.items()}
    if isinstance(value, Record):
        return {name: _walk(getattr(value, name)) for name in kind.__slots__}
    if isinstance(value, Enum):
        return _walk(value.value)
    if isinstance(value, (str, int)):  # a bool is an int
        return value
    if isinstance(value, (list, tuple)):
        return [_walk(item) for item in value]
    raise TypeError(f"cannot serialize {kind.__name__}")


evidence_to_dict = attack_to_dict = intention_to_dict = _walk
network_to_dict = case_to_dict = _walk


# --- per-type decoders -----------------------------------------------------

# Each field is read by one call to the readers at the end of this
# module, which hold the type rule and its messages. On the scan's path a
# nested object is tested for its exact type inline, which costs no call,
# and goes to `_obj` only when that test fails. Each record is built by
# its class, from the field values by position.


def evidence_from_dict(doc: dict) -> Evidence:
    ev_id = _req(doc, "id", str)
    kind = _member(doc, "kind", _KINDS, EvidenceKind)
    attributes = doc.get("attributes", {})
    if type(attributes) is not dict:
        attributes = _obj(attributes, "attributes")
    return Evidence(
        ev_id,
        kind,
        _typed(attributes, str, _text, "attributes"),
        _optional_text(doc, "description", ""),
        _num(doc.get("confidence", 1.0), "confidence"),
    )


def attack_from_dict(doc: dict) -> Attack:
    attack_id = _req(doc, "id", str)
    return Attack(
        attack_id,
        _optional_text(doc, "name", attack_id),
        _num(doc.get("detection_state", 1.0), "detection_state"),
        tuple([
            evidence_from_dict(item if type(item) is dict else _obj(item, f"evidence[{i}]"))
            for i, item in enumerate(_req(doc, "evidence", list))
        ]),
    )


def intention_from_dict(doc: dict) -> Intention:
    return Intention(
        _req(doc, "id", str),
        _req(doc, "label", str),
        _optional_text(doc, "category", None),
    )


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
        evidence_ids=tuple(
            _text(e, f"evidence_ids[{i}]") for i, e in enumerate(_req(doc, "evidence_ids", list))
        ),
        priors=_typed(_obj(priors, "priors"), float, _num, "priors"),
        likelihoods={
            ev: _typed(_obj(row, f"likelihoods[{ev}]"), float, _num, f"likelihoods[{ev}]")
            for ev, row in _req(doc, "likelihoods", dict).items()
        },
    )


def case_from_dict(doc: dict) -> Case:
    case_id = _req(doc, "case_id", str)
    attack = attack_from_dict(_req(doc, "attack", dict))
    intention = doc.get("intention")
    if intention is not None:
        intention = intention_from_dict(
            intention if type(intention) is dict else _obj(intention, "intention")
        )
    return Case(
        case_id,
        attack,
        intention,
        _typed(_req(doc, "evidence_weights", dict), float, _num, "evidence_weights"),
        _member(doc, "status", _STATUSES, CaseStatus),
        _optional_text(doc, "provenance", ""),
        _optional_text(doc, "created_at", ""),
    )


# --- helpers ---------------------------------------------------------------

_KINDS = {kind.value: kind for kind in EvidenceKind}
_STATUSES = {status.value: status for status in CaseStatus}


def _req(doc: dict, key: str, expected: type) -> object:
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


def _num(value: object, label: str) -> float:
    """`value` as a ``float``; `label` names it in the error. Stored
    records and JSON input files read their numbers by this rule."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationFailure(f"field '{label}' must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past float range
        raise ValidationFailure(f"field '{label}' is beyond float range") from None


def _text(value: object, label: str) -> str:
    """`value` as record text: a string as it is, an integer as its decimal
    text, as in a CSV cell. Stored records and JSON input files read their
    text by this rule; `label` names the field in the error."""
    if type(value) is str:
        return value
    if type(value) is not int:  # a bool is an int, but not exactly one
        raise ValidationFailure(f"field '{label}' has wrong type {type(value).__name__}")
    return f"{value:d}"


def _optional_text(doc: dict, key: str, default: object) -> object:
    """``doc[key]`` by `_text`, or `default` where the field is absent or
    null: a null field is an absent one, never the text "None"."""
    value = doc.get(key)
    if type(value) is str:
        return value
    return default if value is None else _text(value, key)


def _typed(values: dict, kind: type, read, label: str) -> dict:
    """`values` itself when each value is exactly a `kind`, else a copy
    with each value read by `read` (`_num` or `_text`) as ``label[key]``."""
    for value in values.values():
        if type(value) is not kind:
            return {key: read(item, f"{label}[{key}]") for key, item in values.items()}
    return values


def _obj(value: object, label: str) -> dict:
    """`value`, which must be a JSON object; `label` names it in the error."""
    if isinstance(value, dict):
        return value
    raise ValidationFailure(f"field '{label}' has wrong type {type(value).__name__}")


def _member(doc: dict, key: str, members: dict, enum: type) -> object:
    """The `enum` member named by the string ``doc[key]``."""
    value = doc.get(key) if type(doc) is dict else None
    member = members.get(value) if type(value) is str else None
    return enum(_req(doc, key, str)) if member is None else member
