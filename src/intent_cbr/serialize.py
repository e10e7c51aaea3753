"""Canonical JSON wire format for the domain model.

One schema serves disk storage and interchange: sorted keys, two-space
indent, and each float as its shortest repr that reads back as the same
float (as in RFC 8785). Equal values therefore always serialize to
identical bytes, and a record reads back exactly as written, which keeps
golden-file tests and repository round-trips stable.

A record's document is exactly its dataclass fields, by name: one walker
writes every record, an enum member as its value and a tuple as a list.
Each record type has its own decoder, which checks what it reads. A
decoder keeps the dicts of the document it is given where their values
already have the stored type, so the record shares them with it.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from types import MemberDescriptorType
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


def canonical_dumps(data: Any) -> str:
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


def _walk(value: Any) -> Any:
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
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        return {name: _walk(getattr(value, name)) for name in names}
    if isinstance(value, Enum):
        return _walk(value.value)
    if isinstance(value, (str, int)):  # a bool is an int
        return value
    if isinstance(value, (list, tuple)):
        return [_walk(item) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[kind] = tuple(f.name for f in fields(value))
        return _walk(value)
    raise TypeError(f"cannot serialize {kind.__name__}")


# Field names by record type, filled as each type is first walked.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


evidence_to_dict = attack_to_dict = intention_to_dict = _walk
network_to_dict = case_to_dict = _walk


# --- per-type decoders -----------------------------------------------------

# Each field is read by one call to the readers at the end of this
# module, which hold the type rule and its messages. On the scan's path a
# nested object is tested for its exact type inline, which costs no call,
# and goes to `_obj` only when that test fails. Records are built by
# `_builder`'s functions, which take the field values by position.


def evidence_from_dict(doc: dict) -> Evidence:
    ev_id = _req(doc, "id", str)
    kind = _member(doc, "kind", _KINDS, EvidenceKind)
    attributes = doc.get("attributes", {})
    if type(attributes) is not dict:
        attributes = _obj(attributes, "attributes")
    return _build_evidence(
        ev_id,
        kind,
        _typed(attributes, str, _text, "attributes"),
        _optional_text(doc, "description", ""),
        _num(doc.get("confidence", 1.0), "confidence"),
    )


def attack_from_dict(doc: dict) -> Attack:
    attack_id = _req(doc, "id", str)
    return _build_attack(
        attack_id,
        _optional_text(doc, "name", attack_id),
        _num(doc.get("detection_state", 1.0), "detection_state"),
        tuple([
            evidence_from_dict(item if type(item) is dict else _obj(item, f"evidence[{i}]"))
            for i, item in enumerate(_req(doc, "evidence", list))
        ]),
    )


def intention_from_dict(doc: dict) -> Intention:
    return _build_intention(
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
    return _build_case(
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


def _builder(cls: type):
    """A function that builds a `cls` from its field values, given by
    position in ``dataclasses.fields(cls)`` order.

    It does what the frozen ``__init__`` does, with no keyword call: a
    new instance, then each slot set through its member descriptor. It
    skips ``__post_init__``, so `cls` must have none, and it needs the
    slots of ``@dataclass(slots=True)``.
    """
    names = [f.name for f in fields(cls)]
    slots = [vars(cls).get(name) for name in names]
    if hasattr(cls, "__post_init__") or not all(
        isinstance(slot, MemberDescriptorType) for slot in slots
    ):
        raise TypeError(f"{cls.__name__} cannot be built slot by slot")
    # One unrolled function per class: about half the cost of a loop over
    # the setters, and a wrong number of values is a TypeError.
    env = {"_new": object.__new__, "_cls": cls}
    env.update({f"_set_{name}": slot.__set__ for name, slot in zip(names, slots)})
    params = ", ".join(names)
    body = "".join(f"    _set_{name}(_obj, {name})\n" for name in names)
    exec(f"def build({params}):\n    _obj = _new(_cls)\n{body}    return _obj\n", env)
    return env["build"]


_build_evidence = _builder(Evidence)
_build_attack = _builder(Attack)
_build_intention = _builder(Intention)
_build_case = _builder(Case)


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


def _text(value: Any, label: str) -> str:
    """`value` as record text: a string as it is, an integer as its decimal
    text, as in a CSV cell. Stored records and JSON input files read their
    text by this rule; `label` names the field in the error."""
    if type(value) is str:
        return value
    if type(value) is not int:  # a bool is an int, but not exactly one
        raise ValidationFailure(f"field '{label}' has wrong type {type(value).__name__}")
    return f"{value:d}"


def _optional_text(doc: dict, key: str, default: Any) -> Any:
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
