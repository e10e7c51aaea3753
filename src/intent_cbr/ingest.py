"""Parsing external input files into Attack and CausalNetwork records.

Evidence comes as CSV for analyst hand-entry or JSON for tool
integration, both mapped onto the same model. Parsing is deterministic
and order preserving, and no invalid record ever escapes: the parsed
record is validated before it is returned. Every input file is read by
one function, as UTF-8 with or without a byte order mark; a missing or
unreadable file is an IoFailure.

CSV dialect: comma separated, double-quote escaping, header row
required. Columns are ``id, kind, description, confidence`` followed by
any number of attribute cells, each holding one ``key=value`` token.
A blank confidence cell defaults to 1.0 (the analyst asserted the
evidence). Unknown kind strings map to ``other`` with a warning. Both
formats trim each evidence id, description, attribute key and value.

Warnings: `parse_evidence_file` passes each message to its `warn`
callback as it is found, so also when a later record fails. Without one,
it logs each at WARNING on the ``intent_cbr.ingest`` logger, importing
``logging`` only then; the CLI prints each as ``WARNING: <message>``.

JSON: either a full attack document (``id``, ``name``,
``detection_state``, ``evidence`` array) or a bare array of evidence
documents with the attack metadata supplied by the caller. Text fields
follow one rule, ``serialize._text``: a string stays, an integer becomes
its decimal text as in a CSV cell, and any other value is a MalformedRecord
here and makes a stored record corrupt.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import (
    ConfidenceOutOfRange,
    DuplicateEvidenceId,
    IoFailure,
    MalformedRecord,
    ValidationFailure,
)
from .model import (
    Attack,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    validate_attack,
    validate_network,
)
from .serialize import _num, _optional_text, _text, _typed, network_from_dict

_EXPECTED_HEADER = ("id", "kind", "description", "confidence")

# Case-insensitive aliases accepted for evidence kinds. Canonical values
# map to themselves so serialized attacks re-parse unchanged.
KIND_ALIASES: dict[str, EvidenceKind] = {
    **{kind.value: kind for kind in EvidenceKind},
    "port": EvidenceKind.PORT_EXPLOIT,
    "exploit-port": EvidenceKind.PORT_EXPLOIT,
    "function": EvidenceKind.FUNCTION_IMPLEMENTATION,
    "functions": EvidenceKind.FUNCTION_IMPLEMENTATION,
    "tool": EvidenceKind.TOOL_USAGE,
    "tools": EvidenceKind.TOOL_USAGE,
    "command": EvidenceKind.COMMAND_USAGE,
    "commands": EvidenceKind.COMMAND_USAGE,
    "registry": EvidenceKind.REGISTRY_ACCESS,
    "address": EvidenceKind.ADDRESS_INDICATOR,
    "ip": EvidenceKind.ADDRESS_INDICATOR,
    "ip-address": EvidenceKind.ADDRESS_INDICATOR,
    "protocol": EvidenceKind.PROTOCOL_INDICATOR,
    "vulnerability": EvidenceKind.VULNERABILITY_INDICATOR,
    "vuln": EvidenceKind.VULNERABILITY_INDICATOR,
}


def map_kind(raw_kind: str) -> EvidenceKind:
    """Map a raw kind string onto the enumeration; no match means other."""
    return KIND_ALIASES.get(raw_kind.strip().lower(), EvidenceKind.OTHER)


def parse_evidence_file(
    path,
    format: str,
    attack_id: str | None = None,
    attack_name: str | None = None,
    detection_state: float | None = None,
    warn=None,
) -> Attack:
    """Parse a CSV or JSON evidence file into an Attack.

    The optional attack metadata arguments override whatever the file
    carries (they are the only source for CSV, which has no metadata).
    They are read by the rules of the document's own fields: the id and
    name as text, the detection state as a number. Each record of an
    unknown kind is a warning, whose message goes to `warn`, or to the
    log when `warn` is None (see the module docstring).
    """
    if warn is None:
        warn = _log_warning
    path = Path(path)
    if format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {format!r}")
    content = _read_input(path, format)
    if format == "csv":
        meta, evidence = {"id": path.stem}, _parse_csv(content, warn)
    else:
        meta, evidence = _parse_json(content, warn)
    meta_id, meta_name = (_field(0, _optional_text, meta, key, None) for key in ("id", "name"))
    given = {"attack_id": attack_id, "attack_name": attack_name}
    attack_id, attack_name = (_field(0, _optional_text, given, key, None) for key in given)
    attack_id = attack_id or meta_id
    if not attack_id:
        raise MalformedRecord(0, "attack id missing (pass attack_id or set 'id')")
    if detection_state is None:
        detection_state = meta.get("detection_state", 1.0)
    attack = Attack(
        id=attack_id,
        name=attack_name or meta_name or attack_id,
        detection_state=_field(0, _num, detection_state, "detection_state"),
        evidence=evidence,
    )
    violations = validate_attack(attack)
    if violations:
        raise MalformedRecord(0, "; ".join(violations))
    return attack


def _log_warning(message: str) -> None:
    import logging

    logging.getLogger(__name__).warning(message)


def parse_network_file(path) -> CausalNetwork:
    """Parse a causal-network JSON document into a validated network."""
    network = network_from_dict(_read_input(Path(path), "json"))
    violations = validate_network(network)
    if violations:
        raise ValidationFailure("network invalid: " + "; ".join(violations))
    return network


def _read_input(path: Path, format: str):
    """The text of a CSV input file, or the decoded document of a JSON one."""
    try:
        # Untranslated: a carriage return in a quoted CSV cell is text.
        text = path.read_bytes().decode("utf-8-sig")
    except FileNotFoundError as exc:
        raise IoFailure(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise MalformedRecord(line, f"not UTF-8 text: {exc.reason}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if format == "csv":
        return text
    try:
        doc = json.loads(text)
        # An escape such as "\ud800" reads as text that no UTF-8 file holds.
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise MalformedRecord(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise MalformedRecord(0, f"text {bad!r} cannot be stored as UTF-8") from None
    except RecursionError:
        raise MalformedRecord(0, "invalid JSON: nested too deep") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise MalformedRecord(0, "invalid JSON: an integer with too many digits") from None
    return doc


def _parse_csv(text: str, warn) -> tuple[Evidence, ...]:
    import csv
    import io

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _csv_evidence(reader, warn)
    except csv.Error as exc:  # a cell past the csv module's size limit, say
        raise MalformedRecord(reader.line_num, f"invalid CSV: {exc}") from None


def _csv_evidence(reader, warn) -> tuple[Evidence, ...]:
    header = next(reader, None)
    if header is None:
        raise MalformedRecord(1, "empty file; at least one evidence record required")
    normalized = tuple(cell.strip().lower() for cell in header[:4])
    if normalized != _EXPECTED_HEADER:
        raise MalformedRecord(
            1, f"header must start with {','.join(_EXPECTED_HEADER)}"
        )
    evidence: list[Evidence] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise MalformedRecord(line, "expected at least id and kind columns")
        evidence.append(
            _checked_evidence(
                line,
                seen,
                warn,
                ev_id=row[0],
                raw_kind=row[1],
                description=row[2] if len(row) > 2 else "",
                confidence=_parse_confidence(row[3] if len(row) > 3 else "", line),
                attributes=_parse_attribute_cells(row[4:], line),
            )
        )
    if not evidence:
        raise MalformedRecord(1, "no evidence records; an attack needs at least one")
    return tuple(evidence)


def _parse_json(doc, warn) -> tuple[dict, tuple[Evidence, ...]]:
    """The attack metadata and the evidence of a JSON document."""
    if isinstance(doc, list):
        meta: dict = {}
        items = doc
    elif isinstance(doc, dict):
        meta = doc
        items = doc.get("evidence")
        if not isinstance(items, list):
            raise MalformedRecord(0, "attack document needs an 'evidence' array")
    else:
        raise MalformedRecord(0, "top level must be an object or an array")

    evidence: list[Evidence] = []
    seen: set[str] = set()
    for index, item in enumerate(items, start=1):
        if not isinstance(item, dict):
            raise MalformedRecord(index, "evidence record must be an object")
        confidence = _field(index, _num, item.get("confidence", 1.0), "confidence")
        attributes = item.get("attributes", {})
        if not isinstance(attributes, dict):
            raise MalformedRecord(index, "attributes must be an object")
        evidence.append(
            _checked_evidence(
                index,
                seen,
                warn,
                ev_id=_field(index, _optional_text, item, "id", ""),
                raw_kind=_field(index, _optional_text, item, "kind", "other"),
                description=_field(index, _optional_text, item, "description", ""),
                confidence=confidence,
                attributes=_field(index, _typed, attributes, str, _text, "attributes").items(),
            )
        )
    if not evidence:
        raise MalformedRecord(0, "no evidence records; an attack needs at least one")
    return meta, tuple(evidence)


def _checked_evidence(
    line: int,
    seen: set[str],
    warn,
    ev_id: str,
    raw_kind: str,
    description: str,
    confidence: float,
    attributes,
) -> Evidence:
    """One decoded record after the checks both formats share.

    Both formats trim the id, the description, and each attribute key and
    value; `attributes` is the record's ``(key, value)`` pairs. ``line`` is
    the record's position (CSV line, 1-based JSON index) and becomes the
    ``.line`` of any error or warning; ``seen`` collects the ids so far,
    and `warn` takes the message of an unknown kind.
    """
    ev_id = ev_id.strip()
    if not ev_id:
        raise MalformedRecord(line, "evidence id must be non-empty")
    if ev_id in seen:
        raise DuplicateEvidenceId(line, f"duplicate evidence id '{ev_id}'")
    seen.add(ev_id)
    kind = map_kind(raw_kind)
    if kind is EvidenceKind.OTHER and raw_kind.strip().lower() not in KIND_ALIASES:
        warn(f"line {line}: unknown kind {raw_kind!r} mapped to 'other'")
    if not 0.0 <= confidence <= 1.0:
        raise ConfidenceOutOfRange(line, f"confidence {confidence!r} outside [0,1]")
    trimmed: dict[str, str] = {}
    for raw_key, value in attributes:
        key = raw_key.strip()
        if not key:
            raise MalformedRecord(line, f"attribute {raw_key + '=' + value!r} has an empty key")
        if key in trimmed:
            raise MalformedRecord(line, f"duplicate attribute key '{key}'")
        trimmed[key] = value.strip()
    return Evidence(
        id=ev_id,
        kind=kind,
        attributes=trimmed,
        description=description.strip(),
        confidence=confidence,
    )


def _field(line: int, read, *args):
    """``read(*args)``, where `read` reads a field of stored records, such
    as `_num`; a value that breaks its rule is a MalformedRecord at `line`."""
    try:
        return read(*args)
    except ValidationFailure as exc:
        raise MalformedRecord(line, str(exc)) from None


def _parse_confidence(cell: str, line: int) -> float:
    cell = cell.strip()
    if not cell:
        return 1.0
    try:
        return float(cell)
    except ValueError:
        raise MalformedRecord(line, f"confidence {cell!r} is not a number") from None


def _parse_attribute_cells(cells: list[str], line: int) -> list[tuple[str, str]]:
    """The ``(key, value)`` pair of each non-blank ``key=value`` cell."""
    pairs = []
    for cell in cells:
        if not cell.strip():
            continue
        if "=" not in cell:
            raise MalformedRecord(
                line, f"attribute cell {cell.strip()!r} must look like key=value"
            )
        pairs.append(tuple(cell.split("=", 1)))
    return pairs
