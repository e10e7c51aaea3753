"""Evidence file parsing: CSV and JSON into validated Attack records."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import case_st
from intent_cbr import fixtures as demo
from intent_cbr.errors import (
    ConfidenceOutOfRange,
    DuplicateEvidenceId,
    IoFailure,
    MalformedRecord,
)
from intent_cbr.ingest import map_kind, parse_evidence_file
from intent_cbr.model import EvidenceKind
from intent_cbr.serialize import attack_to_dict, canonical_dumps

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def keylog_csv(tmp_path):
    return demo.write_keylogging_csv(tmp_path / "keylog.csv")


class TestMapKind:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Tool", EvidenceKind.TOOL_USAGE),
            ("registry", EvidenceKind.REGISTRY_ACCESS),
            ("COMMAND", EvidenceKind.COMMAND_USAGE),
            ("ip-address", EvidenceKind.ADDRESS_INDICATOR),
            ("vuln", EvidenceKind.VULNERABILITY_INDICATOR),
            ("zzz", EvidenceKind.OTHER),
        ],
    )
    def test_alias_table(self, raw, expected):
        assert map_kind(raw) is expected

    @pytest.mark.parametrize("kind", list(EvidenceKind))
    def test_canonical_values_map_to_themselves(self, kind):
        assert map_kind(kind.value) is kind


class TestCsvParsing:
    def test_keylogging_file(self, keylog_csv):
        attack = parse_evidence_file(keylog_csv, "csv", attack_id="keylogging")
        assert attack.id == "keylogging"
        assert len(attack.evidence) == 5
        assert [ev.id for ev in attack.evidence] == ["ev01", "ev02", "ev03", "ev04", "ev05"]
        kinds = [ev.kind for ev in attack.evidence]
        assert kinds == [
            EvidenceKind.REGISTRY_ACCESS,
            EvidenceKind.FUNCTION_IMPLEMENTATION,
            EvidenceKind.FUNCTION_IMPLEMENTATION,
            EvidenceKind.TOOL_USAGE,
            EvidenceKind.COMMAND_USAGE,
        ]
        assert attack.evidence[3].attributes == {"tool": "W32/Agobot"}
        assert attack.evidence[4].attributes == {"commands": "sysinfo,netinfo"}
        assert attack.evidence[0].confidence == 0.9

    def test_matches_in_memory_fixture(self, keylog_csv):
        parsed = parse_evidence_file(
            keylog_csv, "csv", attack_id="keylogging", attack_name="Keylogging",
            detection_state=0.9,
        )
        assert parsed == demo.keylogging_attack()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "csv", attack_id="a1")

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,kind,description,confidence\n", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "csv", attack_id="a1")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("identifier,type\nev01,tool\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert excinfo.value.line == 1

    def test_confidence_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "conf.csv"
        path.write_text(
            "id,kind,description,confidence\n"
            "ev01,tool,ok,0.5\n"
            "ev02,tool,bad,1.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfidenceOutOfRange) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert excinfo.value.line == 3

    def test_non_numeric_confidence(self, tmp_path):
        path = tmp_path / "conf.csv"
        path.write_text("id,kind,description,confidence\nev01,tool,x,high\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert excinfo.value.line == 2

    def test_blank_confidence_defaults_to_one(self, tmp_path):
        path = tmp_path / "conf.csv"
        path.write_text("id,kind,description,confidence\nev01,tool,x,\n", encoding="utf-8")
        attack = parse_evidence_file(path, "csv", attack_id="a1")
        assert attack.evidence[0].confidence == 1.0

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(
            "id,kind,description,confidence\n\nev01,tool,x,1\n , ,,\nev02,tool,y,1\n",
            encoding="utf-8",
        )
        attack = parse_evidence_file(path, "csv", attack_id="a1")
        assert [ev.id for ev in attack.evidence] == ["ev01", "ev02"]

    def test_duplicate_evidence_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,kind,description,confidence\nev01,tool,x,1\nev01,tool,y,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateEvidenceId):
            parse_evidence_file(path, "csv", attack_id="a1")

    def test_attribute_cell_without_equals(self, tmp_path):
        path = tmp_path / "attr.csv"
        path.write_text(
            "id,kind,description,confidence,attr1\nev01,tool,x,1,justvalue\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "csv", attack_id="a1")

    def test_duplicate_attribute_key(self, tmp_path):
        path = tmp_path / "attr.csv"
        path.write_text(
            "id,kind,description,confidence,attr1,attr2\nev01,tool,x,1,k=1,k=2\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "csv", attack_id="a1")

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("ev01\n", "expected at least id and kind columns"),
            ("ev01,tool,x,1,=v\n", "attribute '=v' has an empty key"),
        ],
        ids=["one-column", "attribute-without-key"],
    )
    def test_malformed_row(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text("id,kind,description,confidence,attr1\n" + row, encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert (excinfo.value.line, excinfo.value.reason) == (2, reason)

    def test_unknown_kind_warns_and_maps_to_other(self, tmp_path, caplog):
        path = tmp_path / "kind.csv"
        path.write_text("id,kind,description,confidence\nev01,weird,x,1\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            attack = parse_evidence_file(path, "csv", attack_id="a1")
        assert attack.evidence[0].kind is EvidenceKind.OTHER
        assert any("weird" in record.message for record in caplog.records)

    @pytest.mark.parametrize("to_warn", [False, True], ids=["logged", "warn"])
    @pytest.mark.parametrize("later", ["", "ev02,tool,y,high\n"], ids=["ok", "fails-later"])
    def test_unknown_kind_is_logged_also_when_a_later_line_fails(
        self, tmp_path, caplog, later, to_warn
    ):
        path = tmp_path / "kind.csv"
        path.write_text(
            "id,kind,description,confidence\nev01,weird,x,1\n" + later, encoding="utf-8"
        )
        warned = []
        warn = warned.append if to_warn else None
        with caplog.at_level(logging.WARNING):
            if later:
                with pytest.raises(MalformedRecord):
                    parse_evidence_file(path, "csv", attack_id="a1", warn=warn)
            else:
                parse_evidence_file(path, "csv", attack_id="a1", warn=warn)
        message = "line 2: unknown kind 'weird' mapped to 'other'"
        logged = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        record = ("intent_cbr.ingest", logging.WARNING, message)
        assert (warned, logged) == (([message], []) if to_warn else ([], [record]))

    @pytest.mark.parametrize("kind, imported", [("tool", []), ("weird", ["logging"])])
    def test_logging_is_imported_only_to_log_a_warning(self, tmp_path, kind, imported):
        path = tmp_path / "kind.csv"
        path.write_text(f"id,kind,description,confidence\nev01,{kind},x,1\n", encoding="utf-8")
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from intent_cbr.ingest import parse_evidence_file\n"
            "parse_evidence_file(sys.argv[1], 'csv', attack_id='a1')\n"
            "print(sorted({'logging'} & (set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, str(path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{imported}\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            parse_evidence_file(tmp_path / "nope.csv", "csv", attack_id="a1")

    def test_line_ends_in_a_quoted_cell_are_kept(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_bytes(
            b'id,kind,description,confidence,attr1\r\nev01,tool,"a\rb\r\nc",1,"k=x\ry"\r\n'
        )
        ev = parse_evidence_file(path, "csv", attack_id="a1").evidence[0]
        assert (ev.description, ev.attributes) == ("a\rb\r\nc", {"k": "x\ry"})

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_each_line_end_ends_a_row(self, tmp_path, end):
        path = tmp_path / "ends.csv"
        rows = ["id,kind,description,confidence", "ev01,tool,x,1", "ev02,tool,y,high"]
        path.write_bytes(end.join(rows).encode())
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert (excinfo.value.line, excinfo.value.reason) == (3, "confidence 'high' is not a number")

    def test_a_cell_past_the_csv_size_limit_is_malformed(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"id,kind,description,confidence\nev01,tool,{'d' * 200_000},1\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert (excinfo.value.line, excinfo.value.reason) == (
            2, "invalid CSV: field larger than field limit (131072)"
        )

    def test_a_nul_character_is_text_or_malformed_as_the_csv_module_reads_it(self, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("id,kind,description,confidence\nev01,tool,a\x00b,1\n", encoding="utf-8")
        if sys.version_info >= (3, 11):  # the csv module reads NUL since 3.11
            assert parse_evidence_file(path, "csv", attack_id="a1").evidence[0].description == "a\x00b"
            return
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "csv", attack_id="a1")
        assert (excinfo.value.line, excinfo.value.reason) == (2, "invalid CSV: line contains NUL")


class TestJsonParsing:
    def test_null_kind_and_description_take_their_defaults(self, caplog):
        doc = json.dumps(
            {"id": "a1", "evidence": [{"id": "e1", "kind": None, "description": None}]}
        )
        with caplog.at_level(logging.WARNING):
            attack = parse_evidence_file_from_text(doc)
        assert attack.evidence[0].kind is EvidenceKind.OTHER
        assert attack.evidence[0].description == ""
        assert caplog.records == []

    def test_round_trip_identity(self):
        attack = demo.keylogging_attack()
        doc = canonical_dumps(attack_to_dict(attack))
        parsed = parse_evidence_file_from_text(doc)
        assert parsed == attack

    def test_bare_evidence_array(self, tmp_path):
        path = tmp_path / "evidence.json"
        path.write_text(
            json.dumps([{"id": "e1", "kind": "tool", "confidence": 0.5}]),
            encoding="utf-8",
        )
        attack = parse_evidence_file(path, "json", attack_id="a1", detection_state=0.7)
        assert attack.id == "a1"
        assert attack.detection_state == 0.7
        assert attack.evidence[0].kind is EvidenceKind.TOOL_USAGE

    def test_attack_id_argument_overrides_document(self, tmp_path):
        path = demo.write_keylogging_json(tmp_path / "a.json")
        attack = parse_evidence_file(path, "json", attack_id="renamed")
        assert attack.id == "renamed"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "evidence": [oops]\n}', encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            parse_evidence_file(path, "json", attack_id="a1")
        assert excinfo.value.line == 2

    def test_confidence_out_of_range(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(
            json.dumps([{"id": "e1", "kind": "tool", "confidence": 1.5}]),
            encoding="utf-8",
        )
        with pytest.raises(ConfidenceOutOfRange):
            parse_evidence_file(path, "json", attack_id="a1")

    def test_empty_evidence_array(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "json", attack_id="a1")

    def test_missing_id_everywhere(self, tmp_path):
        path = tmp_path / "noid.json"
        path.write_text(json.dumps({"evidence": [{"id": "e1", "kind": "tool"}]}), encoding="utf-8")
        with pytest.raises(MalformedRecord):
            parse_evidence_file(path, "json")


@pytest.mark.parametrize(
    "doc, reason",
    [
        (5, "top level must be an object or an array"),
        ({"id": "a1", "evidence": {}}, "attack document needs an 'evidence' array"),
        (["e1"], "evidence record must be an object"),
        ([{"id": "e1", "confidence": "high"}], "field 'confidence' must be a number"),
        ([{"id": "e1", "attributes": [1]}], "attributes must be an object"),
        ({"id": "a1", "detection_state": "x", "evidence": [{"id": "e1"}]},
         "field 'detection_state' must be a number"),
        ([{"id": " "}], "evidence id must be non-empty"),
        ([{"id": None}], "evidence id must be non-empty"),
        ([{"id": "e1", "attributes": {"host": None}}],
         "field 'attributes[host]' has wrong type NoneType"),
    ],
    ids=[
        "top-level-number",
        "evidence-not-an-array",
        "item-not-an-object",
        "confidence-a-string",
        "attributes-an-array",
        "detection-state-a-string",
        "blank-evidence-id",
        "null-evidence-id",
        "null-attribute-value",
    ],
)
def test_malformed_json_document(tmp_path, doc, reason):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedRecord) as excinfo:
        parse_evidence_file(path, "json", attack_id="a1")
    assert excinfo.value.reason == reason


@given(case_st("c1"))
@settings(max_examples=50)
def test_json_round_trip_property(tmp_path_factory, case):
    attack = case.attack
    path = tmp_path_factory.mktemp("rt") / "attack.json"
    path.write_text(canonical_dumps(attack_to_dict(attack)), encoding="utf-8")
    parsed = parse_evidence_file(path, "json")
    assert parsed.id == attack.id
    assert [ev.id for ev in parsed.evidence] == [ev.id for ev in attack.evidence]
    for got, want in zip(parsed.evidence, attack.evidence):
        assert got.kind == want.kind
        assert got.attributes == want.attributes
        assert got.confidence == want.confidence


def test_order_preserved(tmp_path):
    rows = ["id,kind,description,confidence"]
    ids = [f"e{i:02d}" for i in (5, 3, 9, 1, 7)]
    rows += [f"{ev_id},tool,item,1.0" for ev_id in ids]
    path = tmp_path / "order.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    attack = parse_evidence_file(path, "csv", attack_id="a1")
    assert [ev.id for ev in attack.evidence] == ids


@pytest.mark.parametrize(
    "write, fmt", [(demo.write_keylogging_csv, "csv"), (demo.write_keylogging_json, "json")]
)
def test_byte_order_mark_is_accepted(tmp_path, write, fmt):
    plain = write(tmp_path / f"plain.{fmt}")
    marked = tmp_path / f"marked.{fmt}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_evidence_file(marked, fmt, attack_id="a1") == parse_evidence_file(
        plain, fmt, attack_id="a1"
    )


def parse_evidence_file_from_text(text: str, fmt: str = "json"):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"doc.{fmt}"
        path.write_text(text, encoding="utf-8")
        return parse_evidence_file(path, fmt)


def test_unknown_format_is_refused(keylog_csv):
    with pytest.raises(ValueError, match="format must be csv or json, got 'xml'"):
        parse_evidence_file(keylog_csv, "xml", attack_id="a1")


# One text rule for both formats: a JSON string stays as it is and a JSON
# integer reads as the CSV cell of its decimal text.
@pytest.mark.parametrize("value", ["443", 443, -1, 0, 10**30], ids=str)
def test_a_json_integer_reads_as_its_csv_cell(tmp_path, value):
    csv_path = tmp_path / "e.csv"
    csv_path.write_text(
        f"id,kind,description,confidence,attr1\n{value},{value},{value},1,port={value}\n",
        encoding="utf-8",
    )
    json_path = tmp_path / "e.json"
    json_path.write_text(json.dumps({"name": value, "evidence": [
        {"id": value, "kind": value, "description": value, "attributes": {"port": value}}
    ]}), encoding="utf-8")
    from_csv = parse_evidence_file(csv_path, "csv", attack_id="a1", attack_name=str(value))
    from_json = parse_evidence_file(json_path, "json", attack_id="a1")
    assert from_json == from_csv
    assert from_json.name == from_json.evidence[0].attributes["port"] == str(value)


# Both formats trim the evidence id, description, attribute keys and values,
# and refuse a blank or repeated attribute key.
def test_csv_and_json_trim_evidence_text_alike(tmp_path):
    csv_path = tmp_path / "e.csv"
    csv_path.write_text("id,kind,description,confidence,attr1\n e1 ,tool, x ,1,k= v \n",
                        encoding="utf-8")
    json_path = tmp_path / "e.json"
    json_path.write_text(json.dumps([
        {"id": " e1 ", "kind": "tool", "description": " x ", "attributes": {" k ": " v "}}
    ]), encoding="utf-8")
    from_csv = parse_evidence_file(csv_path, "csv", attack_id="a1")
    from_json = parse_evidence_file(json_path, "json", attack_id="a1")
    assert from_json == from_csv
    assert (from_json.evidence[0].description, from_json.evidence[0].attributes) == (
        "x", {"k": "v"}
    )


@pytest.mark.parametrize(
    "cells, attributes, reason",
    [
        (" =v", {" ": "v"}, "has an empty key"),
        ("k=1,k =2", {"k": "1", "k ": "2"}, "duplicate attribute key 'k'"),
    ],
    ids=["blank-key", "repeated-key"],
)
def test_csv_and_json_refuse_an_attribute_key_alike(tmp_path, cells, attributes, reason):
    csv_path = tmp_path / "e.csv"
    csv_path.write_text(f"id,kind,description,confidence,a1,a2\ne1,tool,x,1,{cells}\n",
                        encoding="utf-8")
    json_path = tmp_path / "e.json"
    json_path.write_text(json.dumps([{"id": "e1", "kind": "tool", "attributes": attributes}]),
                         encoding="utf-8")
    for path, fmt in ((csv_path, "csv"), (json_path, "json")):
        with pytest.raises(MalformedRecord, match=reason):
            parse_evidence_file(path, fmt, attack_id="a1")


# The caller's attack metadata is read by the rules of the document's own
# fields: text for the id and name, a number for the detection state.
@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"attack_id": 1.5}, "field 'attack_id' has wrong type float"),
        ({"attack_id": True}, "field 'attack_id' has wrong type bool"),
        ({"attack_name": 1.5}, "field 'attack_name' has wrong type float"),
        ({"attack_name": ["x"]}, "field 'attack_name' has wrong type list"),
        ({"detection_state": True}, "field 'detection_state' must be a number"),
        ({"detection_state": "0.5"}, "field 'detection_state' must be a number"),
    ],
    ids=["id-float", "id-bool", "name-float", "name-list", "state-bool", "state-text"],
)
def test_caller_metadata_is_read_by_the_documents_rules(keylog_csv, changes, reason):
    with pytest.raises(MalformedRecord) as excinfo:
        parse_evidence_file(keylog_csv, "csv", **{"attack_id": "a1", **changes})
    assert (excinfo.value.line, excinfo.value.reason) == (0, reason)


def test_caller_metadata_converts_as_a_document_field_does(keylog_csv):
    attack = parse_evidence_file(keylog_csv, "csv", attack_id=7, attack_name=8, detection_state=1)
    assert (attack.id, attack.name, attack.detection_state) == ("7", "8", 1.0)
    assert type(attack.detection_state) is float
