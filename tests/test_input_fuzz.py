"""Generated input files against the ingest contract.

The CSV and JSON readers are two implementations of one specification:
an evidence file becomes an attack record. Differential testing
(McKeeman, "Differential Testing for Software", Digital Technical Journal
10(1), 1998) writes one generated attack in both formats, ingests each
through the CLI into a repository of its own and asks the two to agree.
A second strategy mutates JSON documents near the schema and checks the
exit contract alone: 0 or 2, never a traceback, nothing stored on exit 2.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_cbr.cli import main
from intent_cbr.ingest import KIND_ALIASES
from intent_cbr.repository import Repository
from intent_cbr.serialize import attack_to_dict, canonical_dumps

SRC = Path(__file__).resolve().parent.parent / "src"

# Each example writes its files under a directory of its own, from
# `tmp_path_factory`; a child process outlasts the default deadline.
FUZZ = settings(deadline=None)

# --- both formats ---------------------------------------------------------------

# Text both formats hold alike. A CSV cell is trimmed, so the text is too;
# no lone surrogate, which a UTF-8 file cannot hold; no NUL, which the csv
# module of Python 3.10 refuses. Line ends and the characters of CSV
# quoting and of attribute cells are drawn often.
_text = st.text(
    st.one_of(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        st.sampled_from("\r\n\t ,\"'="),
    ),
    max_size=8,
).map(str.strip)
# JSON text fields also take an integer, which reads as a CSV cell would.
_scalar = st.one_of(_text, _text, st.integers(-(10**18), 10**18))
_number = st.one_of(
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True), st.integers(-1, 2)
)
_kind = st.one_of(st.sampled_from(sorted(KIND_ALIASES)), _text.filter(bool))


@st.composite
def _evidence(draw):
    return {
        # A small pool as well, so that ids repeat and blank ids occur.
        "id": draw(st.one_of(_scalar, st.sampled_from(["e1", "e2", ""]))),
        "kind": draw(_kind),
        "description": draw(_scalar),
        "confidence": draw(st.one_of(st.none(), _number)),
        "attributes": draw(
            st.dictionaries(_text.filter(lambda k: k and "=" not in k), _scalar, max_size=3)
        ),
    }


@st.composite
def _attack(draw):
    return {
        "name": draw(st.one_of(st.none(), _scalar)),
        "detection_state": draw(st.one_of(st.none(), _number)),
        "evidence": draw(st.lists(_evidence(), min_size=1, max_size=4)),
    }


def _csv_text(attack) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "kind", "description", "confidence"])
    for ev in attack["evidence"]:
        confidence = "" if ev["confidence"] is None else repr(ev["confidence"])
        cells = [f"{key}={value}" for key, value in ev["attributes"].items()]
        writer.writerow([ev["id"], ev["kind"], ev["description"], confidence, *cells])
    return out.getvalue()


def _json_text(attack) -> str:
    evidence = [
        {key: value for key, value in ev.items() if value is not None}
        for ev in attack["evidence"]
    ]
    doc = {key: value for key, value in attack.items() if value is not None}
    return json.dumps({**doc, "evidence": evidence})


def _csv_argv(attack) -> list[str]:
    """The attack metadata that CSV takes from the command line."""
    # One token each, so that a value such as "-inf" is not read as a flag.
    argv = []
    if attack["name"] is not None:
        argv.append(f"--attack-name={attack['name']}")
    if attack["detection_state"] is not None:
        argv.append(f"--detection-state={attack['detection_state']!r}")
    return argv


def _stored(root: Path) -> dict:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _one_error_line(stderr: str) -> bool:
    """True when `stderr` ends in one ``error:`` line, and any line before
    it is a ``WARNING:`` that ingest logged: a message that quotes a line
    break holds it escaped."""
    *warnings, last = stderr.splitlines() or [""]
    return last.startswith("error: ") and all(w.startswith("WARNING: ") for w in warnings)


def _ingest(workdir: Path, name: str, text: str, fmt: str, *argv: str):
    """Ingest `text` through `main` into the new repository ``workdir/name``.

    Returns the exit status, the bytes of the stored attack (None when
    nothing is stored) and the repository. On exit 2 the repository is as
    it was.
    """
    root = workdir / name
    Repository.attach(root)
    before = _stored(root)
    path = workdir / f"{name}.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([
            "ingest", "--input", str(path), "--format", fmt, "--repo", str(root),
            "--attack-id", "a1", *argv,
        ])
    assert rc in (0, 2), err.getvalue()
    if rc == 2:
        assert _stored(root) == before
        assert _one_error_line(err.getvalue()), err.getvalue()
    stored = root / "attacks" / "a1.json"
    return rc, stored.read_bytes() if stored.exists() else None, root


@given(attack=_attack())
@settings(FUZZ, max_examples=50)
def test_csv_and_json_of_one_attack_store_the_same_record(tmp_path_factory, attack):
    workdir = tmp_path_factory.mktemp("differential")
    csv_rc, csv_bytes, csv_root = _ingest(workdir, "csv", _csv_text(attack), "csv", *_csv_argv(attack))
    json_rc, json_bytes, json_root = _ingest(workdir, "json", _json_text(attack), "json")
    assert csv_rc == json_rc
    if csv_rc == 0:
        assert csv_bytes == json_bytes
        for root in (csv_root, json_root):
            stored = Repository.attach(root).load_attack("a1")
            assert canonical_dumps(attack_to_dict(stored)).encode("utf-8") == csv_bytes


# --- mutated JSON -----------------------------------------------------------------


class Raw:
    """JSON text written as it is: what `json.dumps` cannot make."""

    def __init__(self, text):
        self.text = text


class Pairs:
    """A JSON object written with its keys in order, repeats kept."""

    def __init__(self, pairs):
        self.pairs = pairs


def _dumps(node) -> str:
    """JSON text of a tree that may hold `Raw` and `Pairs` nodes. A lone
    surrogate is written as its ``\\ud800`` escape."""
    if isinstance(node, Raw):
        return node.text
    if isinstance(node, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in node.pairs) + "}"
    if isinstance(node, dict):
        return _dumps(Pairs(list(node.items())))
    if isinstance(node, list):
        return "[" + ", ".join(map(_dumps, node)) + "]"
    return json.dumps(node)


_deep = st.builds(
    lambda depth, inner: Raw("[" * depth + inner + "]" * depth),
    st.sampled_from([2, 900, 1_100, 100_000]),
    st.sampled_from(["", '"x"', "1"]),
)
_huge = st.builds(Raw, st.sampled_from(["1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 5_000]))
_surrogate = st.sampled_from(["\ud800", "x\udfff", "\udc80y"])
_wrong = st.one_of(
    st.sampled_from([True, False, None, 0, -1, 1.5, 1e308, "", " ", "x", [], {}, [1], {"a": 1}]),
    st.builds(Raw, st.sampled_from(["NaN", "Infinity", "-Infinity", "-0.0", "1E400"])),
)
_any_mutation = st.one_of(_wrong, _deep, _huge, _surrogate)


def _slots(doc) -> list:
    """Every place of a document where a value sits: (parent, key)."""
    out = [(doc, key) for key in ("id", "name", "detection_state", "evidence", "extra")]
    evidence = doc["evidence"]
    for i, ev in enumerate(evidence if isinstance(evidence, list) else []):
        out.append((evidence, i))
        if isinstance(ev, dict):
            out += [(ev, key) for key in ("id", "kind", "description", "confidence", "attributes")]
            if isinstance(ev.get("attributes"), dict):
                out += [(ev["attributes"], key) for key in ev["attributes"]]
    return out


@st.composite
def _mutated_doc(draw, values=_any_mutation):
    """A JSON attack document with one to three values replaced, and
    perhaps one of its objects written with a repeated key."""
    doc = json.loads(_json_text(draw(_attack())))
    doc["id"] = "a1"
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        parent, key = slots[draw(st.integers(0, len(slots) - 1))]
        parent[key] = draw(values)
    evidence = doc["evidence"]
    if isinstance(evidence, list) and evidence and isinstance(evidence[0], dict) and draw(
        st.booleans()
    ):
        key = draw(st.sampled_from(sorted(evidence[0]) or ["id"]))
        evidence[0] = Pairs([*evidence[0].items(), (key, draw(values))])
    return _dumps(doc)


def _decoded(text: str):
    """The document as a JSON decoder reads it, or None where the decoder
    or UTF-8 cannot hold it."""
    try:
        doc = json.loads(text)
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError):  # a UnicodeEncodeError is a ValueError
        return None
    return doc


def _items(doc) -> list:
    items = doc.get("evidence") if isinstance(doc, dict) else doc
    return [item for item in items if isinstance(item, dict)] if isinstance(items, list) else []


def _as_text(value, default=None):
    """The text rule, written out again as the oracle: a string as it is, an
    integer as its decimal text, a null optional field as its default."""
    if value is None and default is not None:
        return default
    assert type(value) in (str, int), value
    return value if type(value) is str else str(value)


def _breaks_text_rule(doc) -> bool:
    """True when a text field of the decoded document holds anything but a
    string or an integer, counting a null optional field as absent."""
    optional = [doc.get("id"), doc.get("name")] if isinstance(doc, dict) else []
    required = []
    for item in _items(doc):
        optional += [item.get(key) for key in ("id", "kind", "description")]
        attributes = item.get("attributes")
        required += attributes.values() if isinstance(attributes, dict) else []
    optional = [value for value in optional if value is not None]
    return any(type(value) not in (str, int) for value in optional + required)


@given(text=_mutated_doc())
@settings(FUZZ, max_examples=60)
def test_mutated_json_exits_0_or_2_and_stores_nothing_on_2(tmp_path_factory, text):
    workdir = tmp_path_factory.mktemp("mutated")
    rc, stored, root = _ingest(workdir, "repo", text, "json")
    doc = _decoded(text)
    if doc is None or _breaks_text_rule(doc):
        assert rc == 2
    if rc == 2:
        assert stored is None
        return
    attack = Repository.attach(root).load_attack("a1")
    assert canonical_dumps(attack_to_dict(attack)).encode("utf-8") == stored
    items = _items(doc)
    assert [ev.id for ev in attack.evidence] == [_as_text(i.get("id")).strip() for i in items]
    assert [ev.description for ev in attack.evidence] == [
        _as_text(i.get("description"), "") for i in items
    ]
    assert [ev.attributes for ev in attack.evidence] == [
        {key: _as_text(value) for key, value in i.get("attributes", {}).items()} for i in items
    ]
    name = doc.get("name") if isinstance(doc, dict) else None
    assert attack.name == (_as_text(name, "") or "a1")


# The recursion limit and the stack are the interpreter's own: one class of
# mutation, nesting, also runs in a CLI process, on each Python version.
@given(text=_mutated_doc(values=_deep))
@settings(FUZZ, max_examples=3)
def test_deeply_nested_json_exits_0_or_2_in_a_process(tmp_path_factory, text):
    workdir = tmp_path_factory.mktemp("process")
    root = workdir / "repo"
    Repository.attach(root)
    before = _stored(root)
    (workdir / "doc.json").write_text(text, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "intent_cbr", "ingest", "--input", str(workdir / "doc.json"),
         "--format", "json", "--repo", str(root), "--attack-id", "a1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, timeout=120,
    )
    assert result.returncode in (0, 2), result.stderr
    assert b"Traceback" not in result.stderr
    if result.returncode == 2:
        assert _stored(root) == before
        assert _one_error_line(result.stderr.decode("utf-8")), result.stderr


@pytest.mark.parametrize("key, escaped", [("a\nb", "a\\nb"), ("0\u00850", "0\\x850")])
def test_an_error_that_quotes_a_line_break_stays_one_line(tmp_path, key, escaped):
    doc = [{"id": "e1", "kind": "tool", "attributes": {key: [1]}}]
    rc, stored, _ = _ingest(tmp_path, "repo", json.dumps(doc), "json")
    assert (rc, stored) == (2, None)
    (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "intent_cbr", "ingest", "--input", str(tmp_path / "doc.json"),
         "--format", "json", "--repo", str(tmp_path / "repo"), "--attack-id", "a1"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.decode("utf-8") == (
        f"error: line 1: field 'attributes[{escaped}]' has wrong type list\n"
    )
