"""Canonical JSON codec: round trips and byte stability."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_st, network_st
from intent_cbr import fixtures as demo
from intent_cbr import ingest
from intent_cbr import repository as repository_module
from intent_cbr.errors import CorruptRecord, ValidationFailure
from intent_cbr.model import CaseStatus, EvidenceKind, Intention, replace
from intent_cbr.repository import Repository
from intent_cbr.serialize import (
    attack_from_dict,
    attack_to_dict,
    canonical_dumps,
    case_from_dict,
    case_to_dict,
    evidence_from_dict,
    evidence_to_dict,
    intention_from_dict,
    intention_to_dict,
    network_from_dict,
    network_to_dict,
)


def test_attack_round_trip():
    attack = demo.keylogging_attack()
    assert attack_from_dict(attack_to_dict(attack)) == attack


@given(case_st("c1"))
@settings(max_examples=50)
def test_case_round_trip(case):
    assert case_from_dict(case_to_dict(case)) == case


@given(network_st())
@settings(max_examples=50)
def test_network_round_trip(network):
    assert network_from_dict(network_to_dict(network)) == network


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": {"z": 0.1, "y": 2}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_canonical_dumps_writes_the_shortest_exact_float():
    text = canonical_dumps({"x": 1 / 3})
    assert '"x": 0.3333333333333333\n' in text


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_canonical_dumps_reads_back_every_finite_float(x):
    assert json.loads(canonical_dumps({"x": x}))["x"] == x


def test_serialization_byte_stable_after_round_trip():
    case = demo.precedent_cases()[0]
    first = canonical_dumps(case_to_dict(case))
    reparsed = case_from_dict(json.loads(first))
    assert canonical_dumps(case_to_dict(reparsed)) == first


def test_missing_field_rejected():
    with pytest.raises(ValidationFailure):
        attack_from_dict({"id": "a1", "name": "x", "detection_state": 0.5})


def test_priors_default_uniform_when_absent():
    doc = network_to_dict(demo.demo_network())
    del doc["priors"]
    network = network_from_dict(doc)
    assert network.priors == {"int-exfil": 0.5, "int-recon": 0.5}


class _Id(str):
    """A str subclass: JSON never yields one, a caller may pass one."""


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc["priors"].update({"int-exfil": "high"}),
         "field 'priors[int-exfil]' must be a number"),
        (lambda doc: doc["likelihoods"]["dev01"].update({"int-recon": None}),
         "field 'likelihoods[dev01][int-recon]' must be a number"),
        (lambda doc: doc["priors"].update({"int-recon": 10**400}),
         "field 'priors[int-recon]' is beyond float range"),
        (lambda doc: doc["likelihoods"]["dev02"].update({"int-exfil": -(10**400)}),
         "field 'likelihoods[dev02][int-exfil]' is beyond float range"),
        (lambda doc: doc["intentions"][0].pop("label"), "missing required field 'label'"),
        (lambda doc: doc.update(intentions={}), "field 'intentions' has wrong type dict"),
        (lambda doc: doc["intentions"][0].update(id=_Id("int-exfil")), None),
        (lambda doc: doc.update(intentions=[5]), "field 'intentions[0]' has wrong type int"),
        (lambda doc: doc["intentions"].append("int-x"),
         "field 'intentions[2]' has wrong type str"),
        (lambda doc: doc.update(priors=[0.5, 0.5]), "field 'priors' has wrong type list"),
        (lambda doc: doc["likelihoods"].update(dev01=[0.8, 0.4]),
         "field 'likelihoods[dev01]' has wrong type list"),
    ],
    ids=["prior", "likelihood", "prior-past-float-range", "likelihood-past-float-range",
         "no-label", "intentions-not-a-list", "str-subclass-id",
         "intention-int", "intention-str", "priors-list", "likelihood-row-list"],
)
def test_network_decoder_through_both_readers(tmp_path, monkeypatch, mutate, message):
    repo = Repository.attach(tmp_path / "repo")
    repo.save_network(demo.demo_network())
    demo.write_demo_network(tmp_path / "network.json")

    # Each reader parses the demo network; its decoder gets the row's
    # document, which may hold what JSON cannot (a str subclass).
    def decode(doc):
        mutate(doc)
        return network_from_dict(doc)

    monkeypatch.setattr(repository_module, "network_from_dict", decode)
    monkeypatch.setattr(ingest, "network_from_dict", decode)
    if message is None:
        for network in (
            repo.load_network("demo-attack"),
            ingest.parse_network_file(tmp_path / "network.json"),
        ):
            assert type(network.intentions[0].id) is _Id
        return
    with pytest.raises(CorruptRecord) as excinfo:
        repo.load_network("demo-attack")
    assert excinfo.value.details == {"networks/demo-attack": f"unparseable: {message}"}
    assert type(excinfo.value.__cause__) is ValidationFailure
    with pytest.raises(ValidationFailure) as excinfo:
        ingest.parse_network_file(tmp_path / "network.json")
    assert str(excinfo.value) == message
    assert excinfo.value.exit_code == 2


def test_a_non_object_document_names_its_type():
    for decode in (case_from_dict, attack_from_dict, network_from_dict):
        with pytest.raises(ValidationFailure, match=r"^document has wrong type list$"):
            decode([])


# Per record type: its codec pair, a fixture value, and for every field a
# value that differs from the fixture's. A field added to a record and
# missing here fails the test until it is written, read back and listed.
_RECORD_FIELDS = [
    (
        evidence_to_dict,
        evidence_from_dict,
        demo.keylogging_attack().evidence[0],
        {
            "id": "ev99",
            "kind": EvidenceKind.OTHER,
            "attributes": {"mode": "scan"},
            "description": "Changed.",
            "confidence": 0.5,
        },
    ),
    (
        attack_to_dict,
        attack_from_dict,
        demo.keylogging_attack(),
        {
            "id": "other-attack",
            "name": "Other",
            "detection_state": 0.5,
            "evidence": demo.keylogging_attack().evidence[:1],
        },
    ),
    (
        intention_to_dict,
        intention_from_dict,
        demo.demo_network().intentions[0],
        {"id": "int-other", "label": "Other.", "category": "other"},
    ),
    (
        network_to_dict,
        network_from_dict,
        demo.demo_network(),
        {
            "attack_id": "other-attack",
            "intentions": demo.demo_network().intentions[:1],
            "evidence_ids": ("dev01",),
            "priors": {"int-exfil": 0.25, "int-recon": 0.75},
            "likelihoods": {"dev01": {"int-exfil": 0.3, "int-recon": 0.6}},
        },
    ),
    (
        case_to_dict,
        case_from_dict,
        demo.precedent_cases()[0],
        {
            "case_id": "other-case",
            "attack": demo.keylogging_attack(),
            "intention": Intention("int-other", "Other.", "other"),
            "evidence_weights": {"ev01": 1.0},
            "status": CaseStatus.INCIPIENT,
            "provenance": "changed",
            "created_at": "2030-01-01T00:00:00Z",
        },
    ),
]


@pytest.mark.parametrize(
    "encode, decode, record, others",
    _RECORD_FIELDS,
    ids=[type(entry[2]).__name__ for entry in _RECORD_FIELDS],
)
def test_every_field_is_written_and_read_back(encode, decode, record, others):
    names = type(record).__slots__
    assert sorted(encode(record)) == sorted(names)
    assert sorted(others) == sorted(names)
    for name, value in others.items():
        changed = replace(record, **{name: value})
        assert changed != record, name
        assert decode(encode(changed)) == changed, name
        assert decode(encode(changed)) != decode(encode(record)), name


# The records the decoders build by position: all but the network.
_BUILT = [entry for entry in _RECORD_FIELDS if entry[1] is not network_from_dict]
_BUILT_IDS = [type(entry[2]).__name__ for entry in _BUILT]


@pytest.mark.parametrize("encode, decode, record, others", _BUILT, ids=_BUILT_IDS)
def test_a_decoded_record_is_the_constructed_one(encode, decode, record, others):
    names = type(record).__slots__
    for value in (record, *(replace(record, **{k: v}) for k, v in others.items())):
        decoded = decode(encode(value))
        constructed = type(value)(**{name: getattr(decoded, name) for name in names})
        assert decoded == constructed == value
        assert repr(decoded) == repr(constructed)


@pytest.mark.parametrize("encode, decode, record, others", _BUILT, ids=_BUILT_IDS)
def test_a_decoded_record_stays_a_frozen_value(encode, decode, record, others):
    decoded = decode(encode(record))
    assert not hasattr(decoded, "__dict__")
    for name, value in others.items():
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(decoded, name, value)
        assert getattr(replace(decoded, **{name: value}), name) == value
    assert decoded == record
    if isinstance(record, Intention):
        assert hash(decoded) == hash(record)
    assert pickle.loads(pickle.dumps(decoded)) == decoded
    assert copy.deepcopy(decoded) == decoded


_CORPUS_DECODERS = {
    "demo_attack.json": attack_from_dict,
    "demo_network.json": network_from_dict,
    "keylogging_attack.json": attack_from_dict,
}


@pytest.mark.parametrize(
    "path",
    sorted(demo.PAPER.rglob("*.json")),
    ids=lambda path: path.relative_to(demo.PAPER).as_posix(),
)
def test_fixture_documents_keep_their_bytes(path):
    # Each corpus document decodes and re-encodes to exactly its own bytes.
    decode = case_from_dict if path.parent.name == "cases" else _CORPUS_DECODERS[path.name]
    expected = path.read_bytes()
    assert canonical_dumps(decode(json.loads(expected))).encode("utf-8") == expected


def test_canonical_dumps_refuses_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize object"):
        canonical_dumps({"x": object()})
