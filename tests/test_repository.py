"""Durable storage: round trips, atomicity, corruption reporting."""

import fcntl
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_case, settle, unstatable_case_file
from intent_cbr import cbr
from intent_cbr import fixtures as demo
from intent_cbr.errors import (
    CorruptRecord,
    DuplicateCaseId,
    EmptyRepository,
    IllegalTransition,
    IoFailure,
    SchemaVersionMismatch,
    UnknownCaseId,
    ValidationFailure,
)
from intent_cbr import repository as repository_module
from intent_cbr import summary as summary_module
from intent_cbr.model import (
    CONFIRMED_STATUSES,
    CaseStatus,
    Evidence,
    EvidenceKind,
    Intention,
    replace,
    transition,
)
from intent_cbr.repository import Repository
from intent_cbr.serialize import (
    attack_to_dict,
    canonical_dumps,
    case_from_dict,
    case_to_dict,
)
from oracles import flat_visits, refined_bound


def test_open_empty_directory(tmp_path):
    repo = Repository.open(tmp_path / "repo")
    assert repo.case_count() == 0
    assert (tmp_path / "repo" / "meta.json").exists()


def test_open_fixture_directory_has_eleven_precedents(tmp_path):
    demo.install_demo_repository(tmp_path / "repo")
    repo = Repository.open(tmp_path / "repo")
    assert repo.case_count() == 11
    assert len(repo.list_cases(status="precedent")) == 11


def test_corrupt_weight_sum_reported(tmp_path):
    repo = demo.install_demo_repository(tmp_path / "repo")
    case = repo.get_case("botnet-01")
    bad = dict(case.evidence_weights)
    first = next(iter(bad))
    bad[first] = bad[first] + 0.4
    doc = case_to_dict(replace(case, evidence_weights=bad))
    (tmp_path / "repo" / "cases" / "botnet-01.json").write_text(
        canonical_dumps(doc), encoding="utf-8"
    )
    with pytest.raises(CorruptRecord) as excinfo:
        Repository.open(tmp_path / "repo")
    assert "botnet-01" in excinfo.value.details
    assert "sum" in excinfo.value.details["botnet-01"]


def test_unparseable_record_reported(tmp_path):
    repo = demo.install_demo_repository(tmp_path / "repo")
    (repo.root / "cases" / "botnet-02.json").write_text("{ not json", encoding="utf-8")
    with pytest.raises(CorruptRecord) as excinfo:
        Repository.open(repo.root)
    assert "botnet-02" in excinfo.value.details


def test_add_then_get_round_trips_exactly(repo):
    case = demo.precedent_cases()[0]
    repo.add_case(case)
    assert repo.get_case(case.case_id) == case


def test_add_duplicate_id(repo):
    case = demo.precedent_cases()[0]
    repo.add_case(case)
    with pytest.raises(DuplicateCaseId):
        repo.add_case(case)


def test_add_invalid_case_rejected(repo):
    case = demo.precedent_cases()[0]
    bad = replace(case, evidence_weights={k: v * 2 for k, v in case.evidence_weights.items()})
    with pytest.raises(ValidationFailure):
        repo.add_case(bad)
    assert not (repo.root / "cases" / f"{case.case_id}.json").exists()


def test_unsafe_case_id_rejected(repo):
    case = replace(demo.precedent_cases()[0], case_id="../escape")
    with pytest.raises(ValidationFailure):
        repo.add_case(case)


def test_get_unknown_case(repo):
    with pytest.raises(UnknownCaseId):
        repo.get_case("ghost")


def test_update_requires_existing(repo):
    with pytest.raises(UnknownCaseId):
        repo.update_case(demo.precedent_cases()[0])


def test_list_filtered_by_status(demo_repo):
    case = replace(
        demo_repo.get_case("botnet-01"),
        case_id="retained-one",
        status=CaseStatus.RETAINED,
    )
    demo_repo.add_case(case)
    retained = demo_repo.list_cases(status="retained")
    assert [c.case_id for c in retained] == ["retained-one"]


def test_list_order_is_by_case_id(demo_repo):
    ids = [c.case_id for c in demo_repo.list_cases()]
    assert ids == sorted(ids)


def test_list_stays_ordered_after_adding_an_id_that_sorts_first(demo_repo):
    demo_repo.list_cases()  # load the scan before the write
    first = replace(demo_repo.get_case("botnet-01"), case_id="aaa-first")
    demo_repo.add_case(first)
    ids = [c.case_id for c in demo_repo.list_cases()]
    assert ids[0] == "aaa-first"
    assert ids == sorted(ids)


def test_out_of_order_stores_sort_only_at_the_next_listing(demo_repo, monkeypatch):
    demo_repo.list_cases()  # load the scan before the writes
    sorts = []
    monkeypatch.setattr(
        repository_module, "sorted", lambda items: sorts.append(1) or sorted(items), raising=False
    )
    case = demo_repo.get_case("botnet-01")
    for case_id in ("mmm", "aaa", "zzz", "bbb"):
        demo_repo.add_case(replace(case, case_id=case_id))
    assert sorts == []  # no store re-sorts the scan
    ids = [c.case_id for c in demo_repo.list_cases()]
    assert ids == sorted(ids) and {"aaa", "bbb", "mmm", "zzz"} <= set(ids)
    assert [c.case_id for c in demo_repo.list_cases()] == ids
    assert sorts == [1]


def test_scan_orders_by_case_id_not_file_name(tmp_path):
    # "x-1.json" sorts before "x.json", but "x" sorts before "x-1".
    repo = Repository.attach(tmp_path / "repo")
    case = demo.precedent_cases()[0]
    for case_id in ("x-1", "x", "x.b"):
        repo.add_case(replace(case, case_id=case_id))
    scanned = Repository.open(tmp_path / "repo")
    assert [c.case_id for c in scanned.list_cases()] == ["x", "x-1", "x.b"]


class TestIntentionFrequencies:
    def test_two_by_two(self, repo):
        cases = demo.precedent_cases()[:4]
        for i, case in enumerate(cases):
            intention = Intention("i1" if i < 2 else "i2", "goal")
            repo.add_case(replace(case, case_id=f"c{i}", intention=intention))
        assert repo.intention_frequencies() == {"i1": 0.5, "i2": 0.5}

    def test_single_intention(self, repo):
        for i, case in enumerate(demo.precedent_cases()[:3]):
            repo.add_case(
                replace(case, case_id=f"c{i}", intention=Intention("i1", "goal"))
            )
        assert repo.intention_frequencies() == {"i1": 1.0}

    def test_fixture_uniform_over_eleven(self, demo_repo):
        frequencies = demo_repo.intention_frequencies()
        assert len(frequencies) == 11
        for value in frequencies.values():
            assert value == pytest.approx(1 / 11)

    def test_empty_repository(self, repo):
        with pytest.raises(EmptyRepository):
            repo.intention_frequencies()

    def test_in_flight_cases_not_counted(self, repo):
        case = replace(demo.precedent_cases()[0], status=CaseStatus.INCIPIENT)
        repo.add_case(case)
        with pytest.raises(EmptyRepository):
            repo.intention_frequencies()


def test_reopen_preserves_bytes(tmp_path):
    repo = demo.install_demo_repository(tmp_path / "repo")
    paths = sorted((repo.root / "cases").glob("*.json"))
    before = {p.name: p.read_bytes() for p in paths}
    reopened = Repository.open(repo.root)
    after = {p.name: p.read_bytes() for p in sorted((repo.root / "cases").glob("*.json"))}
    assert before == after
    for case_id in before:
        stored = reopened.get_case(case_id.removesuffix(".json"))
        assert canonical_dumps(case_to_dict(stored)).encode() == before[case_id]


def test_interrupted_write_leaves_no_partial_record(repo, monkeypatch):
    case = demo.precedent_cases()[0]

    def boom(src, dst):
        raise OSError("simulated crash between write and rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(IoFailure):
        repo.add_case(case)
    monkeypatch.undo()
    reopened = Repository.open(repo.root)
    assert reopened.case_count() == 0
    assert not (repo.root / "cases" / f"{case.case_id}.json").exists()


def test_failed_replace_keeps_the_old_bytes_and_no_temp_file(repo, monkeypatch):
    case = replace(demo.precedent_cases()[0], status=CaseStatus.INCIPIENT)
    repo.add_case(case)
    path = repo.root / "cases" / f"{case.case_id}.json"
    written = path.read_bytes()

    def boom(src, dst):
        raise OSError("simulated failure of the rename")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(IoFailure):
        repo.update_case(replace(case, status=CaseStatus.REVISED_ACCEPTED))
    assert path.read_bytes() == written
    assert os.listdir(repo.root / "cases") == [path.name]


def test_writes_keep_the_mode_a_plain_open_gives(tmp_path):
    old_umask = os.umask(0o027)
    try:
        repo = Repository.attach(tmp_path / "repo")
        repo.add_case(demo.precedent_cases()[0])
    finally:
        os.umask(old_umask)
    for path in (repo.root / "meta.json", repo.root / "cases" / "botnet-01.json"):
        assert path.stat().st_mode & 0o777 == 0o640


def test_scan_ignores_stale_temp_files(tmp_path):
    root = tmp_path / "repo"
    demo.install_demo_repository(root)
    (root / "cases" / ".botnet-01.json.tmp").write_text("{ partial", encoding="utf-8")
    (root / "cases" / ".botnet-02.json.5f3a9c1e.tmp").write_text("", encoding="utf-8")
    assert Repository.open(root).case_count() == 11


def test_attach_when_another_process_creates_meta_first(tmp_path, monkeypatch):
    """The other process creates meta.json just before this one publishes its own."""
    root = tmp_path / "repo"
    interleaved = []

    def publish_after_the_other_process(real):
        def publish(src, dst, *args, **kwargs):
            if os.path.basename(dst) == "meta.json" and not interleaved:
                interleaved.append(dst)
                Repository.attach(root)
            return real(src, dst, *args, **kwargs)

        return publish

    for name in ("replace", "link"):
        monkeypatch.setattr(os, name, publish_after_the_other_process(getattr(os, name)))
    Repository.attach(root)
    assert interleaved
    assert sorted(os.listdir(root)) == ["attacks", "cases", "meta.json", "networks"]
    assert json.loads((root / "meta.json").read_text(encoding="utf-8")) == {
        "schema_version": 1
    }


def test_attach_beside_another_writers_temp_file(tmp_path):
    """A temp name another writer holds (here one that cannot be written
    over) is left alone."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / ".meta.json.tmp").mkdir()
    Repository.attach(root).add_case(demo.precedent_cases()[0])
    assert sorted(os.listdir(root)) == [
        ".meta.json.tmp", "attacks", "cases", "meta.json", "networks",
    ]


_ATTACH_AT = """
import sys, time
from intent_cbr.repository import Repository
base, start, rounds = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
for i in range(rounds):
    while time.time() < start + i * 0.02:
        pass
    Repository.attach(f"{base}/r{i}")
"""


def test_two_processes_attach_new_repositories_at_once(tmp_path):
    """Two processes attach the same new repositories at the same instants."""
    rounds = 30
    env = dict(os.environ, PYTHONPATH=str(Path(repository_module.__file__).parents[1]))
    start = time.time() + 1.0
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _ATTACH_AT, str(tmp_path), str(start), str(rounds)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    for i in range(rounds):
        root = tmp_path / f"r{i}"
        assert sorted(os.listdir(root)) == ["attacks", "cases", "meta.json", "networks"]
        assert Repository.open(root).case_count() == 0


def test_schema_version_mismatch(tmp_path):
    root = tmp_path / "repo"
    Repository.open(root)
    (root / "meta.json").write_text('{"schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        Repository.open(root)


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_schema_version_must_be_an_exact_int(tmp_path, version):
    """``True == 1`` and ``1.0 == 1``, yet neither is schema version 1."""
    root = tmp_path / "repo"
    Repository.open(root)
    (root / "meta.json").write_text(f'{{"schema_version": {version}}}\n', encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        Repository.attach(root)


def test_corrupt_meta_reported(tmp_path):
    root = tmp_path / "repo"
    Repository.open(root)
    (root / "meta.json").write_text("{ broken", encoding="utf-8")
    with pytest.raises(CorruptRecord) as excinfo:
        Repository.open(root)
    assert "meta.json" in excinfo.value.details


def test_open_on_plain_file_fails(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("x", encoding="utf-8")
    with pytest.raises(IoFailure):
        Repository.open(target)


def test_attack_round_trip_and_duplicate(repo):
    attack = demo.keylogging_attack()
    repo.save_attack(attack)
    assert repo.load_attack(attack.id) == attack
    with pytest.raises(DuplicateCaseId):
        repo.save_attack(attack)


def test_network_round_trip(repo):
    network = demo.demo_network()
    repo.save_network(network)
    assert repo.load_network(network.attack_id) == network
    with pytest.raises(UnknownCaseId):
        repo.load_network("ghost")


def test_save_network_replaces_a_stored_network(tmp_path):
    first = Repository.attach(tmp_path / "repo")
    network = demo.demo_network()
    first.save_network(network)
    second = replace(network, priors={"int-exfil": 0.25, "int-recon": 0.75})
    Repository.attach(tmp_path / "repo").save_network(second)
    assert first.load_network(network.attack_id) == second


def _edit_network(**fields):
    def damage(text):
        return json.dumps({**json.loads(text), **fields})

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[:40],
        lambda text: "[]",
        _edit_network(priors={"int-exfil": 0.9, "int-recon": 0.9}),
        _edit_network(attack_id="other"),
        lambda text: "\ufeff" + text,
    ],
    ids=["truncated", "json-array", "invalid", "other-id", "byte-order-mark"],
)
def test_corrupt_network_reported(repo, damage):
    network = demo.demo_network()
    repo.save_network(network)
    target = repo.root / "networks" / f"{network.attack_id}.json"
    target.write_text(damage(target.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(CorruptRecord) as excinfo:
        repo.load_network(network.attack_id)
    assert f"networks/{network.attack_id}" in excinfo.value.details


def test_invalid_network_rejected(repo):
    network = demo.demo_network()
    bad = replace(network, priors={"int-exfil": 0.9, "int-recon": 0.9})
    with pytest.raises(ValidationFailure):
        repo.save_network(bad)


def test_store_confirmed_updates_own_in_flight_record(repo):
    case = replace(demo.precedent_cases()[0], status=CaseStatus.REVISED_ACCEPTED)
    repo.add_case(case)
    retained = replace(case, status=CaseStatus.RETAINED)
    repo.store_confirmed(retained)
    assert repo.get_case(case.case_id).status == CaseStatus.RETAINED
    assert repo.case_count() == 1


def test_second_handle_cannot_overwrite_a_case(tmp_path):
    first = Repository.open(tmp_path / "repo")
    second = Repository.open(tmp_path / "repo")
    case = demo.precedent_cases()[0]
    first.add_case(case)
    path = tmp_path / "repo" / "cases" / f"{case.case_id}.json"
    written = path.read_bytes()
    with pytest.raises(DuplicateCaseId):
        second.add_case(replace(case, provenance="second handle"))
    assert path.read_bytes() == written


def _second_attack(attack):
    return replace(attack, name="second handle")


@pytest.mark.parametrize(
    "first, second, to_dict, record, save",
    [
        (demo.keylogging_attack(), _second_attack(demo.keylogging_attack()),
         attack_to_dict, "attacks/keylogging.json", "save_attack"),
    ],
    ids=["attack"],
)
def test_save_decides_existence_under_the_writer_lock(
    tmp_path, monkeypatch, first, second, to_dict, record, save
):
    """A save that waited for the lock must not overwrite what the holder wrote."""
    repo = Repository.attach(tmp_path / "repo")
    path = tmp_path / "repo" / record
    first_doc = canonical_dumps(to_dict(first))
    real_flock = fcntl.flock
    with open(tmp_path / "repo" / "meta.json", "r+", encoding="utf-8") as holder:
        real_flock(holder.fileno(), fcntl.LOCK_EX)

        def flock(fd, operation):
            if operation == fcntl.LOCK_EX and fd != holder.fileno():
                # The save now waits for the lock: the holder stores the
                # first record and lets go.
                path.write_text(first_doc, encoding="utf-8")
                real_flock(holder.fileno(), fcntl.LOCK_UN)
            real_flock(fd, operation)

        monkeypatch.setattr(repository_module.fcntl, "flock", flock)
        with pytest.raises(DuplicateCaseId):
            getattr(repo, save)(second)
    assert path.read_text(encoding="utf-8") == first_doc


def test_existence_is_decided_from_disk_across_handles(tmp_path):
    first = Repository.attach(tmp_path / "repo")
    second = Repository.attach(tmp_path / "repo")
    case = replace(demo.precedent_cases()[0], status=CaseStatus.INCIPIENT)
    first.add_case(case)
    assert second.has_case(case.case_id)
    accepted = replace(case, status=CaseStatus.REVISED_ACCEPTED)
    second.update_case(accepted)
    assert first.get_case(case.case_id) == accepted
    first.store_confirmed(replace(case, status=CaseStatus.RETAINED))
    with pytest.raises(DuplicateCaseId):
        second.store_confirmed(replace(case, status=CaseStatus.RETAINED))


def test_a_stale_update_leaves_a_case_another_handle_moved_on(tmp_path):
    first = Repository.attach(tmp_path / "repo")
    second = Repository.attach(tmp_path / "repo")
    incipient = replace(demo.precedent_cases()[0], case_id="k-c1", status=CaseStatus.INCIPIENT)
    first.add_case(incipient)
    seen_by_first = first.get_case("k-c1")
    seen_by_second = second.get_case("k-c1")
    accepted = cbr.revise(seen_by_first, cbr.ReviseVerdict(verdict="accept"))
    first.update_case(accepted)
    cbr.retain(accepted, first)
    path = tmp_path / "repo" / "cases" / "k-c1.json"
    retained = path.read_bytes()
    rejected = cbr.revise(seen_by_second, cbr.ReviseVerdict(verdict="reject", rationale="benign"))
    with pytest.raises(IllegalTransition, match="retained -> revised-rejected is not legal"):
        second.update_case(rejected)
    assert path.read_bytes() == retained
    assert Repository.attach(tmp_path / "repo").get_case("k-c1").status == CaseStatus.RETAINED


def _corrupt(root, case_id):
    (root / "cases" / f"{case_id}.json").write_text("{ not json", encoding="utf-8")


def test_attach_reads_only_the_records_asked_for(tmp_path):
    demo.install_demo_repository(tmp_path / "repo")
    _corrupt(tmp_path / "repo", "botnet-02")
    repo = Repository.attach(tmp_path / "repo")
    assert repo.get_case("botnet-01").case_id == "botnet-01"
    assert repo.has_case("botnet-02")
    with pytest.raises(CorruptRecord) as excinfo:
        repo.get_case("botnet-02")
    assert list(excinfo.value.details) == ["botnet-02"]


@pytest.mark.parametrize(
    "call",
    [
        lambda repo: repo.list_cases(),
        lambda repo: repo.case_count(),
        lambda repo: repo.intention_frequencies(),
    ],
    ids=["list_cases", "case_count", "intention_frequencies"],
)
def test_full_scan_reports_every_corrupt_record(tmp_path, call):
    demo.install_demo_repository(tmp_path / "repo")
    _corrupt(tmp_path / "repo", "botnet-02")
    _corrupt(tmp_path / "repo", "botnet-07")
    repo = Repository.attach(tmp_path / "repo")
    with pytest.raises(CorruptRecord) as excinfo:
        call(repo)
    assert sorted(excinfo.value.details) == ["botnet-02", "botnet-07"]


def test_full_scan_runs_once_and_writes_keep_it_current(tmp_path, monkeypatch):
    demo.install_demo_repository(tmp_path / "repo")
    repo = Repository.attach(tmp_path / "repo")
    decoded = []
    original = repository_module.case_from_dict

    def counting(doc):
        decoded.append(doc["case_id"])
        return original(doc)

    monkeypatch.setattr(repository_module, "case_from_dict", counting)
    assert repo.case_count() == 11
    assert len(repo.list_cases(status="precedent")) == 11
    assert len(decoded) == 11
    case = replace(repo.get_case("botnet-01"), case_id="retained-one", status=CaseStatus.RETAINED)
    repo.add_case(case)
    assert [c.case_id for c in repo.list_cases(status="retained")] == ["retained-one"]
    assert repo.case_count() == 12


@pytest.mark.parametrize(
    "name", ["._botnet-01.json", ".b3.json"], ids=["macos-sidecar", "unsafe-id"]
)
def test_full_scan_skips_case_files_that_are_no_records(tmp_path, name):
    """Only ``<safe id>.json`` is a record, for the scan as for get_case."""
    root = tmp_path / "repo"
    demo.install_demo_repository(root)
    expected = Repository.open(root).list_cases()
    if name == ".b3.json":
        content = canonical_dumps(case_to_dict(replace(expected[0], case_id=".b3"))).encode()
    else:
        content = b"\x00\x05\x16\x07Mac OS X        \x00\x02"
    (root / "cases" / name).write_bytes(content)
    repo = Repository.open(root)
    assert repo.list_cases() == expected
    assert repo.case_count() == 11
    with pytest.raises(UnknownCaseId):
        repo.get_case(name[: -len(".json")])


@pytest.mark.parametrize("record_id", ["../cases/botnet-01", "../../outside", "botnet-01\n"])
def test_unsafe_ids_are_not_stored(tmp_path, record_id):
    repo = demo.install_demo_repository(tmp_path / "repo")
    repo.save_attack(demo.keylogging_attack())
    repo.save_network(demo.demo_network())
    (tmp_path / "outside.json").write_text(
        (repo.root / "attacks" / "keylogging.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert not repo.has_case(record_id)
    assert not repo.has_attack(record_id)
    with pytest.raises(UnknownCaseId):
        repo.get_case(record_id)
    with pytest.raises(UnknownCaseId):
        repo.load_attack(record_id)
    with pytest.raises(UnknownCaseId):
        repo.load_network(record_id)


# --- the decoder contract of the scan -----------------------------------------


def _case_doc():
    return {
        "case_id": "c1",
        "attack": {
            "id": "a1",
            "name": "A1",
            "detection_state": 0.9,
            "evidence": [
                {
                    "id": "e1",
                    "kind": "tool-usage",
                    "attributes": {"tool": "agobot"},
                    "description": "bot binary",
                    "confidence": 0.8,
                },
                {
                    "id": "e2",
                    "kind": "port-exploit",
                    "attributes": {"port": "6667"},
                    "description": "irc port",
                    "confidence": 0.5,
                },
            ],
        },
        "intention": {"id": "i1", "label": "botnet", "category": None},
        "evidence_weights": {"e1": 0.75, "e2": 0.25},
        "status": "precedent",
        "provenance": "analyst",
        "created_at": "2024-01-01T00:00:00Z",
    }


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _set(*path, value):
    def mutate(doc):
        parent, key = _at(doc, path)
        parent[key] = value
        return doc

    return mutate


def _drop(*path):
    def mutate(doc):
        parent, key = _at(doc, path)
        del parent[key]
        return doc

    return mutate


def _scan_one(tmp_path, doc):
    root = tmp_path / "repo"
    Repository.attach(root)
    text = doc if isinstance(doc, str) else json.dumps(doc)
    (root / "cases" / "c1.json").write_text(text, encoding="utf-8")
    return Repository.open(root)


_EV = ("attack", "evidence", 0)


@pytest.mark.parametrize(
    "mutate, cause, reason",
    [
        (_drop("case_id"), ValidationFailure, "unparseable: missing required field 'case_id'"),
        (_drop("attack"), ValidationFailure, "unparseable: missing required field 'attack'"),
        (_drop("status"), ValidationFailure, "unparseable: missing required field 'status'"),
        (_drop("evidence_weights"), ValidationFailure,
         "unparseable: missing required field 'evidence_weights'"),
        (_drop("attack", "id"), ValidationFailure, "unparseable: missing required field 'id'"),
        (_drop("attack", "evidence"), ValidationFailure,
         "unparseable: missing required field 'evidence'"),
        (_drop(*_EV, "id"), ValidationFailure, "unparseable: missing required field 'id'"),
        (_drop(*_EV, "kind"), ValidationFailure, "unparseable: missing required field 'kind'"),
        (_set("case_id", value=7), ValidationFailure,
         "unparseable: field 'case_id' has wrong type int"),
        (_set("attack", value=[]), ValidationFailure,
         "unparseable: field 'attack' has wrong type list"),
        (_set("attack", "id", value=None), ValidationFailure,
         "unparseable: field 'id' has wrong type NoneType"),
        (_set("attack", "evidence", value={}), ValidationFailure,
         "unparseable: field 'evidence' has wrong type dict"),
        (_set(*_EV, "id", value=3), ValidationFailure,
         "unparseable: field 'id' has wrong type int"),
        (_set("evidence_weights", value=[0.75, 0.25]), ValidationFailure,
         "unparseable: field 'evidence_weights' has wrong type list"),
        (_set("status", value=None), ValidationFailure,
         "unparseable: field 'status' has wrong type NoneType"),
        (_set(*_EV, "confidence", value=True), ValidationFailure,
         "unparseable: field 'confidence' must be a number"),
        (_set("attack", "detection_state", value=False), ValidationFailure,
         "unparseable: field 'detection_state' must be a number"),
        (_set("evidence_weights", "e2", value=True), ValidationFailure,
         "unparseable: field 'evidence_weights[e2]' must be a number"),
        (_set(*_EV, "confidence", value="0.8"), ValidationFailure,
         "unparseable: field 'confidence' must be a number"),
        (_set("evidence_weights", "e1", value=None), ValidationFailure,
         "unparseable: field 'evidence_weights[e1]' must be a number"),
        (_set(*_EV, "kind", value="keylogger"), ValueError,
         "unparseable: 'keylogger' is not a valid EvidenceKind"),
        (_set("status", value="archived"), ValueError,
         "unparseable: 'archived' is not a valid CaseStatus"),
        (_set(*_EV, "kind", value=["tool-usage"]), ValidationFailure,
         "unparseable: field 'kind' has wrong type list"),
        (_set(*_EV, "kind", value={"tool-usage": 1}), ValidationFailure,
         "unparseable: field 'kind' has wrong type dict"),
        (_set("status", value=["precedent"]), ValidationFailure,
         "unparseable: field 'status' has wrong type list"),
        (_set("status", value={"precedent": 1}), ValidationFailure,
         "unparseable: field 'status' has wrong type dict"),
        (_set(*_EV, "attributes", value=["tool", "agobot"]), ValidationFailure,
         "unparseable: field 'attributes' has wrong type list"),
        (_set(*_EV, "attributes", value="tool=agobot"), ValidationFailure,
         "unparseable: field 'attributes' has wrong type str"),
        (_set("attack", "evidence", 0, value=1), ValidationFailure,
         "unparseable: field 'evidence[0]' has wrong type int"),
        (_set("attack", "evidence", 0, value=[]), ValidationFailure,
         "unparseable: field 'evidence[0]' has wrong type list"),
        (_set("attack", "evidence", 1, value="e2"), ValidationFailure,
         "unparseable: field 'evidence[1]' has wrong type str"),
        (_set("intention", value="botnet"), ValidationFailure,
         "unparseable: field 'intention' has wrong type str"),
        (_set("intention", value=[1]), ValidationFailure,
         "unparseable: field 'intention' has wrong type list"),
        (lambda doc: [doc], ValidationFailure,
         "unparseable: document has wrong type list"),
        (_set(*_EV, "attributes", value={"tool": None}), ValidationFailure,
         "unparseable: field 'attributes[tool]' has wrong type NoneType"),
        (_set("evidence_weights", "e1", value=float("nan")), None,
         "evidence_weights['e1']: nan is not finite"),
        (_set("evidence_weights", "e1", value=float("inf")), None,
         "evidence_weights['e1']: inf is not finite"),
        (_set("evidence_weights", value={"e1": float("inf"), "e2": -float("inf")}), None,
         "evidence_weights['e1']: inf is not finite; evidence_weights['e2']: -inf is not finite"),
        (_set(*_EV, "confidence", value=float("nan")), None,
         "evidence 'e1': confidence nan outside [0,1]"),
        (_set("evidence_weights", "e1", value=1.5), None,
         "evidence_weights: sum 1.75 != 1 for status 'precedent'"),
        (_set("evidence_weights", value={"e1": 1e308, "e2": 1e308}), None,
         "evidence_weights: sum nan != 1 for status 'precedent'"),
        (_set("case_id", value="c2"), None, "file name does not match case_id 'c2'"),
        (_set("attack", "id", value=""), None, "attack.id: must be non-empty"),
        (_set("intention", "label", value=""), None, "intention.label: must be non-empty"),
    ],
)
def test_scan_reports_a_malformed_case(tmp_path, mutate, cause, reason):
    with pytest.raises(CorruptRecord) as excinfo:
        _scan_one(tmp_path, mutate(_case_doc()))
    assert excinfo.value.details == {"c1": reason}
    assert str(excinfo.value) == "corrupt records: c1"
    # A single read raises the same record, chained to what the decoder raised.
    with pytest.raises(CorruptRecord) as excinfo:
        Repository.attach(tmp_path / "repo").get_case("c1")
    assert excinfo.value.details == {"c1": reason}
    assert type(excinfo.value.__cause__) is (type(None) if cause is None else cause)


@pytest.mark.parametrize(
    "mutate, read, expected",
    [
        (_set(*_EV, "confidence", value=1), lambda c: c.attack.evidence[0].confidence, 1.0),
        (_set("attack", "detection_state", value=0), lambda c: c.attack.detection_state, 0.0),
        (_set("evidence_weights", value={"e1": 1, "e2": 0}),
         lambda c: c.evidence_weights, {"e1": 1.0, "e2": 0.0}),
        (_set(*_EV, "description", value=5), lambda c: c.attack.evidence[0].description, "5"),
        (_set(*_EV, "description", value=None),
         lambda c: c.attack.evidence[0].description, ""),
        (_set(*_EV, "attributes", value={"port": 6667}),
         lambda c: c.attack.evidence[0].attributes, {"port": "6667"}),
        (_drop(*_EV, "confidence"), lambda c: c.attack.evidence[0].confidence, 1.0),
        (_drop("attack", "name"), lambda c: c.attack.name, "a1"),
        (_set("provenance", value=3), lambda c: c.provenance, "3"),
        # A null optional field reads as an absent one, as in input files.
        (_set("attack", "name", value=None), lambda c: c.attack.name, "a1"),
        (_set("provenance", value=None), lambda c: c.provenance, ""),
        (_set("created_at", value=None), lambda c: c.created_at, ""),
    ],
)
def test_scan_converts_loose_values_as_before(tmp_path, mutate, read, expected):
    repo = _scan_one(tmp_path, mutate(_case_doc()))
    value = read(repo.get_case("c1"))
    assert value == expected
    scanned = read(repo.list_cases()[0])
    assert scanned == expected
    if isinstance(expected, dict):
        assert all(type(v) is type(expected[k]) for k, v in scanned.items())
    else:
        assert type(scanned) is type(expected)


def test_a_case_file_larger_than_one_read_is_read_whole(tmp_path):
    doc = _set(*_EV, "description", value="d" * 100_000)(_case_doc())
    repo = _scan_one(tmp_path, doc)
    assert (tmp_path / "repo" / "cases" / "c1.json").stat().st_size > 65536
    expected = case_from_dict(doc)
    assert repo.get_case("c1") == expected
    assert repo.list_cases() == [expected]


def test_scan_loads_a_case_file_with_crlf_line_endings(tmp_path):
    text = canonical_dumps(_case_doc())
    repo = _scan_one(tmp_path, text.replace("\n", "\r\n"))
    assert repo.list_cases() == [case_from_dict(json.loads(text))]


def test_scan_names_a_case_file_that_is_not_utf8(tmp_path):
    root = tmp_path / "repo"
    Repository.attach(root)
    (root / "cases" / "c1.json").write_bytes(
        canonical_dumps(_case_doc()).encode("utf-8").replace(b"bot binary", b"bot \xff")
    )
    with pytest.raises(CorruptRecord) as excinfo:
        Repository.open(root)
    offset = canonical_dumps(_case_doc()).encode("utf-8").index(b"bot binary") + 4
    assert excinfo.value.details == {
        "c1": f"unparseable: 'utf-8' codec can't decode byte 0xff in position {offset}:"
        " invalid start byte"
    }


def test_a_cases_directory_that_cannot_be_listed_is_io_failure(tmp_path):
    repo = Repository.attach(tmp_path / "repo")
    (tmp_path / "repo" / "cases").rmdir()
    with pytest.raises(IoFailure, match="cannot list .*cases"):
        repo.list_cases()


def test_a_case_file_that_cannot_be_stated_is_io_failure(demo_repo, monkeypatch):
    unstatable_case_file(monkeypatch, "botnet-03")
    query = replace(demo.precedent_cases()[0], case_id="query", status=CaseStatus.PROPOSED)
    with pytest.raises(IoFailure, match=r"cannot stat .*cases/botnet-03\.json: .*simulated stat failure"):
        cbr.retrieve(query, Repository.attach(demo_repo.root), k=3)


def test_the_writer_lock_on_a_vanished_meta_json_is_io_failure(repo):
    (repo.root / "meta.json").unlink()
    with pytest.raises(IoFailure, match="cannot lock .*meta.json"):
        repo.add_case(demo.precedent_cases()[0])
    assert os.listdir(repo.root / "cases") == []


def test_a_failed_temp_write_leaves_no_temp_file(repo, monkeypatch):
    class FailingWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError("simulated full disk")

    def open_failing_writes(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        # The temp file is opened by descriptor; meta.json (the lock) by path.
        return FailingWrite(fh) if isinstance(file, int) else fh

    monkeypatch.setattr(repository_module, "open", open_failing_writes, raising=False)
    with pytest.raises(IoFailure, match="simulated full disk"):
        repo.add_case(demo.precedent_cases()[0])
    assert os.listdir(repo.root / "cases") == []


def test_save_attack_refuses_an_invalid_attack(repo):
    attack = replace(demo.keylogging_attack(), detection_state=1.5)
    with pytest.raises(ValidationFailure, match=r"detection_state: 1.5 outside \[0,1\]"):
        repo.save_attack(attack)
    assert os.listdir(repo.root / "attacks") == []


def _first_evidence(**changes):
    def mutate(case):
        ev = replace(case.attack.evidence[0], **changes)
        return replace(case, attack=replace(case.attack, evidence=(ev, *case.attack.evidence[1:])))

    return mutate


def _attack(**changes):
    return lambda case: replace(case, attack=replace(case.attack, **changes))


def _intention(**changes):
    return lambda case: replace(case, intention=replace(case.intention, **changes))


def _records(root):
    return {
        path: path.read_bytes()
        for sub in ("cases", "attacks", "networks")
        for path in (root / sub).iterdir()
    }


# --- the write rule: a write stores only what a read gives back -----------------
#
# Each write decodes and validates its record's document as every later read
# does. A record that a read would report corrupt, or read back unequal, is
# refused with one ValidationFailure, and nothing is written.


def _case_writes(mutate):
    """The three case writes of the in-flight case 'x1' changed by `mutate`."""

    def writes(repo, in_flight):
        bad = mutate(in_flight)
        return [
            lambda: repo.add_case(replace(bad, case_id="x2")),
            lambda: repo.update_case(replace(bad, status=CaseStatus.REVISED_ACCEPTED)),
            lambda: repo.store_confirmed(replace(bad, status=CaseStatus.RETAINED)),
        ]

    return writes


def _case_and_attack_writes(mutate):
    """The case writes, and save_attack of the changed case's attack."""

    def writes(repo, in_flight):
        attack = replace(mutate(in_flight).attack, id="x-attack")
        return [*_case_writes(mutate)(repo, in_flight), lambda: repo.save_attack(attack)]

    return writes


def _network_write(**changes):
    """save_network of the demo network, under a new id, changed by `changes`."""
    network = replace(demo.demo_network(), attack_id="x-net", **changes)
    return lambda repo, in_flight: [lambda: repo.save_network(network)]


def _assert_refused(tmp_path, handle, *writes, reason=None):
    """Each write raises a ValidationFailure (matching `reason`), the stored
    files are unchanged, and the repository still opens."""
    root = tmp_path / "repo"
    demo.install_demo_repository(root)
    repo = handle(root)
    in_flight = replace(demo.precedent_cases()[0], case_id="x1", status=CaseStatus.INCIPIENT)
    repo.add_case(in_flight)
    before = _records(root)
    for make in writes:
        for write in make(repo, in_flight):
            with pytest.raises(ValidationFailure, match=reason):
                write()
    assert _records(root) == before
    assert repo.get_case("x1") == in_flight
    assert Repository.open(root).case_count() == 12


_HANDLES = pytest.mark.parametrize(
    "handle", [Repository.open, Repository.attach], ids=["open", "attach"]
)


def _intentions(**changes):
    first, second = demo.demo_network().intentions
    return (replace(first, **changes), second)


@_HANDLES
def test_a_bool_confidence_is_never_stored(tmp_path, handle):
    # A bool is an int, so a range check alone passed True; the read refuses it.
    _assert_refused(
        tmp_path, handle, _case_and_attack_writes(_first_evidence(confidence=True)),
        reason="field 'confidence' must be a number",
    )


@_HANDLES
def test_a_bool_detection_state_is_never_stored(tmp_path, handle):
    _assert_refused(
        tmp_path, handle, _case_and_attack_writes(_attack(detection_state=True)),
        reason="field 'detection_state' must be a number",
    )


@_HANDLES
def test_an_intention_category_that_is_not_text_is_never_stored(tmp_path, handle):
    _assert_refused(
        tmp_path, handle,
        _case_writes(_intention(category=2.5)),
        _network_write(intentions=_intentions(category=2.5)),
        reason="field 'category' has wrong type float",
    )


@_HANDLES
def test_an_attribute_key_that_is_not_text_is_never_stored(tmp_path, handle):
    # JSON would store the key 1 as "1", which reads back unequal.
    _assert_refused(
        tmp_path, handle, _case_and_attack_writes(_first_evidence(attributes={1: "x"})),
        reason="key 1 is not text",
    )


def _network_keyed_by(iid="int-exfil", eid="dev01"):
    """The network write with intention id `iid` and evidence id `eid`."""
    return _network_write(
        intentions=_intentions(id=iid),
        evidence_ids=(eid, "dev02"),
        priors={iid: 0.5, "int-recon": 0.5},
        likelihoods={eid: {iid: 0.8, "int-recon": 0.4}, "dev02": {iid: 0.7, "int-recon": 0.5}},
    )


@_HANDLES
@pytest.mark.parametrize(
    "writes, key",
    [
        (_case_and_attack_writes(_first_evidence(attributes={1: "x", "a": "y"})), "1"),
        (_network_keyed_by(iid=1), "1"),
        (_network_keyed_by(eid=2.5), "2.5"),
    ],
    ids=["attribute", "network-intention-id", "network-evidence-id"],
)
def test_a_mixed_key_is_refused_as_not_text_not_by_the_key_sort(tmp_path, handle, writes, key):
    _assert_refused(tmp_path, handle, writes, reason=f"key {key} is not text")


@_HANDLES
def test_a_weight_that_is_text_is_never_stored(tmp_path, handle):
    def mutate(case):
        weights = dict(case.evidence_weights)
        weights[next(iter(weights))] = "0.5"
        return replace(case, evidence_weights=weights)

    _assert_refused(
        tmp_path, handle, _case_writes(mutate), reason=r"field 'evidence_weights\[.*\]' must be a number"
    )


@_HANDLES
def test_tuple_valued_attributes_are_never_stored(tmp_path, handle):
    _assert_refused(
        tmp_path, handle,
        _case_and_attack_writes(_first_evidence(attributes=(("tool", "agobot"),))),
        reason="field 'attributes' has wrong type list",
    )


@_HANDLES
def test_a_list_of_evidence_is_never_stored(tmp_path, handle):
    # A list is stored as a JSON array, which reads back as a tuple: unequal.
    def mutate(case):
        return _attack(evidence=list(case.attack.evidence))(case)

    _assert_refused(
        tmp_path, handle, _case_and_attack_writes(mutate), reason="does not read back as written"
    )


def _with(record, path, value):
    """A copy of `record` with the field at `path` (names, and indices into
    tuples) set to `value`."""
    name, rest = path[0], path[1:]
    if not rest:
        return replace(record, **{name: value})
    inner = getattr(record, name)
    if isinstance(inner, tuple):
        index, rest = rest[0], rest[1:]
        changed = (*inner[:index], _with(inner[index], rest, value), *inner[index + 1:])
        return replace(record, **{name: changed})
    return replace(record, **{name: _with(inner, rest, value)})


_EV0 = ("attack", "evidence", 0)
_CASE_FIELDS = [
    ("case_id",), ("status",), ("provenance",), ("created_at",), ("evidence_weights",),
    ("intention",), ("intention", "id"), ("intention", "label"), ("intention", "category"),
    ("attack", "id"), ("attack", "name"), ("attack", "detection_state"), ("attack", "evidence"),
    (*_EV0, "id"), (*_EV0, "kind"), (*_EV0, "attributes"), (*_EV0, "description"),
    (*_EV0, "confidence"),
]
_SCALARS = st.one_of(
    st.booleans(), st.integers(), st.floats(), st.just(float("nan")), st.text(max_size=4),
    st.none(),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.lists(_SCALARS, max_size=2).map(tuple),
    st.dictionaries(st.one_of(st.integers(), st.text(max_size=2)), _SCALARS, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_CASE_FIELDS), value=_VALUES)
def test_add_case_stores_a_record_only_if_it_reads_back_equal(tmp_path_factory, path, value):
    root = tmp_path_factory.mktemp("write-rule")
    repo = Repository.attach(root)
    case = _with(demo.precedent_cases()[0], path, value)
    try:
        repo.add_case(case)
    except ValidationFailure:
        assert os.listdir(root / "cases") == []
    else:
        assert Repository.open(root).get_case(case.case_id) == case


# A number JSON cannot hold keeps the validator's message, which names it.
@pytest.mark.parametrize(
    "writes, reason",
    [
        (_case_writes(_first_evidence(confidence=float("nan"))), "confidence nan outside [0,1]"),
        (_case_writes(lambda case: replace(case, evidence_weights={
            key: float("inf") for key in case.evidence_weights
        })), "evidence_weights['botnet-01-ev01']: inf is not finite"),
        (_network_write(priors={"int-exfil": float("nan"), "int-recon": 0.5}),
         "priors['int-exfil']: nan is not finite"),
    ],
    ids=["confidence", "weight", "prior"],
)
def test_a_number_that_is_not_finite_is_named_by_the_validator(tmp_path, writes, reason):
    _assert_refused(tmp_path, Repository.attach, writes, reason=re.escape(reason))


# A stored value that is not text reads back as a corrupt record, so a write
# refuses it as a read would.
@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_first_evidence(attributes={"x": 1.5}), "field 'attributes[x]' has wrong type float"),
        (_first_evidence(attributes={"x": 443}), "field 'attack' does not read back as written"),
        (_first_evidence(attributes={"x": None}), "field 'attributes[x]' has wrong type NoneType"),
        (_first_evidence(description=True), "field 'description' has wrong type bool"),
    ],
    ids=["float-attribute", "int-attribute", "null-attribute", "bool-description"],
)
def test_add_case_refuses_a_value_that_is_not_text(repo, mutate, reason):
    case = mutate(demo.precedent_cases()[0])
    with pytest.raises(ValidationFailure, match=re.escape(reason)):
        repo.add_case(case)
    assert os.listdir(repo.root / "cases") == []
    assert repo.list_cases() == []


# Each text field of a stored case, holding a float: every write refuses it,
# since a read would report the record corrupt.
_NOT_TEXT = {
    "attack-id": (_attack(id=1.5), "field 'id' has wrong type float"),
    "attack-name": (_attack(name=1.5), "field 'name' has wrong type float"),
    "evidence-id": (_first_evidence(id=1.5), "field 'id' has wrong type float"),
    "intention-id": (_intention(id=1.5), "field 'id' has wrong type float"),
    "intention-label": (_intention(label=1.5), "field 'label' has wrong type float"),
    "intention-category": (_intention(category=1.5), "field 'category' has wrong type float"),
    "provenance": (lambda case: replace(case, provenance=1.5), "field 'provenance' has wrong type float"),
    "created-at": (lambda case: replace(case, created_at=1.5), "field 'created_at' has wrong type float"),
}


@_HANDLES
@pytest.mark.parametrize("mutate, reason", _NOT_TEXT.values(), ids=_NOT_TEXT)
def test_no_case_write_stores_a_field_that_is_not_text(tmp_path, handle, mutate, reason):
    _assert_refused(tmp_path, handle, _case_writes(mutate), reason=reason)


@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"id": 1.5}, "attack id 1.5 not usable as a file name"),
        ({"name": 1.5}, "field 'name' has wrong type float"),
        (
            {"evidence": (replace(demo.keylogging_attack().evidence[0], id=1.5),)},
            "field 'id' has wrong type float",
        ),
    ],
    ids=["id", "name", "evidence-id"],
)
def test_save_attack_refuses_a_field_that_is_not_text(repo, changes, reason):
    with pytest.raises(ValidationFailure, match=reason):
        repo.save_attack(replace(demo.keylogging_attack(), **changes))
    assert _records(repo.root) == {}


# -- the case summary ----------------------------------------------------------


_PRECEDENTS = [f"p{i:02d}" for i in range(40)]


def _summarized(root):
    """A repository of random precedents and a summary of all of them;
    returns a query of the same random make."""
    rng = random.Random(24)
    repo = Repository.attach(root)
    for case_id in _PRECEDENTS:
        repo.add_case(random_case(rng, case_id))
    query = replace(random_case(rng, "q"), case_id="query", status=CaseStatus.PROPOSED)
    settle(root)
    summarizer = Repository.attach(root)
    cbr.retrieve(query, summarizer, k=3)
    summarizer._write_summary()
    assert sorted(_summary_doc(root)["rows"]) == _PRECEDENTS
    return query


def _summary_doc(root):
    """The summary at `root`, its rows by case id."""
    doc = json.loads((root / "summary.json").read_text(encoding="utf-8"))
    return {**doc, "rows": {row[0]: row for row in doc["rows"]}}


def _full_ranking(root, query, k=3):
    return cbr.retrieve(query, Repository.open(root), k=k)


def _model_visits(root, query, k=3):
    """The case ids a top-k retrieve of the precedents at `root` loads and
    those it scores, in order, by the flat two-stage loop."""
    def bound(precedent):
        [value] = summary_module.bounds(query)([summary_module.bound_row(precedent)])
        return value

    return flat_visits(
        Repository.open(root).list_cases(status=CONFIRMED_STATUSES),
        bound,
        lambda precedent: refined_bound(query, precedent),
        lambda precedent: cbr.similarity(query, precedent).score,
        k,
    )


@pytest.fixture
def counted(monkeypatch):
    """Case ids decoded, scored and given a bound row, in call order."""
    calls = {"decoded": [], "scored": [], "rows": []}
    decode, score, bound_row = case_from_dict, cbr.similarity, summary_module.bound_row

    def decoding(doc):
        calls["decoded"].append(doc["case_id"])
        return decode(doc)

    def scoring(new, old):
        calls["scored"].append(old.case_id)
        return score(new, old)

    def building(precedent):
        calls["rows"].append(precedent.case_id)
        return bound_row(precedent)

    monkeypatch.setattr(repository_module, "case_from_dict", decoding)
    monkeypatch.setattr(cbr, "similarity", scoring)
    monkeypatch.setattr(summary_module, "bound_row", building)
    return calls


def test_a_write_on_a_scanned_handle_rebuilds_only_its_own_bound_row(tmp_path, counted):
    rng = random.Random(27)
    repo = Repository.open(tmp_path / "repo")
    for case_id in _PRECEDENTS:
        repo.add_case(random_case(rng, case_id))
    query = replace(random_case(rng, "q"), case_id="query", status=CaseStatus.PROPOSED)
    cbr.retrieve(query, repo, k=3)
    assert counted["rows"] == _PRECEDENTS
    accepted = replace(
        query, case_id="p99", status=CaseStatus.REVISED_ACCEPTED, intention=Intention("int-y", "goal")
    )
    del counted["rows"][:]
    repo.store_confirmed(transition(accepted, CaseStatus.RETAINED))
    del counted["decoded"][:], counted["scored"][:]
    ranking = cbr.retrieve(query, repo, k=3)
    assert counted["rows"] == ["p99"]  # built at the store
    assert counted["decoded"] == []  # a scanned handle loads from its scan
    assert ranking == _full_ranking(tmp_path / "repo", query)
    assert ranking.entries[0].precedent_case_id == "p99"


class TestCaseSummary:
    def test_a_summarized_retrieve_decodes_only_changed_files_and_visited_precedents(
        self, tmp_path, counted
    ):
        root = tmp_path / "repo"
        query = _summarized(root)
        expected = _full_ranking(root, query)
        loaded, scored = _model_visits(root, query)
        for calls in counted.values():
            del calls[:]
        assert cbr.retrieve(query, Repository.attach(root), k=3) == expected
        assert counted["decoded"] == loaded  # each loaded once
        assert counted["scored"] == scored
        assert len(scored) < len(loaded) < len(_PRECEDENTS)
        assert counted["rows"] == []
        # A precedent stored after the summary is read, visited or not.
        Repository.attach(root).add_case(replace(query, case_id="p99", status=CaseStatus.PRECEDENT,
                                                 intention=Intention("int-y", "goal")))
        loaded, scored = _model_visits(root, query)
        for calls in counted.values():
            del calls[:]
        ranking = cbr.retrieve(query, Repository.attach(root), k=3)
        assert ranking.entries[0].precedent_case_id == "p99"
        assert counted["decoded"] == ["p99", *[c for c in loaded if c != "p99"]]
        assert counted["scored"] == scored
        assert counted["rows"] == ["p99"]

    def test_an_attach_only_handle_lists_the_cases_on_each_top_k_call(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        reader = Repository.attach(root)
        assert "zz-clone" not in [e.precedent_case_id for e in cbr.retrieve(query, reader, k=3).entries]
        clone = replace(query, case_id="zz-clone", status=CaseStatus.PRECEDENT,
                        intention=Intention("int-y", "goal"))
        Repository.attach(root).add_case(clone)
        ranking = cbr.retrieve(query, reader, k=3)
        assert ranking.entries[0].precedent_case_id == "zz-clone"
        assert ranking == _full_ranking(root, query)

    def test_files_past_the_summary_are_read_until_they_pass_its_share(self, tmp_path, counted):
        root = tmp_path / "repo"
        query = _summarized(root)
        summary = (root / "summary.json").read_bytes()
        rng = random.Random(26)
        writer = Repository.attach(root)
        # 5 new files of 45 are no more than 1/8 of the case files; 6 of 46 are.
        added = [f"p{i}" for i in range(40, 45)]
        for case_id in added:
            writer.add_case(random_case(rng, case_id))
        settle(root)
        expected = _full_ranking(root, query)
        loaded, scored = _model_visits(root, query)
        for _ in range(2):
            del counted["decoded"][:], counted["scored"][:]
            repo = Repository.attach(root)
            assert cbr.retrieve(query, repo, k=3) == expected
            assert counted["decoded"] == [*added, *(c for c in loaded if c not in added)]
            assert counted["scored"] == scored
            repo._write_summary()
            assert (root / "summary.json").read_bytes() == summary
        writer.add_case(random_case(rng, "p45"))
        settle(root)
        repo = Repository.attach(root)
        assert cbr.retrieve(query, repo, k=3) == _full_ranking(root, query)
        repo._write_summary()
        assert sorted(_summary_doc(root)["rows"]) == [*_PRECEDENTS, *added, "p45"]

    def test_a_precedent_that_waits_again_is_decoded_once(self, tmp_path, counted):
        # With "c" scored (0.5), "d" is bounded by 0.9, refined to 0.675
        # (its one item matches the query's at 0.75) and scored after
        # waiting again; "e", bounded by 0.6, is never loaded.
        tool, other = EvidenceKind.TOOL_USAGE, EvidenceKind.OTHER

        def case(case_id, *items):
            evidence = tuple(
                Evidence(id=f"{case_id}{i}", kind=kind, attributes=attrs)
                for i, (kind, attrs, _) in enumerate(items)
            )
            weights = {e.id: weight for e, (_, _, weight) in zip(evidence, items)}
            base = random_case(random.Random(0), case_id)
            return replace(base, attack=replace(base.attack, evidence=evidence), evidence_weights=weights)

        root = tmp_path / "repo"
        writer = Repository.attach(root)
        writer.add_case(case("c", (tool, {"tool": "y"}, 1.0)))
        writer.add_case(case("d", (tool, {"tool": "x", "mode": "irc"}, 0.9), (other, {}, 0.1)))
        writer.add_case(case("e", (tool, {"tool": "x"}, 0.6), (other, {}, 0.4)))
        query = replace(case("query", (tool, {"tool": "x"}, 1.0)), status=CaseStatus.PROPOSED)
        settle(root)
        summarizer = Repository.attach(root)
        cbr.retrieve(query, summarizer, k=1)
        summarizer._write_summary()
        expected = _full_ranking(root, query, k=1)
        assert _model_visits(root, query, k=1) == (["c", "d"], ["c", "d"])
        del counted["decoded"][:], counted["scored"][:]
        assert cbr.retrieve(query, Repository.attach(root), k=1) == expected
        assert counted["decoded"] == counted["scored"] == ["c", "d"]

    def test_rows_of_deleted_files_are_dropped_past_the_summarys_share(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        summary = (root / "summary.json").read_bytes()
        # 4 rows of 40 without a file are no more than 1/8 of the 36 case
        # files; 5 of 40 are more than 1/8 of 35.
        for deleted, rewritten in ((_PRECEDENTS[:4], False), (_PRECEDENTS[:5], True)):
            for case_id in deleted:
                (root / "cases" / f"{case_id}.json").unlink(missing_ok=True)
            repo = Repository.attach(root)
            assert cbr.retrieve(query, repo, k=3) == _full_ranking(root, query)
            repo._write_summary()
            rows = _summary_doc(root)["rows"]
            assert ((root / "summary.json").read_bytes() != summary) == rewritten
            assert sorted(rows) == (_PRECEDENTS[5:] if rewritten else _PRECEDENTS)

    def test_a_row_is_kept_only_for_a_file_changed_before_the_listing(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "repo"
        query = _summarized(root)
        (root / "summary.json").unlink()
        since = (root / "cases" / "p10.json").stat().st_ctime_ns
        monkeypatch.setattr(summary_module, "_file_system_time", lambda root: since)
        repo = Repository.attach(root)
        assert cbr.retrieve(query, repo, k=3) == _full_ranking(root, query)
        repo._write_summary()
        kept = _summary_doc(root)["rows"]
        assert kept and all(row[-1] < since for row in kept.values())
        assert "p10" not in kept and "p09" in kept

    def test_no_summary_is_written_where_no_file_can_be_made(self, tmp_path, monkeypatch):
        root = tmp_path / "repo"
        query = _summarized(root)
        (root / "summary.json").unlink()
        monkeypatch.setattr(summary_module, "_file_system_time", lambda root: None)
        repo = Repository.attach(root)
        assert cbr.retrieve(query, repo, k=3) == _full_ranking(root, query)
        repo._write_summary()
        assert not (root / "summary.json").exists()

    def test_a_same_size_edit_with_its_mtime_set_back_is_read(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        path = root / "cases" / "p07.json"
        before = path.stat()
        text = path.read_text(encoding="utf-8")
        assert '"case_id": "p07"' in text
        path.write_text(text.replace('"case_id": "p07"', '"case_id": "p70"'), encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        with pytest.raises(CorruptRecord) as excinfo:
            cbr.retrieve(query, Repository.attach(root), k=3)
        assert list(excinfo.value.details) == ["p07"]

    def test_every_corrupt_file_is_reported_together(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        _corrupt(root, "p03")
        (root / "cases" / "p31.json").write_bytes(b"")
        with pytest.raises(CorruptRecord) as excinfo:
            cbr.retrieve(query, Repository.attach(root), k=3)
        assert sorted(excinfo.value.details) == ["p03", "p31"]

    @pytest.mark.parametrize(
        "damage, untrusted",
        [
            (lambda text: "\x00garbage", "all"),
            (lambda text: text[: len(text) // 2], "all"),
            (lambda text: text.replace("case summary 1", "case summary 0"), "all"),
            (lambda text: text.replace('"port-exploit","function-implementation"',
                                       '"function-implementation","port-exploit"'), "all"),
            (lambda text: text.replace('"rows":[', '"rows":[7,', 1), "all"),
            (lambda text: text.replace("0.0,", "NaN,", 1), "all"),
            # The first row is p00's.
            (lambda text: text.replace("0.0,", '"0.0",', 1), "p00"),
            (lambda text: text.replace('"precedent"', '"unknown"', 1), "p00"),
        ],
        ids=["garbage", "truncated", "foreign-schema", "foreign-kind-order", "row-not-a-list",
             "nan-total", "text-total", "unknown-status"],
    )
    def test_a_summary_this_version_did_not_write_is_not_trusted(
        self, tmp_path, counted, damage, untrusted
    ):
        root = tmp_path / "repo"
        query = _summarized(root)
        path = root / "summary.json"
        text = path.read_text(encoding="utf-8")
        assert damage(text) != text
        path.write_text(damage(text), encoding="utf-8")
        expected = _full_ranking(root, query)
        loaded, scored = _model_visits(root, query)
        del counted["decoded"][:], counted["scored"][:]
        repo = Repository.attach(root)
        assert cbr.retrieve(query, repo, k=3) == expected
        read = _PRECEDENTS if untrusted == "all" else [untrusted]
        assert counted["decoded"] == [*read, *(c for c in loaded if c not in read)]
        assert counted["scored"] == scored
        repo._write_summary()
        if untrusted == "all":
            assert sorted(_summary_doc(root)["rows"]) == _PRECEDENTS
        else:  # one file of 40 read past the summary is below its share
            assert path.read_text(encoding="utf-8") == damage(text)

    def test_a_directory_in_the_summarys_place_is_no_error(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        (root / "summary.json").unlink()
        (root / "summary.json").mkdir()
        repo = Repository.attach(root)
        assert cbr.retrieve(query, repo, k=3) == _full_ranking(root, query)
        repo._write_summary()
        assert (root / "summary.json").is_dir()
        assert sorted(os.listdir(root)) == ["attacks", "cases", "meta.json", "networks", "summary.json"]

    def test_a_handle_that_has_scanned_never_reads_the_summary(self, tmp_path, monkeypatch):
        root = tmp_path / "repo"
        query = _summarized(root)
        repo = Repository.open(root)

        def refused(*args):
            raise AssertionError("summary read")

        expected = _full_ranking(root, query)
        monkeypatch.setattr(summary_module, "_load_summary", refused)
        monkeypatch.setattr(summary_module, "_file_system_time", refused)
        monkeypatch.setattr(os, "scandir", refused)
        assert cbr.retrieve(query, repo, k=3) == expected

    def test_record_writes_leave_the_summary_alone(self, tmp_path):
        root = tmp_path / "repo"
        query = _summarized(root)
        summary = (root / "summary.json").read_bytes()
        for i, repo in enumerate((Repository.attach(root), Repository.open(root))):
            incipient = replace(query, case_id=f"q{i}", status=CaseStatus.INCIPIENT,
                                evidence_weights=cbr.confidence_weights(query.attack))
            repo.add_case(incipient)
            accepted = transition(incipient, CaseStatus.REVISED_ACCEPTED)
            repo.update_case(replace(accepted, intention=Intention("int-y", "goal")))
            cbr.retain(repo.get_case(incipient.case_id), repo)
            repo._write_summary()
        assert (root / "summary.json").read_bytes() == summary
