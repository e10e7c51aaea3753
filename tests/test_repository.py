"""Durable storage: round trips, atomicity, corruption reporting."""

import fcntl
import os
from dataclasses import replace

import pytest

from intent_cbr import fixtures as demo
from intent_cbr.errors import (
    CorruptRecord,
    DuplicateCaseId,
    EmptyRepository,
    IoFailure,
    SchemaVersionMismatch,
    UnknownCaseId,
    ValidationFailure,
)
from intent_cbr import repository as repository_module
from intent_cbr.model import CaseStatus, Intention
from intent_cbr.repository import Repository
from intent_cbr.serialize import (
    attack_to_dict,
    canonical_dumps,
    case_to_dict,
    network_to_dict,
)


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


def test_schema_version_mismatch(tmp_path):
    root = tmp_path / "repo"
    Repository.open(root)
    (root / "meta.json").write_text('{"schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(SchemaVersionMismatch):
        Repository.open(root)


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
    repo.save_attack(attack, overwrite=True)


def test_network_round_trip(repo):
    network = demo.demo_network()
    repo.save_network(network)
    assert repo.load_network(network.attack_id) == network
    with pytest.raises(UnknownCaseId):
        repo.load_network("ghost")


@pytest.mark.parametrize(
    "damage",
    [lambda text: text[:40], lambda text: "[]"],
    ids=["truncated", "json-array"],
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


def _second_network(network):
    return replace(network, priors={"int-exfil": 0.25, "int-recon": 0.75})


@pytest.mark.parametrize(
    "first, second, to_dict, record, save",
    [
        (demo.keylogging_attack(), _second_attack(demo.keylogging_attack()),
         attack_to_dict, "attacks/keylogging.json", "save_attack"),
        (demo.demo_network(), _second_network(demo.demo_network()),
         network_to_dict, "networks/demo-attack.json", "save_network"),
    ],
    ids=["attack", "network"],
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
