"""CLI surface: flags, exit codes, stream discipline, idempotence."""

import atexit
import errno
import gc
import json
import math
import os
import random
import shutil
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import pytest

from conftest import random_network
from intent_cbr import cbr, cli
from intent_cbr import fixtures as demo
from intent_cbr.cli import main
from intent_cbr.errors import DuplicateCaseId
from intent_cbr.model import Attack, Case, CaseStatus, Evidence, EvidenceKind, Intention, replace
from intent_cbr.repository import Repository
from intent_cbr.serialize import attack_to_dict, canonical_dumps, network_to_dict


@pytest.fixture
def workdir(tmp_path):
    demo.install_demo_repository(tmp_path / "repo")
    demo.write_keylogging_csv(tmp_path / "keylog.csv")
    demo.write_demo_network(tmp_path / "network.json")
    demo.write_demo_attack(tmp_path / "attack.json")
    return tmp_path


def run(workdir, *argv):
    return main([str(a) for a in argv])


def ingest_keylogging(workdir):
    return run(
        workdir,
        "ingest",
        "--input", workdir / "keylog.csv",
        "--format", "csv",
        "--repo", workdir / "repo",
        "--attack-id", "keylogging",
        "--detection-state", "0.9",
    )


def collide_after_fresh_case(workdir, monkeypatch):
    """Make another handle store an incipient case under the id that
    `_fresh_case` has just chosen. Returns the path of that record and a
    list that receives its bytes once written."""
    other = Repository.attach(workdir / "repo")
    taken_path = workdir / "repo" / "cases" / "keylogging-c1.json"
    written = []
    fresh_case = cli._fresh_case

    def fresh_case_then_collide(repo, attack):
        case = fresh_case(repo, attack)
        taken = replace(
            demo.precedent_cases()[0],
            case_id=case.case_id,
            status=CaseStatus.INCIPIENT,
        )
        other.add_case(taken)
        written.append(taken_path.read_bytes())
        return case

    monkeypatch.setattr(cli, "_fresh_case", fresh_case_then_collide)
    return taken_path, written

class TestIngest:
    def test_success(self, workdir, capsys):
        assert ingest_keylogging(workdir) == 0
        out = capsys.readouterr().out
        assert "5 evidence items ingested" in out

    def test_missing_file_is_io_failure(self, workdir):
        rc = run(
            workdir,
            "ingest", "--input", workdir / "nope.csv", "--format", "csv",
            "--repo", workdir / "repo", "--attack-id", "x",
        )
        assert rc == 1

    def test_directory_input_is_io_failure(self, workdir, capsys):
        rc = run(
            workdir,
            "ingest", "--input", workdir, "--format", "csv",
            "--repo", workdir / "repo", "--attack-id", "x",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {workdir}: ")

    def test_bad_confidence_is_validation_failure(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text(
            "id,kind,description,confidence\nev01,tool,x,1.5\n", encoding="utf-8"
        )
        rc = run(
            workdir,
            "ingest", "--input", bad, "--format", "csv",
            "--repo", workdir / "repo", "--attack-id", "x",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("length, rc", [(228, 0), (229, 2)])
    def test_attack_id_length_limit(self, workdir, capsys, length, rc):
        # A longer id would make a temp file name over 255 bytes.
        attack_id = "x" * length
        assert run(
            workdir,
            "ingest", "--input", workdir / "keylog.csv", "--format", "csv",
            "--repo", workdir / "repo", "--attack-id", attack_id,
        ) == rc
        if rc == 0:
            assert Repository.attach(workdir / "repo").load_attack(attack_id).id == attack_id
        else:
            assert capsys.readouterr().err == (
                f"error: attack id '{attack_id}' not usable as a file name\n"
            )
            assert os.listdir(workdir / "repo" / "attacks") == []

    def test_reingest_same_attack_id_refused(self, workdir, capsys):
        assert ingest_keylogging(workdir) == 0
        assert ingest_keylogging(workdir) == 2
        assert "already stored" in capsys.readouterr().err

    def test_repo_flag_required(self, workdir, monkeypatch, capsys):
        monkeypatch.delenv("INTENT_CBR_REPO", raising=False)
        rc = run(
            workdir,
            "ingest", "--input", workdir / "keylog.csv", "--format", "csv",
            "--attack-id", "x",
        )
        assert rc == 2

    def test_repo_from_environment(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("INTENT_CBR_REPO", str(workdir / "repo"))
        rc = run(
            workdir,
            "ingest", "--input", workdir / "keylog.csv", "--format", "csv",
            "--attack-id", "keylogging",
        )
        assert rc == 0


class TestAnalyze:
    def test_ranking_printed_and_incipient_stored(self, workdir, capsys):
        ingest_keylogging(workdir)
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--top", "3",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "botnet-03" in out and "0.9100" in out
        repo = Repository.open(workdir / "repo")
        case = repo.get_case("keylogging-c1")
        assert case.status == CaseStatus.INCIPIENT
        assert case.intention.id == "int-03"

    def test_unknown_attack_id(self, workdir):
        rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "ghost")
        assert rc == 2

    def test_empty_repository_exit_3(self, tmp_path):
        Repository.open(tmp_path / "empty-repo")
        demo.write_keylogging_csv(tmp_path / "keylog.csv")
        rc = main([
            "ingest", "--input", str(tmp_path / "keylog.csv"), "--format", "csv",
            "--repo", str(tmp_path / "empty-repo"), "--attack-id", "keylogging",
        ])
        assert rc == 0
        rc = main([
            "analyze", "--repo", str(tmp_path / "empty-repo"), "--attack-id", "keylogging",
        ])
        assert rc == 3

    def test_interactive_accept_retains(self, workdir, capsys, monkeypatch):
        ingest_keylogging(workdir)
        answers = iter(["accept"])
        monkeypatch.setattr("builtins.input", lambda: next(answers))
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--top", "3", "--interactive",
        )
        assert rc == 0
        assert "retained" in capsys.readouterr().out
        repo = Repository.open(workdir / "repo")
        assert repo.get_case("keylogging-c1").status == CaseStatus.RETAINED

    def test_interactive_reject_stores_for_audit(self, workdir, capsys, monkeypatch):
        ingest_keylogging(workdir)
        answers = iter(["reject", "attack pattern does not fit the goal"])
        monkeypatch.setattr("builtins.input", lambda: next(answers))
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--interactive",
        )
        assert rc == 0
        repo = Repository.open(workdir / "repo")
        case = repo.get_case("keylogging-c1")
        assert case.status == CaseStatus.REVISED_REJECTED
        assert "does not fit" in case.provenance


    @pytest.mark.parametrize(
        "answers, message",
        [
            ([], "error: no verdict given\n"),
            (["reject"], "error: a reject verdict requires a rationale\n"),
        ],
        ids=["at-the-verdict", "at-the-rationale"],
    )
    def test_interactive_end_of_input_stores_nothing(
        self, workdir, capsys, monkeypatch, answers, message
    ):
        ingest_keylogging(workdir)
        answers = iter(answers)

        def answer():
            text = next(answers, None)
            if text is None:
                raise EOFError
            return text

        monkeypatch.setattr("builtins.input", answer)
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--interactive",
        )
        assert rc == 2
        assert capsys.readouterr().err.endswith(message)
        assert not Repository.attach(workdir / "repo").has_case("keylogging-c1")

    def test_interactive_asks_again_after_an_unknown_answer(self, workdir, capsys, monkeypatch):
        ingest_keylogging(workdir)
        answers = iter(["maybe", "accept"])
        monkeypatch.setattr("builtins.input", lambda: next(answers))
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--interactive",
        )
        assert rc == 0
        prompt = "accept proposed intention? [accept/reject]: "
        assert capsys.readouterr().err == (
            f"{prompt}please answer 'accept' or 'reject'\n{prompt}"
        )
        repo = Repository.attach(workdir / "repo")
        assert repo.get_case("keylogging-c1").status == CaseStatus.RETAINED

    @pytest.mark.parametrize("length, rc", [(225, 0), (226, 2), (228, 2)])
    def test_attack_id_too_long_for_its_case_id_prints_and_stores_nothing(
        self, workdir, capsys, length, rc
    ):
        # Ingest takes up to 228 characters; the case id adds "-c1".
        attack_id = "x" * length
        assert run(
            workdir,
            "ingest", "--input", workdir / "keylog.csv", "--format", "csv",
            "--repo", workdir / "repo", "--attack-id", attack_id,
        ) == 0
        capsys.readouterr()
        cases = sorted(os.listdir(workdir / "repo" / "cases"))
        assert run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", attack_id) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            assert f"incipient case {attack_id}-c1 written" in out
        else:
            assert (out, err) == (
                "", f"error: case id '{attack_id}-c1' not usable as a file name\n"
            )
            assert sorted(os.listdir(workdir / "repo" / "cases")) == cases

    def test_id_taken_after_it_was_chosen_moves_to_the_next(
        self, workdir, capsys, monkeypatch
    ):
        """A concurrent analyze of the same attack gets -c2, not exit 2."""
        ingest_keylogging(workdir)
        taken_path, written = collide_after_fresh_case(workdir, monkeypatch)
        rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")
        assert rc == 0
        assert "incipient case keylogging-c2 written" in capsys.readouterr().out
        assert [taken_path.read_bytes()] == written
        stored = Repository.attach(workdir / "repo").get_case("keylogging-c2")
        assert stored.status == CaseStatus.INCIPIENT
        assert stored.attack.id == "keylogging"

    def test_interactive_accept_keeps_a_case_stored_after_the_id_was_chosen(
        self, workdir, capsys, monkeypatch
    ):
        """The retained case moves to -c2; the other handle's -c1 stays."""
        ingest_keylogging(workdir)
        taken_path, written = collide_after_fresh_case(workdir, monkeypatch)
        answers = iter(["accept"])
        monkeypatch.setattr("builtins.input", lambda: next(answers))
        rc = run(
            workdir,
            "analyze", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--interactive",
        )
        assert rc == 0
        assert "case keylogging-c2 retained" in capsys.readouterr().out
        assert [taken_path.read_bytes()] == written
        stored = Repository.attach(workdir / "repo").get_case("keylogging-c2")
        assert stored.status == CaseStatus.RETAINED
        assert stored.attack.id == "keylogging"

    def test_id_retries_are_bounded(self, workdir, capsys, monkeypatch):
        ingest_keylogging(workdir)
        calls = []

        def always_taken(self, case):
            calls.append(case.case_id)
            raise DuplicateCaseId(f"case '{case.case_id}' already stored")

        monkeypatch.setattr(Repository, "add_case", always_taken)
        rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")
        assert rc == 2
        assert "already stored" in capsys.readouterr().err
        assert len(calls) == cli._ADD_ATTEMPTS

    def test_the_last_id_attempt_can_succeed(self, workdir, capsys, monkeypatch):
        ingest_keylogging(workdir)
        calls = []
        add_case = Repository.add_case

        def taken_until_the_last_attempt(self, case):
            calls.append(case.case_id)
            if len(calls) < cli._ADD_ATTEMPTS:
                raise DuplicateCaseId(f"case '{case.case_id}' already stored")
            add_case(self, case)

        monkeypatch.setattr(Repository, "add_case", taken_until_the_last_attempt)
        rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")
        assert rc == 0
        assert "incipient case keylogging-c1 written" in capsys.readouterr().out
        assert len(calls) == cli._ADD_ATTEMPTS
        stored = Repository.attach(workdir / "repo").get_case("keylogging-c1")
        assert stored.status == CaseStatus.INCIPIENT


class TestReviseRetain:
    def prepare_incipient(self, workdir):
        _incipient(workdir)
        return "keylogging-c1"

    def test_accept_then_retain(self, workdir, capsys):
        case_id = self.prepare_incipient(workdir)
        rc = run(
            workdir,
            "revise", "--repo", workdir / "repo",
            "--case-id", case_id, "--verdict", "accept",
        )
        assert rc == 0
        repo = Repository.open(workdir / "repo")
        assert repo.get_case(case_id).status == CaseStatus.REVISED_ACCEPTED
        precedents_before = len(repo.list_cases(status=("precedent", "retained")))
        rc = run(workdir, "retain", "--repo", workdir / "repo", "--case-id", case_id)
        assert rc == 0
        repo = Repository.open(workdir / "repo")
        assert len(repo.list_cases(status=("precedent", "retained"))) == precedents_before + 1

    def test_reject_without_rationale_exit_2(self, workdir):
        case_id = self.prepare_incipient(workdir)
        rc = run(
            workdir,
            "revise", "--repo", workdir / "repo",
            "--case-id", case_id, "--verdict", "reject",
        )
        assert rc == 2

    def test_retain_requires_accepted(self, workdir):
        case_id = self.prepare_incipient(workdir)
        rc = run(workdir, "retain", "--repo", workdir / "repo", "--case-id", case_id)
        assert rc == 2


class TestSeedAia:
    def test_seeds_precedent_with_provenance(self, tmp_path, capsys):
        demo.write_demo_network(tmp_path / "network.json")
        demo.write_demo_attack(tmp_path / "attack.json")
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "int-exfil" in out
        repo = Repository.open(tmp_path / "repo")
        case = repo.get_case("aia-demo-attack")
        assert case.status == CaseStatus.PRECEDENT
        assert case.provenance == "seeded-by-AIA"
        assert case.intention.id == "int-exfil"
        assert repo.load_network("demo-attack").attack_id == "demo-attack"

    def test_all_zero_confidences_store_uniform_weights(self, tmp_path):
        demo.write_demo_network(tmp_path / "network.json")
        attack = demo.demo_attack()
        zeroed = replace(
            attack,
            evidence=tuple(replace(ev, confidence=0.0) for ev in attack.evidence),
        )
        (tmp_path / "attack.json").write_text(
            canonical_dumps(attack_to_dict(zeroed)), encoding="utf-8"
        )
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 0
        repo = Repository.open(tmp_path / "repo")
        weights = repo.get_case("aia-demo-attack").evidence_weights
        n = len(zeroed.evidence)
        assert weights == {ev.id: 1.0 / n for ev in zeroed.evidence}
        assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_attack_stored_meanwhile_by_another_handle_is_kept(self, tmp_path, monkeypatch):
        demo.write_demo_network(tmp_path / "network.json")
        demo.write_demo_attack(tmp_path / "attack.json")
        other = Repository.attach(tmp_path / "repo")
        theirs = replace(demo.demo_attack(), name="stored by another handle")
        save_attack = Repository.save_attack

        def other_handle_first(self, attack):
            save_attack(other, theirs)
            return save_attack(self, attack)

        monkeypatch.setattr(Repository, "save_attack", other_handle_first)
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 0
        stored = tmp_path / "repo" / "attacks" / "demo-attack.json"
        assert stored.read_text(encoding="utf-8") == canonical_dumps(attack_to_dict(theirs))
        assert Repository.attach(tmp_path / "repo").has_case("aia-demo-attack")

    def test_network_missing_evidence_row_exit_2(self, tmp_path):
        network = demo.demo_network()
        incomplete = replace(
            network,
            evidence_ids=("dev01",),
            likelihoods={"dev01": network.likelihoods["dev01"]},
        )
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(incomplete)), encoding="utf-8"
        )
        demo.write_demo_attack(tmp_path / "attack.json")
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "attack_id, network_attack_id, message",
        [
            (".hidden", "demo-attack", "attack id '.hidden' not usable as a file name"),
            ("demo-attack", "bad id", "network attack_id id 'bad id' not usable as a file name"),
            ("demo-attack", "a" * 300,
             f"network attack_id id '{'a' * 300}' not usable as a file name"),
            ("a" * 226, "demo-attack", f"case id 'aia-{'a' * 226}' not usable as a file name"),
        ],
        ids=["attack-id", "network-attack-id", "long-network-attack-id", "long-case-id"],
    )
    def test_unusable_id_stores_nothing(
        self, tmp_path, capsys, attack_id, network_attack_id, message
    ):
        network = replace(demo.demo_network(), attack_id=network_attack_id)
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        (tmp_path / "attack.json").write_text(
            canonical_dumps(attack_to_dict(replace(demo.demo_attack(), id=attack_id))),
            encoding="utf-8",
        )
        root = tmp_path / "repo"
        for _ in range(2):  # a retry meets the same fault, not a stored case
            capsys.readouterr()
            rc = main([
                "seed-aia", "--repo", str(root),
                "--network", str(tmp_path / "network.json"),
                "--attack", str(tmp_path / "attack.json"),
            ])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert sorted(p.name for p in root.rglob("*") if p.is_file()) == ["meta.json"]

    def test_total_conflict_exit_4(self, tmp_path, capsys):
        network = replace(
            demo.demo_network(),
            likelihoods={
                "dev01": {"int-exfil": 1.0, "int-recon": 0.0},
                "dev02": {"int-exfil": 0.0, "int-recon": 1.0},
            },
        )
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        attack = replace(demo.demo_attack(), detection_state=1.0)
        from intent_cbr.serialize import attack_to_dict

        (tmp_path / "attack.json").write_text(
            canonical_dumps(attack_to_dict(attack)), encoding="utf-8"
        )
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 4
        assert "conflict" in capsys.readouterr().err.lower()

    def test_thirty_evidence_items_do_not_drift(self, tmp_path, capsys):
        """A valid network that fusion by 1 - K failed with 'masses sum to'."""
        network = random_network(random.Random(0), intentions=(3, 6), evidence=(30, 30))
        attack = Attack(
            id=network.attack_id,
            name=network.attack_id,
            detection_state=0.8,
            evidence=tuple(
                Evidence(id=ev, kind=EvidenceKind.TOOL_USAGE)
                for ev in network.evidence_ids
            ),
        )
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        (tmp_path / "attack.json").write_text(
            canonical_dumps(attack_to_dict(attack)), encoding="utf-8"
        )
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 0, capsys.readouterr().err
        case = Repository.attach(tmp_path / "repo").get_case(f"aia-{attack.id}")
        assert case.provenance == "seeded-by-AIA"

    def test_zero_marginal_exit_4(self, tmp_path):
        network = replace(
            demo.demo_network(),
            likelihoods={
                "dev01": {"int-exfil": 0.0, "int-recon": 0.0},
                "dev02": {"int-exfil": 0.7, "int-recon": 0.5},
            },
        )
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        demo.write_demo_attack(tmp_path / "attack.json")
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
        ])
        assert rc == 4

    def test_uniform_priors_override_document(self, tmp_path):
        skewed = replace(
            demo.demo_network(), priors={"int-exfil": 0.99, "int-recon": 0.01}
        )
        (tmp_path / "network.json").write_text(
            canonical_dumps(network_to_dict(skewed)), encoding="utf-8"
        )
        demo.write_demo_attack(tmp_path / "attack.json")
        rc = main([
            "seed-aia", "--repo", str(tmp_path / "repo"),
            "--network", str(tmp_path / "network.json"),
            "--attack", str(tmp_path / "attack.json"),
            "--priors", "uniform",
        ])
        assert rc == 0
        repo = Repository.open(tmp_path / "repo")
        stored = repo.load_network("demo-attack")
        assert stored.priors == {"int-exfil": 0.5, "int-recon": 0.5}

    def test_frequency_priors_from_repository(self, workdir):
        network = replace(
            demo.demo_network(),
            intentions=(
                replace(demo.demo_network().intentions[0], id="int-01"),
                replace(demo.demo_network().intentions[1], id="int-02"),
            ),
            priors={"int-01": 0.5, "int-02": 0.5},
            likelihoods={
                "dev01": {"int-01": 0.8, "int-02": 0.4},
                "dev02": {"int-01": 0.7, "int-02": 0.5},
            },
        )
        (workdir / "freq-network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        rc = run(
            workdir,
            "seed-aia", "--repo", workdir / "repo",
            "--network", workdir / "freq-network.json",
            "--attack", workdir / "attack.json",
            "--priors", "frequency",
        )
        assert rc == 0


class TestReport:
    def test_matches_golden_file(self, workdir, golden_bytes):
        ingest_keylogging(workdir)
        out = workdir / "report.csv"
        rc = run(
            workdir,
            "report", "--repo", workdir / "repo",
            "--attack-id", "keylogging", "--out", out,
        )
        assert rc == 0
        assert out.read_bytes() == golden_bytes

    def test_rerun_byte_identical(self, workdir):
        ingest_keylogging(workdir)
        out = workdir / "report.csv"
        run(workdir, "report", "--repo", workdir / "repo", "--attack-id", "keylogging", "--out", out)
        first = out.read_bytes()
        run(workdir, "report", "--repo", workdir / "repo", "--attack-id", "keylogging", "--out", out)
        assert out.read_bytes() == first

    def test_chart_data_rows(self, workdir):
        ingest_keylogging(workdir)
        chart = workdir / "chart.json"
        rc = run(
            workdir,
            "report", "--repo", workdir / "repo", "--attack-id", "keylogging",
            "--out", workdir / "report.csv", "--chart-data", chart,
        )
        assert rc == 0
        rows = json.loads(chart.read_text(encoding="utf-8"))
        assert len(rows) == 11
        assert set(rows[0]) == {"label", "score"}
        assert rows[0]["score"] == pytest.approx(0.91, abs=1e-9)
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)

    def test_chart_data_keeps_every_digit_of_a_score(self, tmp_path):
        """Two matched weights of 1/3 make the score 0.6666666666666666,
        which 12 significant digits would write as 0.666666666667."""

        def attack(attack_id, host):
            return Attack(
                id=attack_id,
                name=attack_id,
                detection_state=1.0,
                evidence=tuple(
                    Evidence(
                        id=f"{attack_id}-{i}",
                        kind=EvidenceKind.TOOL_USAGE,
                        attributes={"tool": f"t{i}", "host": host},
                    )
                    for i in range(3)
                ),
            )

        root = tmp_path / "repo"
        repo = Repository.open(root)
        precedent = attack("p", "h1")
        repo.add_case(
            Case(
                case_id="p",
                attack=precedent,
                intention=Intention("i1", "goal"),
                evidence_weights={ev.id: 1 / 3 for ev in precedent.evidence},
                status=CaseStatus.PRECEDENT,
            )
        )
        query = attack("q", "h2")
        repo.save_attack(query)
        chart = tmp_path / "chart.json"
        rc = main([
            "report", "--repo", str(root), "--attack-id", "q",
            "--out", str(tmp_path / "r.csv"), "--chart-data", str(chart),
        ])
        assert rc == 0
        new_case = Case(
            case_id="q-c1",
            attack=query,
            intention=None,
            evidence_weights={},
            status=CaseStatus.PROPOSED,
        )
        ranking = cbr.retrieve(new_case, Repository.open(root), k=None)
        scores = [row["score"] for row in json.loads(chart.read_text(encoding="utf-8"))]
        assert scores == [entry.score for entry in ranking.entries]

    def test_failed_csv_write_leaves_the_old_file(self, workdir, monkeypatch):
        ingest_keylogging(workdir)
        out = workdir / "report.csv"
        out.write_bytes(b"earlier report\n")

        def write_then_fail(ranking, fh):
            fh.write("rank,precedent_case_id,intention_label,score\n")
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.cbr, "write_ranking_csv", write_then_fail)
        rc = run(
            workdir,
            "report", "--repo", workdir / "repo", "--attack-id", "keylogging", "--out", out,
        )
        assert rc == 1
        assert out.read_bytes() == b"earlier report\n"

    def test_failed_chart_write_leaves_the_old_file(self, workdir, monkeypatch):
        ingest_keylogging(workdir)
        chart = workdir / "chart.json"
        chart.write_bytes(b"[]\n")
        real_replace = os.replace

        def replace_all_but_chart(src, dst):
            if os.path.basename(dst) == "chart.json":
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_all_but_chart)
        rc = run(
            workdir,
            "report", "--repo", workdir / "repo", "--attack-id", "keylogging",
            "--out", workdir / "report.csv", "--chart-data", chart,
        )
        assert rc == 1
        assert chart.read_bytes() == b"[]\n"
        assert not [name for name in os.listdir(workdir) if name.endswith(".tmp")]

    def test_empty_repository_exit_3(self, tmp_path):
        Repository.open(tmp_path / "repo")
        demo.write_keylogging_csv(tmp_path / "keylog.csv")
        main([
            "ingest", "--input", str(tmp_path / "keylog.csv"), "--format", "csv",
            "--repo", str(tmp_path / "repo"), "--attack-id", "keylogging",
        ])
        rc = main([
            "report", "--repo", str(tmp_path / "repo"),
            "--attack-id", "keylogging", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 3


@pytest.fixture
def golden_bytes():
    from pathlib import Path

    return (Path(__file__).parent / "data" / "ranking_golden.csv").read_bytes()


def test_corrupt_repository_exit_2(workdir, capsys):
    target = workdir / "repo" / "cases" / "botnet-01.json"
    doc = json.loads(target.read_text(encoding="utf-8"))
    first = next(iter(doc["evidence_weights"]))
    doc["evidence_weights"][first] += 0.4
    target.write_text(json.dumps(doc), encoding="utf-8")
    ingest_keylogging(workdir)
    capsys.readouterr()
    rc = main([
        "analyze", "--repo", str(workdir / "repo"), "--attack-id", "keylogging",
    ])
    assert rc == 2
    assert "botnet-01" in capsys.readouterr().err


def test_stored_weights_whose_sum_overflows_exit_2(workdir, capsys):
    target = workdir / "repo" / "cases" / "botnet-01.json"
    doc = json.loads(target.read_text(encoding="utf-8"))
    doc["evidence_weights"] = dict.fromkeys(doc["evidence_weights"], 1e308)
    target.write_text(json.dumps(doc), encoding="utf-8")
    ingest_keylogging(workdir)
    capsys.readouterr()
    rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")
    assert rc == 2
    assert capsys.readouterr().err == "error: corrupt records: botnet-01\n"


def test_network_priors_whose_sum_overflows_exit_2(workdir, capsys):
    doc = json.loads((workdir / "network.json").read_text(encoding="utf-8"))
    doc["priors"] = dict.fromkeys(doc["priors"], 1e308)
    (workdir / "network.json").write_text(json.dumps(doc), encoding="utf-8")
    rc = run(
        workdir, "seed-aia", "--repo", workdir / "repo",
        "--network", workdir / "network.json", "--attack", workdir / "attack.json",
    )
    assert rc == 2
    assert "priors: sum nan != 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_truncated_attack_exit_2(workdir, capsys, command):
    ingest_keylogging(workdir)
    target = workdir / "repo" / "attacks" / "keylogging.json"
    target.write_text(target.read_text(encoding="utf-8")[:40], encoding="utf-8")
    capsys.readouterr()
    argv = [command, "--repo", workdir / "repo", "--attack-id", "keylogging"]
    if command == "report":
        argv += ["--out", workdir / "r.csv"]
    assert run(workdir, *argv) == 2
    err = capsys.readouterr().err
    assert "attacks/keylogging" in err
    assert "Traceback" not in err


def _other_id(doc):
    doc["id"] = "other"


def _confidence_7(doc):
    doc["evidence"][0]["confidence"] = 7.0


def _no_evidence(doc):
    doc["evidence"] = []


@pytest.mark.parametrize("command", ["analyze", "report"])
@pytest.mark.parametrize("damage", [_other_id, _confidence_7, _no_evidence])
def test_invalid_stored_attack_exit_2(workdir, capsys, command, damage):
    """A stored attack is validated and id-checked like a stored case."""
    ingest_keylogging(workdir)
    target = workdir / "repo" / "attacks" / "keylogging.json"
    doc = json.loads(target.read_text(encoding="utf-8"))
    damage(doc)
    target.write_text(json.dumps(doc), encoding="utf-8")
    cases = sorted(os.listdir(workdir / "repo" / "cases"))
    capsys.readouterr()
    argv = [command, "--repo", workdir / "repo", "--attack-id", "keylogging"]
    if command == "report":
        argv += ["--out", workdir / "r.csv"]
    assert run(workdir, *argv) == 2
    err = capsys.readouterr().err
    assert "corrupt records: attacks/keylogging" in err
    assert sorted(os.listdir(workdir / "repo" / "cases")) == cases
    assert not (workdir / "r.csv").exists()


def test_unreadable_stored_attack_exit_1(workdir, capsys):
    (workdir / "repo" / "attacks" / "keylogging.json").mkdir()
    rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ")
    assert "attacks/keylogging.json" in err


@pytest.mark.parametrize("flag", ["--network", "--attack"])
def test_seed_aia_missing_input_file_exit_1(workdir, capsys, flag):
    argv = ["seed-aia", "--repo", workdir / "repo",
            "--network", workdir / "network.json", "--attack", workdir / "attack.json"]
    argv[argv.index(flag) + 1] = workdir / "nope.json"
    assert run(workdir, *argv) == 1
    assert "no such file" in capsys.readouterr().err


def test_seed_aia_accepts_input_files_with_a_bom(workdir):
    for name in ("network.json", "attack.json"):
        path = workdir / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    rc = run(
        workdir,
        "seed-aia", "--repo", workdir / "repo",
        "--network", workdir / "network.json", "--attack", workdir / "attack.json",
    )
    assert rc == 0
    repo = Repository.attach(workdir / "repo")
    assert repo.load_network("demo-attack") == demo.demo_network()
    assert repo.load_attack("demo-attack") == demo.demo_attack()


def test_usage_error_exit_2():
    assert main(["analyze"]) == 2


def test_diagnostics_on_stderr_data_on_stdout(workdir, capsys):
    ingest_keylogging(workdir)
    capsys.readouterr()
    run(
        workdir,
        "report", "--repo", workdir / "repo",
        "--attack-id", "keylogging", "--out", workdir / "r.csv",
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err


def test_attack_id_outside_repository_exit_2(workdir, capsys):
    attack = replace(demo.keylogging_attack(), id="x")
    (workdir / "outside.json").write_text(
        canonical_dumps(attack_to_dict(attack)), encoding="utf-8"
    )
    cases = workdir / "repo" / "cases"
    before = sorted(p.name for p in cases.iterdir())
    rc = run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "../../outside")
    assert rc == 2
    assert "not stored" in capsys.readouterr().err
    assert sorted(p.name for p in cases.iterdir()) == before


def _prepare(workdir, command):
    """Ingest the keylogging attack and take it as far as `command` needs."""
    ingest_keylogging(workdir)
    repo = workdir / "repo"
    if command in ("revise", "retain"):
        assert run(workdir, "analyze", "--repo", repo, "--attack-id", "keylogging") == 0
    if command == "retain":
        argv = ["revise", "--repo", repo, "--case-id", "keylogging-c1", "--verdict", "accept"]
        assert run(workdir, *argv) == 0


def _argv(workdir, command):
    repo = workdir / "repo"
    seed = ["seed-aia", "--repo", repo, "--network", workdir / "network.json",
            "--attack", workdir / "attack.json"]
    return {
        "ingest": ["ingest", "--input", workdir / "keylog.csv", "--format", "csv",
                   "--repo", repo, "--attack-id", "keylogging-2"],
        "analyze": ["analyze", "--repo", repo, "--attack-id", "keylogging"],
        "revise": ["revise", "--repo", repo, "--case-id", "keylogging-c1", "--verdict", "accept"],
        "retain": ["retain", "--repo", repo, "--case-id", "keylogging-c1"],
        "seed-aia": seed,
        "seed-aia-frequency": seed + ["--priors", "frequency"],
        "report": ["report", "--repo", repo, "--attack-id", "keylogging",
                   "--out", workdir / "r.csv"],
    }[command]


@pytest.mark.parametrize("command", ["revise", "retain"])
def test_corrupt_target_case_exit_2(workdir, capsys, command):
    _prepare(workdir, command)
    target = workdir / "repo" / "cases" / "keylogging-c1.json"
    target.write_text(target.read_text(encoding="utf-8")[:40], encoding="utf-8")
    capsys.readouterr()
    assert run(workdir, *_argv(workdir, command)) == 2
    err = capsys.readouterr().err
    assert "corrupt records: keylogging-c1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,expected",
    [
        ("ingest", 0),
        ("revise", 0),
        ("retain", 0),
        ("seed-aia", 0),
        ("seed-aia-frequency", 2),
        ("report", 2),
    ],
)
def test_commands_beside_unrelated_corrupt_case(workdir, capsys, command, expected):
    """Per-record commands read only their own records; the others scan all cases."""
    _prepare(workdir, command)
    target = workdir / "repo" / "cases" / "botnet-01.json"
    doc = json.loads(target.read_text(encoding="utf-8"))
    first = next(iter(doc["evidence_weights"]))
    doc["evidence_weights"][first] += 0.4
    target.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(workdir, *_argv(workdir, command)) == expected
    if expected == 2:
        assert "corrupt records: botnet-01" in capsys.readouterr().err


NOT_UTF8 = b"id,kind\n\xff\xfe,tool\n"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, file_name, content",
    [
        (
            ["ingest", "--input", "{dir}/evidence.csv", "--format", "csv", "--attack-id", "x"],
            "evidence.csv",
            NOT_UTF8,
        ),
        (
            ["ingest", "--input", "{dir}/evidence.json", "--format", "json", "--attack-id", "x"],
            "evidence.json",
            NOT_UTF8,
        ),
        (
            ["seed-aia", "--network", "{dir}/network.json", "--attack", "{dir}/bad-attack.json"],
            "bad-attack.json",
            NOT_UTF8,
        ),
        (
            ["seed-aia", "--network", "{dir}/bad-network.json", "--attack", "{dir}/attack.json"],
            "bad-network.json",
            NOT_UTF8,
        ),
        (
            ["seed-aia", "--network", "{dir}/bad-network.json", "--attack", "{dir}/attack.json"],
            "bad-network.json",
            b"5",
        ),
        (
            ["seed-aia", "--network", "{dir}/bad-network.json", "--attack", "{dir}/attack.json"],
            "bad-network.json",
            json.dumps({
                "attack_id": "demo-attack",
                "intentions": [5],
                "evidence_ids": [],
                "likelihoods": {},
            }).encode(),
        ),
    ],
    ids=[
        "ingest-csv-not-utf8",
        "ingest-json-not-utf8",
        "seed-aia-attack-not-utf8",
        "seed-aia-network-not-utf8",
        "seed-aia-network-not-an-object",
        "seed-aia-intention-not-an-object",
    ],
)
def test_undecodable_or_misshaped_input_exit_2(workdir, capsys, argv, file_name, content):
    (workdir / file_name).write_bytes(content)
    rc = main([*(a.format(dir=workdir) for a in argv), "--repo", str(workdir / "repo")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _network(**changes):
    """A `prepare` that writes the demo network, with `changes`, as the
    seed-aia input."""

    def prepare(workdir):
        network = replace(demo.demo_network(), **changes)
        (workdir / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )

    return prepare


_EXFIL = demo.demo_network().intentions[0]
_DEMO_ROWS = demo.demo_network().likelihoods


def _meta_not_an_object(workdir):
    (workdir / "repo" / "meta.json").write_text("[]\n", encoding="utf-8")


SEED_AIA = ["seed-aia", "--network", "{dir}/network.json", "--attack", "{dir}/attack.json"]
INGEST_JSON = ["ingest", "--input", "{dir}/attack.json", "--format", "json", "--attack-id", "x"]
INGEST_CSV = ["ingest", "--input", "{dir}/keylog.csv", "--format", "csv", "--attack-id", "x"]
REVISE = ["revise", "--case-id", "keylogging-c1", "--verdict", "reject", "--rationale", "r"]

# Input that no record can hold: JSON nested too deep, an integer past float
# range or past the interpreter's digit limit, and text that UTF-8 cannot hold.
DEEP = "[" * 200_000
HUGE = "1" + "0" * 400
LONG = "1" + "0" * 5000
# An undecodable byte of a command-line argument, as Python reads it under a
# UTF-8 locale: a lone surrogate.
UNDECODABLE = b"\xff".decode("utf-8", "surrogateescape")


def _edit(file_name, old, new):
    """A `prepare` that replaces the first `old` in a file of the work
    directory by `new`, or, when `old` is None, the whole file."""

    def prepare(workdir):
        path = workdir / file_name
        text = path.read_text(encoding="utf-8")
        assert old is None or old in text
        path.write_text(new if old is None else text.replace(old, new, 1), encoding="utf-8")

    return prepare


def _incipient(workdir):
    """Ingest the keylogging attack and store its incipient case."""
    ingest_keylogging(workdir)
    run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging")


def _stored(workdir):
    """Every file of the repository, by path, with its bytes."""
    root = workdir / "repo"
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize(
    "prepare, argv, message",
    [
        (
            None,
            ["ingest", "--input", "{dir}/keylog.csv", "--format", "csv",
             "--attack-id", "x", "--detection-state", "1.5"],
            "line 0: attack.detection_state: 1.5 outside [0,1]",
        ),
        (
            None,
            [*SEED_AIA, "--priors", "frequency"],
            "repository frequencies cover none of the network's intentions",
        ),
        (
            _network(priors={"int-exfil": 0.9, "int-recon": 0.9}),
            SEED_AIA,
            "network invalid: priors: sum 1.8 != 1",
        ),
        (
            _network(intentions=(_EXFIL, _EXFIL), priors={"int-exfil": 0.5}),
            SEED_AIA,
            "network invalid: intentions: ids must be unique within the frame",
        ),
        (
            _network(intentions=(_EXFIL, Intention("int-recon", "", "demo"))),
            SEED_AIA,
            "network invalid: intention 'int-recon': label must be non-empty",
        ),
        (
            _network(priors={"int-exfil": 1.0}),
            SEED_AIA,
            "network invalid: priors: missing entry for intention 'int-recon'",
        ),
        (
            _network(priors={"int-exfil": 1.5, "int-recon": -0.5}),
            SEED_AIA,
            "network invalid: priors['int-recon']: -0.5 is negative",
        ),
        (
            _network(likelihoods={"dev01": _DEMO_ROWS["dev01"]}),
            SEED_AIA,
            "network invalid: likelihoods: missing row for evidence 'dev02'",
        ),
        (
            _network(likelihoods={**_DEMO_ROWS, "dev02": {"int-exfil": 0.7}}),
            SEED_AIA,
            "network invalid: likelihoods['dev02']: missing entry for intention 'int-recon'",
        ),
        (
            _network(likelihoods={**_DEMO_ROWS, "dev02": {"int-exfil": 0.7, "int-recon": 1.5}}),
            SEED_AIA,
            "network invalid: likelihoods['dev02']['int-recon']: 1.5 outside [0,1]",
        ),
        (
            _meta_not_an_object,
            ["analyze", "--attack-id", "keylogging"],
            "corrupt records: meta.json",
        ),
        (_edit("repo/meta.json", None, DEEP), ["analyze", "--attack-id", "keylogging"],
         "corrupt records: meta.json"),
        (_edit("attack.json", None, DEEP), INGEST_JSON, "line 0: invalid JSON: nested too deep"),
        (_edit("network.json", None, DEEP), SEED_AIA, "line 0: invalid JSON: nested too deep"),
        (_edit("attack.json", None, DEEP), SEED_AIA, "line 0: invalid JSON: nested too deep"),
        (_edit("attack.json", '"confidence": 0.9', f'"confidence": {HUGE}'), INGEST_JSON,
         "line 1: field 'confidence' is beyond float range"),
        (_edit("attack.json", '"detection_state": 0.9', f'"detection_state": {HUGE}'),
         INGEST_JSON, "line 0: field 'detection_state' is beyond float range"),
        (_edit("attack.json", '"confidence": 0.8', f'"confidence": {LONG}'), INGEST_JSON,
         "line 0: invalid JSON: an integer with too many digits"),
        (_edit("network.json", '"int-recon": 0.5\n  }', f'"int-recon": {HUGE}\n  }}'), SEED_AIA,
         "field 'priors[int-recon]' is beyond float range"),
        (_edit("network.json", '"int-recon": 0.4', f'"int-recon": {HUGE}'), SEED_AIA,
         "field 'likelihoods[dev01][int-recon]' is beyond float range"),
        (_edit("network.json", '"int-exfil": 0.7', f'"int-exfil": {LONG}'), SEED_AIA,
         "line 0: invalid JSON: an integer with too many digits"),
        (_edit("attack.json", '"name": "Demo', '"name": "\\ud800Demo'), INGEST_JSON,
         "line 0: text '\\ud800' cannot be stored as UTF-8"),
        (_edit("attack.json", '"Archive', '"\\udfffArchive'), SEED_AIA,
         "line 0: text '\\udfff' cannot be stored as UTF-8"),
        # The label of the intention that is not selected reaches only the
        # network's record, which seed-aia writes after the case.
        (_edit("network.json", '"To map', '"\\ud800To map'), SEED_AIA,
         "line 0: text '\\ud800' cannot be stored as UTF-8"),
        (None, ["ingest", "--input", "{dir}/keylog.csv", "--format", "csv",
                "--attack-id", "x", "--attack-name", UNDECODABLE],
         "text '\\udcff' cannot be stored as UTF-8"),
        (_incipient, [*REVISE[:-1], UNDECODABLE], "text '\\udcff' cannot be stored as UTF-8"),
        (_incipient, [*REVISE, "--crime-type", UNDECODABLE],
         "text '\\udcff' cannot be stored as UTF-8"),
        (_incipient, [*REVISE, "--damage-note", UNDECODABLE],
         "text '\\udcff' cannot be stored as UTF-8"),
        # A text field holds a string or an integer, nothing else.
        (_edit("attack.json", '"id": "dev01"', '"id": true'), INGEST_JSON,
         "line 1: field 'id' has wrong type bool"),
        (_edit("attack.json", '"Archive and copy commands observed on the host."', "1e400"),
         INGEST_JSON, "line 1: field 'description' has wrong type float"),
        (_edit("attack.json", '"tar,scp"', '{"b": true, "c": null}'), INGEST_JSON,
         "line 1: field 'attributes[commands]' has wrong type dict"),
        (_edit("attack.json", '"tar,scp"', '"tar,scp", "flag": true'), INGEST_JSON,
         "line 1: field 'attributes[flag]' has wrong type bool"),
        (_edit("attack.json", '"tar,scp"', '"tar,scp", "n": 1.0'), INGEST_JSON,
         "line 1: field 'attributes[n]' has wrong type float"),
        (_edit("attack.json", '"kind": "command-usage"', '"kind": ["tool"]'), INGEST_JSON,
         "line 1: field 'kind' has wrong type list"),
        (_edit("attack.json", '"id": "demo-attack"', '"id": true'), INGEST_JSON,
         "line 0: field 'id' has wrong type bool"),
        (_edit("attack.json", '"Demo exfiltration incident"', "false"), INGEST_JSON,
         "line 0: field 'name' has wrong type bool"),
        (_edit("network.json", '"dev01",', "true,"), SEED_AIA,
         "field 'evidence_ids[0]' has wrong type bool"),
        (_edit("network.json", '"category": "demo"', '"category": 0.5'), SEED_AIA,
         "field 'category' has wrong type float"),
        (_edit("keylog.csv", "Using W32/Agobot.", "d" * 200_000), INGEST_CSV,
         "line 5: invalid CSV: field larger than field limit (131072)"),
    ],
    ids=[
        "ingest-detection-state-above-1",
        "seed-aia-frequencies-cover-no-intention",
        "seed-aia-priors-sum-1.8",
        "seed-aia-duplicate-intention-ids",
        "seed-aia-empty-label",
        "seed-aia-missing-prior",
        "seed-aia-negative-prior",
        "seed-aia-missing-likelihood-row",
        "seed-aia-missing-likelihood-entry",
        "seed-aia-likelihood-1.5",
        "meta-not-an-object",
        "meta-nested-too-deep",
        "ingest-nested-too-deep",
        "seed-aia-network-nested-too-deep",
        "seed-aia-attack-nested-too-deep",
        "ingest-confidence-past-float-range",
        "ingest-detection-state-past-float-range",
        "ingest-confidence-past-digit-limit",
        "seed-aia-prior-past-float-range",
        "seed-aia-likelihood-past-float-range",
        "seed-aia-likelihood-past-digit-limit",
        "ingest-name-surrogate",
        "seed-aia-attack-surrogate",
        "seed-aia-network-surrogate",
        "ingest-undecodable-attack-name",
        "revise-undecodable-rationale",
        "revise-undecodable-crime-type",
        "revise-undecodable-damage-note",
        "ingest-evidence-id-true",
        "ingest-description-past-float-range",
        "ingest-attribute-an-object",
        "ingest-attribute-true",
        "ingest-attribute-a-float",
        "ingest-kind-an-array",
        "ingest-attack-id-true",
        "ingest-attack-name-false",
        "seed-aia-evidence-id-true",
        "seed-aia-category-a-float",
        "ingest-csv-cell-past-size-limit",
    ],
)
def test_invalid_input_exit_2_names_the_fault(workdir, capsys, prepare, argv, message):
    if prepare is not None:
        prepare(workdir)
    before = _stored(workdir)
    capsys.readouterr()
    rc = main([*(a.format(dir=workdir) for a in argv), "--repo", str(workdir / "repo")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _stored(workdir) == before


@pytest.mark.parametrize(
    "name", ["._botnet-01.json", ".b3.json"], ids=["macos-sidecar", "unsafe-id"]
)
def test_analyze_and_report_skip_case_files_that_are_no_records(workdir, capsys, name):
    ingest_keylogging(workdir)
    shutil.copytree(workdir / "repo", workdir / "plain")
    cases = workdir / "repo" / "cases"
    if name == ".b3.json":
        doc = json.loads((cases / "botnet-03.json").read_text(encoding="utf-8"))
        doc["case_id"] = ".b3"
        content = json.dumps(doc).encode()
    else:
        content = b"\x00\x05\x16\x07Mac OS X        \x00\x02"
    (cases / name).write_bytes(content)
    outputs = []
    for repo in ("plain", "repo"):
        capsys.readouterr()
        assert run(workdir, "analyze", "--repo", workdir / repo, "--attack-id", "keylogging") == 0
        out = capsys.readouterr().out
        argv = ["report", "--repo", workdir / repo, "--attack-id", "keylogging",
                "--out", workdir / f"{repo}.csv"]
        assert run(workdir, *argv) == 0
        outputs.append((out, (workdir / f"{repo}.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_two_processes_analyze_one_attack(workdir):
    """Whichever way the two runs interleave, each stores its own case."""
    ingest_keylogging(workdir)
    command = [
        sys.executable,
        "-c",
        "import sys; from intent_cbr.cli import main; sys.exit(main(sys.argv[1:]))",
        "analyze", "--repo", str(workdir / "repo"), "--attack-id", "keylogging",
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    incipient = Repository.open(workdir / "repo").list_cases(status=CaseStatus.INCIPIENT)
    assert sorted(case.case_id for case in incipient) == ["keylogging-c1", "keylogging-c2"]


@pytest.mark.parametrize("module", ["intent_cbr", "intent_cbr.cli"])
def test_python_dash_m_runs_the_command(workdir, module):
    result = subprocess.run(
        [
            sys.executable, "-m", module, "ingest",
            "--input", str(workdir / "keylog.csv"), "--format", "csv",
            "--repo", str(workdir / "repo"), "--attack-id", "keylogging",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "5 evidence items ingested\n", ""
    )
    assert Repository.attach(workdir / "repo").has_attack("keylogging")


def test_ingest_warns_of_an_unknown_kind_on_stderr(workdir):
    (workdir / "weird.csv").write_text(
        "id,kind,description,confidence\ne1,weird,odd artefact,0.5\n", encoding="utf-8"
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "intent_cbr", "ingest",
            "--input", str(workdir / "weird.csv"), "--format", "csv",
            "--repo", str(workdir / "repo"), "--attack-id", "weird",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0,
        "1 evidence items ingested\n",
        "WARNING: line 2: unknown kind 'weird' mapped to 'other'\n",
    )


# Prints, as its last line, what importing the CLI and running one command
# added to sys.modules.
_LOAD_PROBE = """
import json, sys
before = set(sys.modules)
from intent_cbr.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "loaded": sorted(set(sys.modules) - before)}))
"""


def _loaded_by(workdir, command):
    _prepare(workdir, command)
    result = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, *map(str, _argv(workdir, command))],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["rc"] == 0
    return set(probe["loaded"])


@pytest.mark.parametrize("command", ["analyze", "revise", "retain", "report"])
def test_case_commands_load_no_ingest_or_inference(workdir, command):
    loaded = _loaded_by(workdir, command)
    assert "intent_cbr.cbr" in loaded  # the probe sees what the command loads
    not_run = {"intent_cbr.ingest", "intent_cbr.inference", "intent_cbr.fixtures"}
    assert loaded & (not_run | {"logging", "datetime"}) == set()


def test_ingest_loads_no_inference(workdir):
    loaded = _loaded_by(workdir, "ingest")
    assert "intent_cbr.ingest" in loaded
    assert loaded & {"intent_cbr.inference", "datetime"} == set()


def test_seed_aia_loads_ingest_and_inference(workdir):
    assert {"intent_cbr.ingest", "intent_cbr.inference"} <= _loaded_by(workdir, "seed-aia")


# --- the process entry ---------------------------------------------------------
# `entrypoint` ends the process when its command is done, so the tests below
# run it in child processes only: in pytest's own process it would end pytest.

DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")
NO_SPACE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def _child(*argv, **kwargs):
    """Run a Python child with block-buffered output, as outside a test
    runner that sets PYTHONUNBUFFERED, which would hide a missing flush."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        env=env, stderr=subprocess.PIPE, timeout=120, **kwargs,
    )


def _ingest_argv(workdir):
    return [
        "ingest", "--input", workdir / "keylog.csv", "--format", "csv",
        "--repo", workdir / "repo", "--attack-id", "keylogging",
    ]


@needs_dev_full
def test_failed_output_write_exit_1(workdir, capsys, monkeypatch):
    full = open(DEV_FULL, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", full)
    try:
        assert run(workdir, *_ingest_argv(workdir)) == 1
    finally:
        with suppress(OSError):  # the buffered line still cannot be written
            full.close()
    assert capsys.readouterr().err == NO_SPACE


@needs_dev_full
@pytest.mark.parametrize("help_", [False, True])
def test_failed_output_write_in_a_process_exit_1(workdir, help_):
    argv = ["--help"] if help_ else _ingest_argv(workdir)
    with open(DEV_FULL, "w", encoding="utf-8") as full:
        result = _child("-m", "intent_cbr", *argv, stdout=full)
    assert (result.returncode, result.stderr.decode()) == (1, NO_SPACE)


def test_no_stdout_at_all_is_no_failure(workdir):
    """Started with stdout closed, as under ``>&-``, Python has no
    ``sys.stdout`` and drops the output; the command still succeeds."""
    result = _child(
        "-m", "intent_cbr", *_ingest_argv(workdir), stdout=None, preexec_fn=lambda: os.close(1)
    )
    assert (result.returncode, result.stderr) == (0, b"")
    assert Repository.attach(workdir / "repo").has_attack("keylogging")


def test_buffered_output_is_complete(workdir, capsys):
    """Each command prints the same bytes, with the same exit code, in its
    own process as through `main` in process on a copy of the repository."""
    shutil.copytree(workdir / "repo", workdir / "copy")
    for argv in (
        _ingest_argv(workdir),
        ["analyze", "--repo", workdir / "repo", "--attack-id", "keylogging"],
    ):
        result = _child("-m", "intent_cbr", *argv)
        capsys.readouterr()
        rc = run(workdir, *[workdir / "copy" if a == workdir / "repo" else a for a in argv])
        captured = capsys.readouterr()
        assert (result.returncode, result.stdout, result.stderr) == (
            rc, captured.out.encode(), captured.err.encode()
        )
        assert result.stdout


# Runs the console script's entry inside a wrapper, as perfbench/traced_cli.py
# does, and leaves a marker file from the wrapper's `finally`.
_WRAPPER = """
import sys
from pathlib import Path
from intent_cbr.cli import entrypoint
marker = Path(sys.argv.pop(1))
try:
    entrypoint()
finally:
    marker.write_text("done", encoding="utf-8")
"""


@pytest.mark.parametrize("verdict, expected", [("accept", 0), ("reject", 2)])
def test_a_wrappers_finally_runs_before_the_process_ends(workdir, verdict, expected):
    ingest_keylogging(workdir)
    assert run(workdir, "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging") == 0
    marker = workdir / "marker"
    result = _child(
        "-c", _WRAPPER, marker, "revise", "--repo", workdir / "repo",
        "--case-id", "keylogging-c1", "--verdict", verdict,
    )
    assert result.returncode == expected, result.stderr
    assert marker.read_text(encoding="utf-8") == "done"


def test_python_dash_m_exit_codes(workdir, tmp_path):
    Repository.open(tmp_path / "empty-repo")
    argv = _ingest_argv(workdir)
    argv[argv.index(workdir / "repo")] = tmp_path / "empty-repo"
    assert _child("-m", "intent_cbr", *argv).returncode == 0
    empty = _child("-m", "intent_cbr", "analyze", "--repo", tmp_path / "empty-repo",
                   "--attack-id", "keylogging")
    assert empty.returncode == 3, empty.stderr

    (workdir / "repo" / "cases" / "botnet-01.json").write_text("{", encoding="utf-8")
    assert _child("-m", "intent_cbr", *_ingest_argv(workdir)).returncode == 0
    corrupt = _child("-m", "intent_cbr", "analyze", "--repo", workdir / "repo",
                     "--attack-id", "keylogging")
    assert corrupt.returncode == 2
    assert b"botnet-01" in corrupt.stderr


# Registers one atexit handler before `entrypoint` and one while the command
# runs; each prints its name when it runs.
_HANDLERS = """
import atexit
from intent_cbr import cli
atexit.register(print, "before")
def main():
    atexit.register(print, "during")
    return {status}
cli.main = main
cli.entrypoint()
"""


@pytest.mark.parametrize("status", [0, 4])
def test_atexit_handlers_of_the_command_run_earlier_ones_do_not(status):
    result = _child("-c", _HANDLERS.format(status=status))
    assert (result.returncode, result.stdout, result.stderr) == (status, b"during\n", b"")


def test_a_command_that_raises_exits_as_python_does():
    result = _child("-c", _HANDLERS.replace("return {status}", "raise RuntimeError('boom')"))
    assert result.returncode == 1
    assert result.stdout == b"during\nbefore\n"
    assert result.stderr.endswith(b"RuntimeError: boom\n")


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_main_in_process_changes_nothing_global(workdir, command):
    ingest_keylogging(workdir)
    handlers = atexit._ncallbacks()
    argv = _ingest_argv(workdir) if command == "ingest" else [
        "analyze", "--repo", workdir / "repo", "--attack-id", "keylogging"
    ]
    run(workdir, *argv)
    assert gc.isenabled()
    assert atexit._ncallbacks() == handlers


# The recursion and digit limits, the csv module's cell limit, and the
# decoding of arguments and stdin are the interpreter's: each kind of input
# that no record can hold also runs in a child process.
@pytest.mark.parametrize(
    "prepare, argv, message",
    [
        (_edit("attack.json", None, DEEP), INGEST_JSON, "line 0: invalid JSON: nested too deep"),
        (_edit("repo/meta.json", None, DEEP), ["analyze", "--attack-id", "keylogging"],
         "corrupt records: meta.json"),
        (_edit("network.json", '"int-recon": 0.4', f'"int-recon": {HUGE}'), SEED_AIA,
         "field 'likelihoods[dev01][int-recon]' is beyond float range"),
        (_edit("attack.json", '"confidence": 0.8', f'"confidence": {LONG}'), INGEST_JSON,
         "line 0: invalid JSON: an integer with too many digits"),
        (_edit("network.json", '"To map', '"\\ud800To map'), SEED_AIA,
         "line 0: text '\\ud800' cannot be stored as UTF-8"),
        (_incipient, [*REVISE[:-1], UNDECODABLE], "text '\\udcff' cannot be stored as UTF-8"),
        (_edit("keylog.csv", "Using W32/Agobot.", "d" * 200_000), INGEST_CSV,
         "line 5: invalid CSV: field larger than field limit (131072)"),
    ],
    ids=["ingest-nested-too-deep", "meta-nested-too-deep", "seed-aia-likelihood-past-float-range",
         "ingest-confidence-past-digit-limit", "seed-aia-network-surrogate",
         "revise-undecodable-rationale", "ingest-csv-cell-past-size-limit"],
)
def test_input_no_record_can_hold_exit_2_in_a_process(workdir, prepare, argv, message):
    prepare(workdir)
    before = _stored(workdir)
    result = _child("-m", "intent_cbr", *(a.format(dir=workdir) for a in argv),
                    "--repo", workdir / "repo")
    assert (result.returncode, result.stdout, result.stderr.decode()) == (
        2, b"", f"error: {message}\n"
    )
    assert _stored(workdir) == before


@pytest.mark.parametrize(
    "stdin_encoding, message",
    [
        ("utf-8:surrogateescape", b"error: text '\\udcff' cannot be stored as UTF-8\n"),
        ("utf-8:strict", b"error: answer is not UTF-8 text\n"),
    ],
    ids=["surrogateescape", "strict"],
)
def test_an_undecodable_interactive_rationale_exit_2_in_a_process(
    workdir, monkeypatch, stdin_encoding, message
):
    ingest_keylogging(workdir)
    before = _stored(workdir)
    monkeypatch.setenv("PYTHONIOENCODING", stdin_encoding)
    result = _child(
        "-m", "intent_cbr", "analyze", "--repo", workdir / "repo",
        "--attack-id", "keylogging", "--interactive", input=b"reject\n\xff\n",
    )
    assert result.returncode == 2
    assert result.stderr.endswith(message), result.stderr
    assert _stored(workdir) == before
