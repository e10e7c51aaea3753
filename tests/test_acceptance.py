"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Random trials use fixed seeds so every run checks
the same inputs.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import random_case, random_mass_function, random_network
from intent_cbr import fixtures as demo
from intent_cbr.cbr import retrieve, similarity
from intent_cbr.cli import main
from intent_cbr.errors import CorruptRecord, EmptyRepository, TotalConflict, ZeroMarginal
from intent_cbr.inference import (
    analyze_attack,
    belief,
    combine,
    plausibility,
    posteriors_for_evidence,
    vacuous,
)
from intent_cbr.model import (
    Attack,
    Case,
    CaseStatus,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Hypothesis,
    Intention,
    replace,
)
from intent_cbr.repository import Repository
from intent_cbr.serialize import canonical_dumps, case_to_dict, network_to_dict
from oracles import dense_belief, dense_combine, dense_plausibility, resum_similarity

GOLDEN = Path(__file__).parent / "data" / "ranking_golden.csv"

REFERENCE_SCORES = (0.91, 0.85, 0.79, 0.71, 0.68, 0.67, 0.64, 0.62, 0.53, 0.43, 0.38)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({label}): PASS")


def build_workspace(tmp_path) -> Path:
    demo.install_demo_repository(tmp_path / "repo")
    demo.write_keylogging_csv(tmp_path / "keylog.csv")
    return tmp_path


def ingest(tmp_path) -> int:
    return main([
        "ingest",
        "--input", str(tmp_path / "keylog.csv"),
        "--format", "csv",
        "--repo", str(tmp_path / "repo"),
        "--attack-id", "keylogging",
        "--detection-state", "0.9",
    ])


def test_criterion_1_fixture_ranking_reproduction(tmp_path, capsys):
    with criterion(1, "reference ranking reproduction"):
        build_workspace(tmp_path)
        started = time.perf_counter()

        assert ingest(tmp_path) == 0
        rc = main([
            "analyze", "--repo", str(tmp_path / "repo"),
            "--attack-id", "keylogging", "--top", "11",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        positions = [out.index(case_id) for case_id, _ in demo.REFERENCE_RANKING]
        assert positions == sorted(positions), "ranking order wrong in CLI output"
        score_positions = [out.index(f"{score:.4f}") for score in REFERENCE_SCORES]
        assert score_positions == sorted(score_positions)

        # Before-rounding scores, checked at 1e-9 against the reference.
        repo = Repository.open(tmp_path / "repo")
        probe = Case(
            case_id="probe",
            attack=repo.load_attack("keylogging"),
            intention=None,
            evidence_weights={},
            status=CaseStatus.PROPOSED,
        )
        ranking = retrieve(probe, repo, k=11)
        got = [(e.precedent_case_id, e.score) for e in ranking.entries]
        assert [g[0] for g in got] == [c for c, _ in demo.REFERENCE_RANKING]
        for (_, score), expected in zip(got, REFERENCE_SCORES):
            assert abs(score - expected) <= 1e-9

        # Two-decimal CSV must match the golden file byte for byte.
        out_csv = tmp_path / "report.csv"
        rc = main([
            "report", "--repo", str(tmp_path / "repo"),
            "--attack-id", "keylogging", "--out", str(out_csv),
        ])
        assert rc == 0
        assert out_csv.read_bytes() == GOLDEN.read_bytes()

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_similarity_oracle_equivalence():
    with criterion(2, "weighted-similarity oracle equivalence, 1000 pairs"):
        rng = random.Random(20240101)
        started = time.perf_counter()
        for trial in range(1000):
            new = random_case(rng, f"new-{trial}")
            old = random_case(rng, f"old-{trial}")
            result = similarity(new, old)
            expected = resum_similarity(new, old, result.alignment)
            assert abs(result.score - expected) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_3_dempster_shafer_dense_oracle():
    with criterion(3, "belief-function dense-enumeration oracle, 500 trials"):
        from conftest import nonempty_subsets

        rng = random.Random(20240202)
        started = time.perf_counter()
        frames = [("i1", "i2"), ("i1", "i2", "i3"), ("i1", "i2", "i3", "i4")]
        for trial in range(500):
            frame = frames[trial % len(frames)]
            m1 = random_mass_function(rng, frame, theta_floor=0.02)
            m2 = random_mass_function(rng, frame, theta_floor=0.02)
            combined = combine(m1, m2)
            expected_masses, _ = dense_combine(m1, m2)
            assert combined.masses == expected_masses

            full = frozenset(frame)
            for subset in nonempty_subsets(frame):
                bel = belief(combined, subset)
                pl = plausibility(combined, subset)
                assert bel == dense_belief(combined, subset)
                assert pl == dense_plausibility(combined, subset)
                assert bel <= pl
                assert abs(pl - (1.0 - belief(combined, full - subset))) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_4_combination_algebra():
    with criterion(4, "combination commutative/associative/identity, 500 triples"):
        rng = random.Random(20240303)
        frames = [("i1", "i2"), ("i1", "i2", "i3"), ("i1", "i2", "i3", "i4")]
        for trial in range(500):
            frame = frames[trial % len(frames)]
            m1 = random_mass_function(rng, frame, theta_floor=0.02)
            m2 = random_mass_function(rng, frame, theta_floor=0.02)
            m3 = random_mass_function(rng, frame, theta_floor=0.02)

            ab = combine(m1, m2)
            ba = combine(m2, m1)
            keys = set(ab.masses) | set(ba.masses)
            for key in keys:
                assert abs(ab.masses.get(key, 0.0) - ba.masses.get(key, 0.0)) <= 1e-9

            left = combine(ab, m3)
            right = combine(m1, combine(m2, m3))
            for key in set(left.masses) | set(right.masses):
                assert abs(left.masses.get(key, 0.0) - right.masses.get(key, 0.0)) <= 1e-9

            ident = combine(m1, vacuous(frame))
            for key in set(ident.masses) | set(m1.masses):
                assert abs(ident.masses.get(key, 0.0) - m1.masses.get(key, 0.0)) <= 1e-12


def test_criterion_5_bayes_normalization_and_worked_example():
    with criterion(5, "posterior normalization, 200 networks + worked example"):
        rng = random.Random(20240404)
        for _ in range(200):
            net = random_network(rng)
            for ev_id in net.evidence_ids:
                posts = posteriors_for_evidence(net, ev_id)
                assert abs(math.fsum(posts.values()) - 1.0) <= 1e-9

        network = CausalNetwork(
            attack_id="a1",
            intentions=(Intention("i1", "first goal"), Intention("i2", "second goal")),
            evidence_ids=("ev1",),
            priors={"i1": 0.5, "i2": 0.5},
            likelihoods={"ev1": {"i1": 0.8, "i2": 0.4}},
        )
        attack = Attack(
            id="a1", name="a1", detection_state=1.0,
            evidence=(Evidence(id="ev1", kind=EvidenceKind.TOOL_USAGE),),
        )
        report = analyze_attack(attack, network, [Hypothesis("h", accuracy=1.0)])
        assert report.selected == "i1"
        assert abs(report.per_intention["i1"][0] - 0.6667) <= 1e-4


def test_criterion_6_full_cycle_and_durability(tmp_path, capsys):
    with criterion(6, "full cycle, identity score, byte-stable reopen"):
        build_workspace(tmp_path)
        repo_path = str(tmp_path / "repo")
        assert ingest(tmp_path) == 0
        assert main(["analyze", "--repo", repo_path, "--attack-id", "keylogging"]) == 0
        assert main([
            "revise", "--repo", repo_path,
            "--case-id", "keylogging-c1", "--verdict", "accept",
        ]) == 0
        assert main(["retain", "--repo", repo_path, "--case-id", "keylogging-c1"]) == 0

        # Re-analyze the identical evidence: the retained case must win.
        assert main([
            "analyze", "--repo", repo_path, "--attack-id", "keylogging", "--top", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "keylogging-c1" in out

        repo = Repository.open(tmp_path / "repo")
        probe = Case(
            case_id="probe",
            attack=repo.load_attack("keylogging"),
            intention=None,
            evidence_weights={},
            status=CaseStatus.PROPOSED,
        )
        ranking = retrieve(probe, repo, k=1)
        assert ranking.entries[0].precedent_case_id == "keylogging-c1"
        assert abs(ranking.entries[0].score - 1.0) <= 1e-12

        # Reopen preserves every stored record byte for byte.
        case_files = sorted((tmp_path / "repo" / "cases").glob("*.json"))
        before = {p.name: p.read_bytes() for p in case_files}
        reopened = Repository.open(tmp_path / "repo")
        for name, blob in before.items():
            assert (tmp_path / "repo" / "cases" / name).read_bytes() == blob
            stored = reopened.get_case(name.removesuffix(".json"))
            assert canonical_dumps(case_to_dict(stored)).encode() == blob


def test_criterion_7_robustness(tmp_path, capsys):
    with criterion(7, "specified failures yield specified exit codes"):
        # Empty repository: analyze exits 3.
        empty = tmp_path / "empty"
        Repository.open(empty / "repo")
        demo.write_keylogging_csv(empty / "keylog.csv")
        assert main([
            "ingest", "--input", str(empty / "keylog.csv"), "--format", "csv",
            "--repo", str(empty / "repo"), "--attack-id", "keylogging",
        ]) == 0
        assert main([
            "analyze", "--repo", str(empty / "repo"), "--attack-id", "keylogging",
        ]) == 3
        with pytest.raises(EmptyRepository):
            repo = Repository.open(empty / "repo")
            probe = Case(
                case_id="p", attack=repo.load_attack("keylogging"),
                intention=None, evidence_weights={}, status=CaseStatus.PROPOSED,
            )
            retrieve(probe, repo, k=1)

        # Total conflict: seed-aia exits 4.
        conflict_dir = tmp_path / "conflict"
        conflict_dir.mkdir()
        network = replace(
            demo.demo_network(),
            likelihoods={
                "dev01": {"int-exfil": 1.0, "int-recon": 0.0},
                "dev02": {"int-exfil": 0.0, "int-recon": 1.0},
            },
        )
        (conflict_dir / "network.json").write_text(
            canonical_dumps(network_to_dict(network)), encoding="utf-8"
        )
        from intent_cbr.serialize import attack_to_dict

        attack = replace(demo.demo_attack(), detection_state=1.0)
        (conflict_dir / "attack.json").write_text(
            canonical_dumps(attack_to_dict(attack)), encoding="utf-8"
        )
        assert main([
            "seed-aia", "--repo", str(conflict_dir / "repo"),
            "--network", str(conflict_dir / "network.json"),
            "--attack", str(conflict_dir / "attack.json"),
        ]) == 4
        with pytest.raises(TotalConflict):
            analyze_attack(attack, network)

        # Zero marginal: seed-aia exits 4.
        zero_dir = tmp_path / "zero"
        zero_dir.mkdir()
        zero_net = replace(
            demo.demo_network(),
            likelihoods={
                "dev01": {"int-exfil": 0.0, "int-recon": 0.0},
                "dev02": {"int-exfil": 0.7, "int-recon": 0.5},
            },
        )
        (zero_dir / "network.json").write_text(
            canonical_dumps(network_to_dict(zero_net)), encoding="utf-8"
        )
        demo.write_demo_attack(zero_dir / "attack.json")
        assert main([
            "seed-aia", "--repo", str(zero_dir / "repo"),
            "--network", str(zero_dir / "network.json"),
            "--attack", str(zero_dir / "attack.json"),
        ]) == 4
        with pytest.raises(ZeroMarginal):
            analyze_attack(demo.demo_attack(), zero_net)

        # Corrupt stored record: reported, exit 2, never a silent answer.
        corrupt_dir = tmp_path / "corrupt"
        demo.install_demo_repository(corrupt_dir / "repo")
        demo.write_keylogging_csv(corrupt_dir / "keylog.csv")
        assert main([
            "ingest", "--input", str(corrupt_dir / "keylog.csv"), "--format", "csv",
            "--repo", str(corrupt_dir / "repo"), "--attack-id", "keylogging",
        ]) == 0
        target = corrupt_dir / "repo" / "cases" / "botnet-04.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        key = next(iter(doc["evidence_weights"]))
        doc["evidence_weights"][key] += 0.4
        target.write_text(json.dumps(doc), encoding="utf-8")
        assert main([
            "analyze", "--repo", str(corrupt_dir / "repo"), "--attack-id", "keylogging",
        ]) == 2
        err = capsys.readouterr().err
        assert "botnet-04" in err
        with pytest.raises(CorruptRecord) as excinfo:
            Repository.open(corrupt_dir / "repo")
        assert "botnet-04" in excinfo.value.details
