"""Tests of the benchmark itself: inputs, checks and count determinism.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

sys.path.insert(0, str(run.SRC))

from intent_cbr.cbr import similarity  # noqa: E402
from intent_cbr.repository import Repository  # noqa: E402
from intent_cbr.serialize import canonical_dumps, case_from_dict, case_to_dict  # noqa: E402

# Counts that must repeat exactly for a seed: the signal that survives
# the host's speed drift.
DETERMINISTIC_COUNTS = (
    "repository.cases_loaded",
    "cbr.evidence_pairs_compared",
    "cbr.evidence_pairs_matched",
    "repository.bytes_written",
    "inference.combine_calls",
    "inference.failures",
    "traced_ops",
)


def test_generated_repository_is_canonical_and_seeded(tmp_path):
    gen.build_repository(tmp_path / "a", 40, seed=7)
    gen.build_repository(tmp_path / "b", 40, seed=7)
    gen.build_repository(tmp_path / "c", 40, seed=8)
    files = sorted((tmp_path / "a" / "cases").glob("*.json"))
    assert len(files) == 40
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert canonical_dumps(case_to_dict(case_from_dict(json.loads(text)))) == text
        assert (tmp_path / "b" / "cases" / path.name).read_text(encoding="utf-8") == text
    differs = [
        p.name for p in files
        if (tmp_path / "c" / "cases" / p.name).read_text(encoding="utf-8") != p.read_text(encoding="utf-8")
    ]
    assert differs
    assert Repository.open(tmp_path / "a").case_count() == 40


def test_network_sizes_follow_the_fusion_drift_probe():
    for i in range(50):
        network, attack = gen.network_docs(gen.stream(1, "net", i), f"na{i}")
        assert 3 <= len(network["intentions"]) <= 6
        assert 10 <= len(network["evidence_ids"]) <= 30
        assert [ev["id"] for ev in attack["evidence"]] == network["evidence_ids"]
        assert attack["detection_state"] == 0.8


def test_resum_check_agrees_with_program_and_catches_a_wrong_score():
    for i in range(200):
        rng = gen.stream(3, "pairs", i)
        new_doc, old_doc = gen.case_doc(rng, f"new{i}"), gen.case_doc(rng, f"old{i}")
        result = similarity(case_from_dict(new_doc), case_from_dict(old_doc))
        expected = checks.resum_score(new_doc["attack"]["evidence"], old_doc, result.alignment)
        assert checks.expect_score("pair", result.score, expected, checks.SCORE_TOLERANCE) == []
        assert checks.expect_score("pair", result.score + 1e-9, expected, checks.SCORE_TOLERANCE)


def test_belief_and_top_k_checks():
    table = {"i1": (0.4, 0.6), "i2": (0.4, 0.5), "i3": (0.1, 0.2)}
    assert checks.expect_belief_report("x", table, "i1", 0.0) == []
    assert checks.expect_belief_report("x", table, "i2", 0.0)
    assert checks.expect_belief_report("x", {"i1": (0.5, 0.4)}, "i1", 0.0)
    assert checks.expect_top_k("x", ["a", "b"], ["a", "b", "c"], 2) == []
    assert checks.expect_top_k("x", ["b", "a"], ["a", "b", "c"], 2)


def test_tail_is_the_highest_sample_with_ten_above():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_a_failing_command_makes_the_run_incorrect(tmp_path):
    bench = run.Bench("paper-cycle", seed=1, trace=False, work=tmp_path)
    bench.repo = tmp_path / "missing"
    bench.report("kl0", traced=False)
    assert bench.failures["report"] == 1
    assert bench.violations and ("report", False) not in bench.walls

    # The fusion drift is a failed op, but not an incorrect run.
    drift = "exit 2: error: masses sum to 1.000000001267557, expected 1"
    assert not bench.record("seed-aia", 150.0, 4.0, [drift], [], False)
    assert not bench.record("estimate", 0.9, 4.0, ["ValidationFailure: masses sum to 0.99, expected 1"], [], False)
    assert len(bench.violations) == 1
    assert len(bench.walls[("seed-aia", False)]) == len(bench.walls[("estimate", False)]) == 1
    assert not bench.record("seed-aia", 150.0, 4.0, ["exit 4: error: total conflict"], [], False)
    assert len(bench.violations) == 2


@pytest.mark.parametrize("workload", ["paper-cycle", "cycle-2k"])
def test_counts_repeat_exactly_for_a_seed(workload):
    # Four seconds make 2-4 rounds; the first is traced.
    first = run.run_workload(workload, seed=5, seconds=4, trace=True)
    second = run.run_workload(workload, seed=5, seconds=4, trace=True)
    for name in DETERMINISTIC_COUNTS:
        assert first["counts"][name] == second["counts"][name], name
    assert first["counts"]["repository.cases_loaded"] > 0
    assert first["counts"]["cbr.evidence_pairs_compared"] > 0
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    assert first["violations"] == second["violations"] == 0
