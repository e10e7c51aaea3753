"""The package namespace: the names it exports, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intent_cbr

SRC = Path(__file__).resolve().parent.parent / "src"

SUBMODULES = ["cbr", "errors", "inference", "ingest", "model", "repository", "serialize"]

EXPORTED = [
    "AllZeroPosteriors", "Attack", "BeliefReport", "Case", "CaseStatus",
    "CausalNetwork", "ConfidenceOutOfRange", "CorruptRecord", "DuplicateCaseId",
    "DuplicateEvidenceId", "EmptyPosteriors", "EmptyRanking", "EmptyRepository",
    "Evidence", "EvidenceKind", "FrameMismatch", "Hypothesis", "IllegalTransition",
    "IntentCbrError", "Intention", "IoFailure", "MalformedRecord", "MassFunction",
    "NoHypothesis", "Repository", "RetrievalRanking", "ReviseVerdict",
    "SchemaVersionMismatch", "SimilarityResult", "SubsetOutsideFrame",
    "TotalConflict", "UnknownCaseId", "UnknownEvidence", "UnnormalizedWeights",
    "ValidationFailure", "ZeroMarginal", "align_evidence", "analyze_attack",
    "belief", "build_mass_function", "cbr", "combine", "errors",
    "evidence_marginal", "inference", "ingest", "initialize_incipient",
    "local_similarity", "map_kind", "model", "parse_evidence_file",
    "plausibility", "posterior", "posteriors_for_evidence", "repository",
    "retain", "retrieve", "reuse", "revise", "serialize", "similarity",
    "transition", "vacuous", "validate_attack", "validate_case",
    "validate_network", "write_ranking_csv",
]


def _python(code):
    """Run `code` in a fresh interpreter that imports the package from src."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_is_pinned():
    assert intent_cbr.__all__ == EXPORTED
    assert "__version__" not in intent_cbr.__all__


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_the_object_of_its_defining_module(name):
    value = getattr(intent_cbr, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"intent_cbr.{name}")
    else:
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_exported_name():
    assert set(EXPORTED) <= set(dir(intent_cbr))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="intent_cbr"):
        intent_cbr.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    names = _python(
        "from intent_cbr import *\n"
        "print('\\n'.join(sorted(n for n in dir() if not n.startswith('_'))))"
    ).split()
    assert names == sorted(EXPORTED)


def test_importing_the_package_loads_no_submodule():
    loaded = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import intent_cbr\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    ).split()
    assert [name for name in loaded if name.startswith("intent_cbr.")] == []


def test_no_command_loads_the_modules_that_generate_code():
    # dataclasses and the inspect it imports cost each CLI process about
    # 20 ms of start-up. The site module may load typing before this runs
    # (a .pth file can), and then typing is not newly loaded here.
    loaded = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import intent_cbr.cli\n"
        "import intent_cbr.ingest, intent_cbr.inference\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    ).split()
    assert "intent_cbr.inference" in loaded
    assert [name for name in ("dataclasses", "inspect", "typing") if name in loaded] == []
