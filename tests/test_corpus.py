"""The paper corpus under ``intent_cbr/paper/``: its construction rule and
its packaging."""

import json
import math
from decimal import Decimal
from pathlib import Path

import pytest

from intent_cbr import fixtures as demo
from intent_cbr.model import CaseStatus
from intent_cbr.serialize import case_from_dict

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CASE_FILES = sorted((demo.PAPER / "cases").glob("*.json"))


def _decimal_sum(weights) -> Decimal:
    # Each weight's shortest repr, the text its file holds, summed exactly.
    return sum(Decimal(repr(weight)) for weight in weights)


def test_there_is_one_case_file_per_reference_precedent():
    assert [path.stem for path in CASE_FILES] == sorted(dict(demo.REFERENCE_RANKING))


@pytest.mark.parametrize("path", CASE_FILES, ids=lambda path: path.stem)
def test_precedent_follows_the_construction_rule(path):
    case = case_from_dict(json.loads(path.read_text(encoding="utf-8")))
    keylogging = demo.keylogging_attack().evidence
    copies = [
        ev for ev in case.attack.evidence
        if any((ev.kind, ev.attributes) == (k.kind, k.attributes) for k in keylogging)
    ]
    others = [ev for ev in case.attack.evidence if ev not in copies]
    weights = case.evidence_weights
    assert math.fsum(weights.values()) == 1.0
    # A copy scores local similarity 1.0, so its weight counts in full. The
    # copies' weights as written sum to the score exactly; an fsum of their
    # binary values lands one unit off it for some precedents.
    score = dict(demo.REFERENCE_RANKING)[case.case_id]
    assert _decimal_sum(weights[ev.id] for ev in copies) == Decimal(repr(score))
    assert others
    assert {ev.kind for ev in others}.isdisjoint(k.kind for k in keylogging)
    assert case.status is CaseStatus.PRECEDENT
    assert case.created_at == demo.FIXTURE_TIMESTAMP


def test_package_data_ships_every_corpus_file():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["intent_cbr"]
    package = demo.PAPER.parent
    shipped = {path for pattern in patterns for path in package.glob(pattern)}
    files = {path for path in demo.PAPER.rglob("*") if path.is_file()}
    assert len(files) == 15
    assert sorted(map(str, files - shipped)) == []
