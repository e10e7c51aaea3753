"""The paper's corpus: a keylogging investigation and eleven botnet precedents.

The records are the files under ``intent_cbr/paper/`` (:data:`PAPER`), in
canonical form: ``cases/botnet-01.json`` ... ``cases/botnet-11.json``, the
keylogging attack as ``keylogging_attack.json`` and as the ingestable
``keylog.csv``, and a causal network with its attack as ``demo_network.json``
and ``demo_attack.json``. The functions here only decode or copy them.

Each precedent copies some keylogging items (same kind and attributes, so
local similarity 1.0) and adds items of kinds the keylogging attack lacks.
The copies' weights sum to its score in :data:`REFERENCE_RANKING` (a test
checks this over the files), so retrieval reproduces that ranking exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import Attack, Case, CausalNetwork
from .repository import Repository
from .serialize import attack_from_dict, case_from_dict, network_from_dict

PAPER = Path(__file__).parent / "paper"

FIXTURE_TIMESTAMP = "2024-01-01T00:00:00Z"

KEYLOGGING_ATTACK_ID = "keylogging"

# (case_id, score) in expected ranking order for the keylogging case.
REFERENCE_RANKING: tuple[tuple[str, float], ...] = (
    ("botnet-03", 0.91),
    ("botnet-01", 0.85),
    ("botnet-02", 0.79),
    ("botnet-10", 0.71),
    ("botnet-04", 0.68),
    ("botnet-07", 0.67),
    ("botnet-05", 0.64),
    ("botnet-06", 0.62),
    ("botnet-08", 0.53),
    ("botnet-09", 0.43),
    ("botnet-11", 0.38),
)


def _document(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _copy(name: str, path) -> Path:
    path = Path(path)
    path.write_bytes((PAPER / name).read_bytes())
    return path


def keylogging_attack() -> Attack:
    """The keylogging investigation with its five evidence items."""
    return attack_from_dict(_document(PAPER / "keylogging_attack.json"))


def write_keylogging_csv(path) -> Path:
    """Write the keylogging evidence as an ingestable CSV file."""
    return _copy("keylog.csv", path)


def write_keylogging_json(path) -> Path:
    """Write the keylogging attack as an ingestable JSON document."""
    return _copy("keylogging_attack.json", path)


def precedent_cases() -> tuple[Case, ...]:
    """The eleven confirmed botnet precedents, in case-id order."""
    paths = sorted((PAPER / "cases").glob("*.json"))
    return tuple(case_from_dict(_document(path)) for path in paths)


def install_demo_repository(root) -> Repository:
    """Create a repository at `root` seeded with the eleven precedents."""
    repo = Repository.open(root)
    for case in precedent_cases():
        repo.add_case(case)
    return repo


def demo_network() -> CausalNetwork:
    """Small two-intention causal network for the standalone estimator."""
    return network_from_dict(_document(PAPER / "demo_network.json"))


def demo_attack() -> Attack:
    """Attack matching :func:`demo_network`."""
    return attack_from_dict(_document(PAPER / "demo_attack.json"))


def write_demo_network(path) -> Path:
    return _copy("demo_network.json", path)


def write_demo_attack(path) -> Path:
    return _copy("demo_attack.json", path)
