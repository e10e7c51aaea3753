"""Seeded inputs for the benchmark.

Everything here is plain JSON documents in the repository's canonical
form (sorted keys, two-space indent, floats at 12 significant digits),
built from ``random.Random`` streams named after the seed, so the same
seed always yields byte-identical files. The program under test only
ever sees the files.

The case and evidence distribution is the one of ``random_case`` in
``tests/conftest.py``: 1-6 evidence items, nine kinds, small shared
attribute pools (so evidence actually collides), weights from
uniform(0.01, 1) normalized. Causal networks follow the fusion-drift
probe of the roadmap: 3-6 intentions, 10-30 evidence items, hypothesis
accuracy (the attack's detection state) 0.8. Networks are not filtered
for fusion failures.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# EvidenceKind values in declaration order, so rng.choice matches
# random_case draw for draw.
KINDS = (
    "port-exploit",
    "function-implementation",
    "tool-usage",
    "command-usage",
    "registry-access",
    "address-indicator",
    "protocol-indicator",
    "vulnerability-indicator",
    "other",
)
ATTR_KEYS = ("tool", "port", "protocol", "target", "mode")
ATTR_VALUES = ("agobot", "irc", "6667", "registry", "scan", "http")
TIMESTAMP = "2024-01-01T00:00:00Z"
SCHEMA_VERSION = 1


def stream(seed: int, tag: str, index: int | None = None) -> random.Random:
    """Independent deterministic random stream for one input."""
    name = f"{seed}:{tag}" if index is None else f"{seed}:{tag}:{index}"
    return random.Random(name)


def canonical_float(x: float) -> float:
    return float(format(float(x), ".12g"))


def dumps(doc) -> str:
    """Canonical JSON text; equal to intent_cbr.serialize.canonical_dumps
    for documents whose floats are already canonical."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def evidence_doc(rng: random.Random, ev_id: str) -> dict:
    attrs = {key: rng.choice(ATTR_VALUES) for key in rng.sample(ATTR_KEYS, rng.randint(0, 3))}
    return {
        "id": ev_id,
        "kind": rng.choice(KINDS),
        "attributes": attrs,
        "description": "",
        "confidence": canonical_float(rng.random()),
    }


def query_size(index: int) -> int:
    """Evidence count of the index-th query: 1-6 in a fixed order.

    Retrieval cost grows with the query's evidence count. Cycling the
    counts, instead of drawing them, gives every run the same mix, so a
    run's median does not jump with the seed; contents stay random.
    """
    return (4, 1, 6, 3, 5, 2)[index % 6]


def attack_doc(rng: random.Random, attack_id: str, n_evidence: int | None = None,
               evidence_prefix: str | None = None) -> dict:
    """An attack with `n_evidence` evidence items (drawn from 1-6 when None)."""
    prefix = evidence_prefix or attack_id
    n = rng.randint(1, 6) if n_evidence is None else n_evidence
    return {
        "id": attack_id,
        "name": attack_id,
        "detection_state": 0.9,
        "evidence": [evidence_doc(rng, f"{prefix}-e{i}") for i in range(1, n + 1)],
    }


def case_doc(rng: random.Random, case_id: str) -> dict:
    """A confirmed precedent drawn like tests/conftest.py::random_case."""
    attack = attack_doc(rng, f"attack-{case_id}", evidence_prefix=case_id)
    attack["name"] = case_id
    raws = [rng.uniform(0.01, 1.0) for _ in attack["evidence"]]
    total = sum(raws)
    return {
        "case_id": case_id,
        "attack": attack,
        "intention": {"id": "int-x", "label": "some goal", "category": None},
        "evidence_weights": {
            ev["id"]: canonical_float(raw / total) for ev, raw in zip(attack["evidence"], raws)
        },
        "status": "precedent",
        "provenance": "analyst",
        "created_at": TIMESTAMP,
    }


def network_docs(rng: random.Random, attack_id: str) -> tuple[dict, dict]:
    """(causal network, matching attack) for the intention estimator."""
    intention_ids = [f"i{k}" for k in range(1, rng.randint(3, 6) + 1)]
    evidence_ids = [f"{attack_id}-e{k}" for k in range(1, rng.randint(10, 30) + 1)]
    raw_priors = [rng.uniform(0.05, 1.0) for _ in intention_ids]
    total = sum(raw_priors)
    network = {
        "attack_id": attack_id,
        "intentions": [
            {"id": iid, "label": f"goal {iid}", "category": None} for iid in intention_ids
        ],
        "evidence_ids": evidence_ids,
        "priors": {iid: canonical_float(p / total) for iid, p in zip(intention_ids, raw_priors)},
        "likelihoods": {
            ev: {iid: canonical_float(rng.uniform(0.05, 1.0)) for iid in intention_ids}
            for ev in evidence_ids
        },
    }
    attack = {
        "id": attack_id,
        "name": attack_id,
        "detection_state": 0.8,
        "evidence": [evidence_doc(rng, ev_id) for ev_id in evidence_ids],
    }
    return network, attack


def write(path: Path, doc) -> Path:
    path.write_text(dumps(doc), encoding="utf-8")
    return path


def build_repository(root: Path, n_cases: int, seed: int) -> None:
    """Write a repository of `n_cases` precedents p00000, p00001, ..."""
    for sub in ("cases", "networks", "attacks"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    write(root / "meta.json", {"schema_version": SCHEMA_VERSION})
    rng = stream(seed, "repo")
    cases = root / "cases"
    for k in range(n_cases):
        case_id = f"p{k:05d}"
        write(cases / f"{case_id}.json", case_doc(rng, case_id))
