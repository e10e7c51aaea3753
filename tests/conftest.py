"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import errno
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import strategies as st

from intent_cbr import fixtures as demo
from intent_cbr import summary
from intent_cbr.model import (
    Attack,
    Case,
    CaseStatus,
    CausalNetwork,
    Evidence,
    EvidenceKind,
    Intention,
    MassFunction,
)
from intent_cbr.repository import Repository

FRAME_IDS = ("i1", "i2", "i3", "i4")

# Small pools so random evidence actually collides on kinds/attributes.
_ATTR_KEYS = ("tool", "port", "protocol", "target", "mode")
_ATTR_VALUES = ("agobot", "irc", "6667", "registry", "scan", "http")


@pytest.fixture
def repo(tmp_path):
    return Repository.open(tmp_path / "repo")


@pytest.fixture
def demo_repo(tmp_path):
    return demo.install_demo_repository(tmp_path / "repo")


@pytest.fixture
def keylogging_case():
    return Case(
        case_id="keylogging-new",
        attack=demo.keylogging_attack(),
        intention=None,
        evidence_weights={},
        status=CaseStatus.PROPOSED,
        created_at=demo.FIXTURE_TIMESTAMP,
    )


# --- hypothesis strategies ---------------------------------------------------


@st.composite
def evidence_st(draw, ev_id: str) -> Evidence:
    kind = draw(st.sampled_from(list(EvidenceKind)))
    n_attrs = draw(st.integers(0, 3))
    keys = draw(
        st.lists(st.sampled_from(_ATTR_KEYS), min_size=n_attrs, max_size=n_attrs, unique=True)
    )
    attrs = {key: draw(st.sampled_from(_ATTR_VALUES)) for key in keys}
    confidence = draw(st.floats(0.0, 1.0, allow_nan=False))
    return Evidence(id=ev_id, kind=kind, attributes=attrs, confidence=confidence)


@st.composite
def case_st(draw, case_id: str, status=CaseStatus.PRECEDENT) -> Case:
    """Random case with normalized weights and an intention."""
    n = draw(st.integers(1, 6))
    evidence = tuple(draw(evidence_st(f"{case_id}-e{i}")) for i in range(1, n + 1))
    raws = [draw(st.floats(0.01, 1.0, allow_nan=False)) for _ in range(n)]
    total = sum(raws)
    weights = {ev.id: raw / total for ev, raw in zip(evidence, raws)}
    return Case(
        case_id=case_id,
        attack=Attack(
            id=f"attack-{case_id}", name=case_id, detection_state=0.9, evidence=evidence
        ),
        intention=Intention(id="int-x", label="some goal"),
        evidence_weights=weights,
        status=status,
        created_at="2024-01-01T00:00:00Z",
    )


def case_pair_st():
    return st.tuples(case_st("new"), case_st("old"))


@st.composite
def mass_function_st(draw, max_frame: int = 4, theta_floor: float = 0.0) -> MassFunction:
    n = draw(st.integers(2, max_frame))
    frame = FRAME_IDS[:n]
    subsets = nonempty_subsets(frame)
    picks = draw(
        st.lists(st.sampled_from(subsets), min_size=1, max_size=len(subsets), unique=True)
    )
    raw = {s: draw(st.floats(0.01, 1.0, allow_nan=False)) for s in picks}
    if theta_floor > 0.0:
        theta = frozenset(frame)
        raw[theta] = max(raw.get(theta, 0.0), theta_floor * sum(raw.values()))
    total = sum(raw.values())
    return MassFunction(frame=frame, masses={s: v / total for s, v in raw.items()})


@st.composite
def network_st(draw, max_intentions: int = 4, max_evidence: int = 4) -> CausalNetwork:
    n_int = draw(st.integers(2, max_intentions))
    n_ev = draw(st.integers(1, max_evidence))
    intention_ids = FRAME_IDS[:n_int]
    evidence_ids = tuple(f"ev{i}" for i in range(1, n_ev + 1))
    raw_priors = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in intention_ids]
    total = sum(raw_priors)
    priors = {iid: p / total for iid, p in zip(intention_ids, raw_priors)}
    likelihoods = {
        ev: {iid: draw(st.floats(0.05, 1.0, allow_nan=False)) for iid in intention_ids}
        for ev in evidence_ids
    }
    return CausalNetwork(
        attack_id="attack-x",
        intentions=tuple(Intention(iid, f"goal {iid}") for iid in intention_ids),
        evidence_ids=evidence_ids,
        priors=priors,
        likelihoods=likelihoods,
    )


# --- plain-random generators (seeded, used by the acceptance suite) -----------


def nonempty_subsets(frame) -> list[frozenset[str]]:
    return [
        frozenset(combo)
        for r in range(1, len(frame) + 1)
        for combo in itertools.combinations(frame, r)
    ]


def random_mass_function(rng: random.Random, frame, theta_floor: float = 0.0) -> MassFunction:
    subsets = nonempty_subsets(frame)
    picks = rng.sample(subsets, rng.randint(1, len(subsets)))
    raw = {s: rng.uniform(0.01, 1.0) for s in picks}
    if theta_floor > 0.0:
        theta = frozenset(frame)
        raw[theta] = max(raw.get(theta, 0.0), theta_floor * sum(raw.values()))
    total = sum(raw.values())
    return MassFunction(frame=frame, masses={s: v / total for s, v in raw.items()})


def random_evidence(rng: random.Random, ev_id: str) -> Evidence:
    attrs = {
        key: rng.choice(_ATTR_VALUES)
        for key in rng.sample(_ATTR_KEYS, rng.randint(0, 3))
    }
    return Evidence(
        id=ev_id,
        kind=rng.choice(list(EvidenceKind)),
        attributes=attrs,
        confidence=rng.random(),
    )


def random_case(rng: random.Random, case_id: str) -> Case:
    n = rng.randint(1, 6)
    evidence = tuple(random_evidence(rng, f"{case_id}-e{i}") for i in range(1, n + 1))
    raws = [rng.uniform(0.01, 1.0) for _ in range(n)]
    total = sum(raws)
    return Case(
        case_id=case_id,
        attack=Attack(
            id=f"attack-{case_id}", name=case_id, detection_state=0.9, evidence=evidence
        ),
        intention=Intention(id="int-x", label="some goal"),
        evidence_weights={ev.id: raw / total for ev, raw in zip(evidence, raws)},
        status=CaseStatus.PRECEDENT,
        created_at="2024-01-01T00:00:00Z",
    )


def random_network(
    rng: random.Random, intentions=(2, 5), evidence=(1, 6)
) -> CausalNetwork:
    """Random network whose intention and evidence counts lie in the
    inclusive ranges given."""
    n_int = rng.randint(*intentions)
    n_ev = rng.randint(*evidence)
    intention_ids = [f"i{k}" for k in range(1, n_int + 1)]
    evidence_ids = tuple(f"ev{k}" for k in range(1, n_ev + 1))
    raw_priors = [rng.uniform(0.05, 1.0) for _ in intention_ids]
    total = sum(raw_priors)
    return CausalNetwork(
        attack_id="attack-x",
        intentions=tuple(Intention(iid, f"goal {iid}") for iid in intention_ids),
        evidence_ids=evidence_ids,
        priors={iid: p / total for iid, p in zip(intention_ids, raw_priors)},
        likelihoods={
            ev: {iid: rng.uniform(0.05, 1.0) for iid in intention_ids}
            for ev in evidence_ids
        },
    )


def settle(root) -> None:
    """Wait until the file system's clock has passed the ctime of every
    case file at `root`, so that a case summary made now can hold a row
    for each (git's racy-git rule)."""
    newest = max(path.stat().st_ctime_ns for path in (Path(root) / "cases").iterdir())
    while summary._file_system_time(root) <= newest:
        time.sleep(0.001)


def unstatable_case_file(monkeypatch, case_id: str) -> None:
    """Make the stat of ``cases/<case_id>.json``, as the handle's
    ``_case_files`` yields it, raise OSError; nothing on disk changes."""

    class Unstatable:
        def __init__(self, entry):
            self.path = entry.path

        def stat(self):
            raise OSError(errno.EIO, "simulated stat failure")

    case_files = Repository._case_files

    def failing_case_files(self):
        for found, entry in case_files(self):
            yield found, Unstatable(entry) if found == case_id else entry

    monkeypatch.setattr(Repository, "_case_files", failing_case_files)
