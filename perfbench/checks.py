"""Output checks. Each returns a list of problems; empty means correct.

They re-derive results from the stored documents with plain arithmetic,
the way ``tests/oracles.py`` does, instead of trusting the program's
own summaries.
"""

from __future__ import annotations

import json
from pathlib import Path

# Plain left-to-right sums against the program's math.fsum, as in the
# similarity oracle test.
SCORE_TOLERANCE = 1e-12
# The chart JSON carries scores at 12 significant digits.
CHART_TOLERANCE = SCORE_TOLERANCE + 5e-13
BELIEF_TOLERANCE = 1e-12


def stored_status(repo: Path, case_id: str) -> str | None:
    """Status of a case as the file on disk holds it, None if absent."""
    path = repo / "cases" / f"{case_id}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get("status")


def expect_status(repo: Path, case_id: str, status: str) -> list[str]:
    got = stored_status(repo, case_id)
    if got != status:
        return [f"case {case_id}: stored status {got!r}, expected {status!r}"]
    return []


def resum_score(new_evidence: list[dict], precedent: dict, alignment) -> float:
    """Plain re-summation of local similarity times precedent weight.

    `new_evidence` and `precedent` are stored documents; `alignment` is
    the program's (new id, precedent id, ...) pairing. Local similarities
    are re-derived from the evidence, not read from the alignment.
    """
    new_by_id = {ev["id"]: ev for ev in new_evidence}
    prec_by_id = {ev["id"]: ev for ev in precedent["attack"]["evidence"]}
    total = 0.0
    for new_id, prec_id, *_ in alignment:
        n_ev, p_ev = new_by_id[new_id], prec_by_id[prec_id]
        if n_ev["kind"] != p_ev["kind"]:
            sim = 0.0
        else:
            left = set(n_ev.get("attributes", {}).items())
            right = set(p_ev.get("attributes", {}).items())
            overlap = 1.0 if not left and not right else len(left & right) / len(left | right)
            sim = 0.5 + 0.5 * overlap
        total += sim * precedent["evidence_weights"].get(prec_id, 0.0)
    return total


def expect_score(label: str, got: float, expected: float, tolerance: float) -> list[str]:
    if abs(got - expected) > tolerance:
        return [f"{label}: score {got!r}, re-summed {expected!r}"]
    return []


def expect_top_k(label: str, top: list, full: list, k: int) -> list[str]:
    """A top-k list must be the first k rows of the full ranking."""
    if top != full[:k]:
        return [f"{label}: top-{k} {top} is not the head of the full ranking {full[:k]}"]
    return []


def expect_belief_report(label: str, per_intention: dict, selected: str, tolerance: float) -> list[str]:
    """Selected intention is the belief argmax (ties: smallest id), bel <= pl."""
    problems = []
    for iid, (bel, pl) in per_intention.items():
        if bel > pl + tolerance:
            problems.append(f"{label}: intention {iid} belief {bel} > plausibility {pl}")
    best = max(bel for bel, _ in per_intention.values())
    leaders = sorted(iid for iid, (bel, _) in per_intention.items() if bel >= best - tolerance)
    # Within `tolerance` of the maximum the selection is a tie; the
    # program must then pick the smallest id among the exact leaders,
    # which at reduced precision is any of them.
    if selected not in leaders or (tolerance == 0.0 and selected != leaders[0]):
        problems.append(f"{label}: selected {selected!r}, belief leaders {leaders}")
    return problems


def mass_beliefs(mass) -> dict[str, tuple[float, float]]:
    """Belief and plausibility of each singleton, re-derived from a mass function."""
    out = {}
    for iid in mass.frame:
        bel = 0.0
        pl = 0.0
        for focal, value in mass.masses.items():
            if focal == frozenset((iid,)):
                bel += value
            if iid in focal:
                pl += value
        out[iid] = (bel, pl)
    return out


def parse_ranking(stdout: str) -> list[tuple[str, str]]:
    """(precedent id, 4-decimal score) rows from `analyze` output."""
    rows = []
    lines = stdout.splitlines()
    for line in lines[2:]:
        parts = line.split()
        if len(parts) < 3 or not parts[0].isdigit():
            break
        rows.append((parts[2], parts[1]))
    return rows


def parse_belief_table(stdout: str) -> tuple[dict[str, tuple[float, float]], str | None]:
    """Per-intention (belief, plausibility) and the selection from `seed-aia` output."""
    table: dict[str, tuple[float, float]] = {}
    selected = None
    for line in stdout.splitlines()[1:]:
        if line.startswith("selected: "):
            selected = line.split(": ", 1)[1].strip()
            break
        iid, bel, pl = line.split()
        table[iid] = (float(bel), float(pl))
    return table, selected
