"""The five-process reasoning cycle over the precedent repository.

Retrieve similar precedents by weighted evidence similarity, reuse the
best precedent's intention as a proposal, initialize the incipient case
handed to the investigator, apply the human revise verdict, and retain
confirmed cases back into the repository.

Similarity is asymmetric by design: weights come from the precedent
side (they live in the repository), and unmatched precedent evidence
contributes nothing, which penalizes missing evidence.
"""

from __future__ import annotations

import csv
import heapq
import math
import weakref
from operator import itemgetter

from .errors import EmptyRanking, EmptyRepository, UnnormalizedWeights, ValidationFailure
from .model import (
    CONFIRMED_STATUSES,
    SUM_TOLERANCE,
    Attack,
    Case,
    CaseStatus,
    Evidence,
    EvidenceKind,
    Intention,
    Record,
    SimilarityResult,
    _setters,
    fsum_or_nan,
    replace,
    transition,
)

# Column of each evidence kind in a bound row (see _bound_row).
_COLUMN = {kind: column for column, kind in enumerate(EvidenceKind, start=1)}
_ZERO_TOTALS = (0.0,) * len(_COLUMN)

# Bound rows of each repository handle, by case id. A row dies with its
# handle, and is used only for the very precedent object it was built from.
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class RetrievalRanking(Record):
    """Precedents ordered by descending score, ties by ascending case id."""

    __slots__ = ("new_case_id", "entries", "precedent_intentions")

    def __init__(
        self,
        new_case_id: str,
        entries: tuple[SimilarityResult, ...],
        # Intention of each ranked precedent, so reuse and report need no
        # repository handle of their own. None: a new {}.
        precedent_intentions: dict[str, Intention] | None = None,
    ):
        _rank_new_case_id(self, new_case_id)
        _rank_entries(self, entries)
        _rank_intentions(self, {} if precedent_intentions is None else precedent_intentions)


_rank_new_case_id, _rank_entries, _rank_intentions = _setters(RetrievalRanking)


class ReviseVerdict(Record):
    """Investigator judgment on an incipient intention."""

    __slots__ = ("verdict", "rationale", "crime_type", "damage_note")

    def __init__(
        self,
        verdict: str,  # "accept" | "reject"
        rationale: str = "",
        crime_type: str = "",
        damage_note: str = "",
    ):
        if verdict not in ("accept", "reject"):
            raise ValidationFailure(f"verdict must be accept or reject, got {verdict!r}")
        if verdict == "reject" and not rationale.strip():
            raise ValidationFailure("a reject verdict requires a rationale")
        _rv_verdict(self, verdict)
        _rv_rationale(self, rationale)
        _rv_crime_type(self, crime_type)
        _rv_damage_note(self, damage_note)


_rv_verdict, _rv_rationale, _rv_crime_type, _rv_damage_note = _setters(ReviseVerdict)


def local_similarity(n_ev: Evidence, p_ev: Evidence) -> float:
    """Similarity of two evidence items in [0, 1].

    Different kinds never match. Same kind scores 0.5 plus 0.5 times
    the Jaccard overlap of the key=value attribute sets, with two empty
    sets counting as a full overlap.
    """
    if n_ev.kind != p_ev.kind:
        return 0.0
    new_attrs = set(n_ev.attributes.items())
    precedent_attrs = set(p_ev.attributes.items())
    if not new_attrs and not precedent_attrs:
        overlap = 1.0
    else:
        overlap = len(new_attrs & precedent_attrs) / len(new_attrs | precedent_attrs)
    return 0.5 + 0.5 * overlap


def align_evidence(
    new_case: Case, precedent: Case
) -> tuple[tuple[str, str, float], ...]:
    """Greedy best-first matching of new evidence to precedent evidence.

    Repeatedly pairs the highest-similarity unmatched pair with a
    positive similarity; ties break on ascending (new id, precedent id).
    Each evidence item is used at most once. May be empty.
    """
    candidates: list[tuple[float, str, str]] = []
    for n_ev in new_case.attack.evidence:
        for p_ev in precedent.attack.evidence:
            sim = local_similarity(n_ev, p_ev)
            if sim > 0.0:
                candidates.append((sim, n_ev.id, p_ev.id))
    candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_new: set[str] = set()
    used_precedent: set[str] = set()
    pairs: list[tuple[str, str, float]] = []
    for sim, n_id, p_id in candidates:
        if n_id in used_new or p_id in used_precedent:
            continue
        used_new.add(n_id)
        used_precedent.add(p_id)
        pairs.append((n_id, p_id, sim))
    return tuple(pairs)


def similarity(new_case: Case, precedent: Case) -> SimilarityResult:
    """Weighted sum of local similarities over the greedy alignment.

    Weights are the precedent's stored evidence weights and must be
    normalized; unmatched precedent evidence contributes 0.
    """
    weights = _checked_weights(precedent)
    alignment = align_evidence(new_case, precedent)
    score = math.fsum(sim * weights.get(p_id, 0.0) for _, p_id, sim in alignment)
    return SimilarityResult(
        new_case_id=new_case.case_id,
        precedent_case_id=precedent.case_id,
        alignment=alignment,
        score=score,
    )


def retrieve(new_case: Case, repository, k: int | None) -> RetrievalRanking:
    """Rank confirmed precedents by similarity to `new_case`, keep the top k.

    ``k=None`` scores every precedent (used by full reports). A finite k
    visits precedents in descending order of an upper bound on their
    score and stops once k scores are held and the next bound is below
    the k-th of them (the threshold algorithm of Fagin, Lotem & Naor).
    The ranking is exactly the one of scoring every precedent. The bounds
    come from rows that a repository handle keeps from its first top-k
    call on (see :func:`_bound_rows`), so the handle must be hashable and
    weakly referenceable, as :class:`~intent_cbr.repository.Repository` is.
    """
    if k is not None and k < 1:
        raise ValidationFailure(f"k must be positive, got {k}")
    precedents = repository.list_cases(status=CONFIRMED_STATUSES)
    if not precedents:
        raise EmptyRepository("no precedent or retained cases stored")
    if k is None:
        scored = [(similarity(new_case, p), p) for p in precedents]
    else:
        scored = _bounded_scores(new_case, _bound_rows(repository, precedents), k)
    scored.sort(key=lambda item: (-item[0].score, item[0].precedent_case_id))
    top = scored[:k]
    return RetrievalRanking(
        new_case_id=new_case.case_id,
        entries=tuple(result for result, _ in top),
        precedent_intentions={
            p.case_id: p.intention for _, p in top if p.intention is not None
        },
    )


def _bounded_scores(
    new_case: Case, rows: list[tuple], k: int
) -> list[tuple[SimilarityResult, Case]]:
    """Scores of the precedents that can still reach the top k.

    `rows` holds the precedents' bound rows. Visits precedents by
    descending bound, ties by ascending case id. A precedent whose bound
    equals the k-th score is still scored, since it can win that tie on
    its case id.
    """
    bounds = _bounds(new_case, rows)
    pending = [(-bound, row[0].case_id, row[0]) for bound, row in zip(bounds, rows)]
    heapq.heapify(pending)
    best: list[float] = []  # min-heap of the k highest scores so far
    scored: list[tuple[SimilarityResult, Case]] = []
    while pending:
        neg_bound, _, precedent = heapq.heappop(pending)
        if len(best) == k and -neg_bound < best[0]:
            break
        result = similarity(new_case, precedent)
        scored.append((result, precedent))
        if len(best) < k:
            heapq.heappush(best, result.score)
        else:
            heapq.heappushpop(best, result.score)
    return scored


def _bounds(new_case: Case, rows: list[tuple]):
    """Upper bound on ``similarity(new_case, row[0]).score`` for each
    bound row, in order.

    Only evidence of a query kind can align, each item aligns at most
    once, a local similarity is at most 1 and weights are non-negative, so
    a score is at most the weight of the precedent's evidence of the
    query's kinds. Each total in a row is at least the exact sum of its
    weights, so their ``fsum`` is never below the score's.
    """
    columns = {_COLUMN[ev.kind] for ev in new_case.attack.evidence}
    if len(columns) == 1:
        return map(itemgetter(*columns), rows)
    if columns:
        return map(math.fsum, map(itemgetter(*columns), rows))
    return [0.0] * len(rows)  # a query without evidence aligns with nothing


def _bound_rows(repository, precedents: list[Case]) -> list[tuple]:
    """The precedents' bound rows, kept per repository handle.

    The handle keys the rows weakly, so it must be hashable and weakly
    referenceable. A row is rebuilt whenever the handle lists another
    object under its case id, as after a write.
    """
    rows = _ROWS.setdefault(repository, {})
    found = []
    for precedent in precedents:
        row = rows.get(precedent.case_id)
        if row is None or row[0] is not precedent:
            row = rows[precedent.case_id] = _bound_row(precedent)
        found.append(row)
    return found


def _bound_row(precedent: Case) -> tuple:
    """The precedent, then its weight total per :class:`EvidenceKind`.

    Checks the precedent's weights as :func:`similarity` does. A kind the
    precedent lacks totals 0.0 and a kind with one item its weight. The
    ``fsum`` of several is rounded one step up when the exact sum is
    above it, so every total is at least the exact sum of its weights.
    """
    weights = _checked_weights(precedent)
    by_column: dict[int, list[float]] = {}
    for ev in precedent.attack.evidence:
        by_column.setdefault(_COLUMN[ev.kind], []).append(weights.get(ev.id, 0.0))
    row = [precedent, *_ZERO_TOTALS]
    for column, terms in by_column.items():
        total = terms[0]
        if len(terms) > 1:
            total = math.fsum(terms)
            if math.fsum((*terms, -total)) > 0.0:
                total = math.nextafter(total, math.inf)
        row[column] = total
    return tuple(row)


def _checked_weights(precedent: Case) -> dict[str, float]:
    """The precedent's evidence weights; UnnormalizedWeights unless each is
    finite and non-negative and they sum to 1, as for a stored case.

    A NaN or infinite weight, or finite weights whose sum leaves float
    range, make the sum NaN or infinite, which fails its test.
    """
    weights = precedent.evidence_weights
    weight_sum = fsum_or_nan(weights.values())
    if not abs(weight_sum - 1.0) <= SUM_TOLERANCE:
        raise UnnormalizedWeights(
            f"precedent '{precedent.case_id}' weights sum to {weight_sum!r}"
        )
    if min(weights.values()) < 0.0:
        raise UnnormalizedWeights(f"precedent '{precedent.case_id}' has a negative weight")
    return weights


def reuse(new_case: Case, ranking: RetrievalRanking) -> Case:
    """Copy the top precedent's intention onto the new case as a proposal."""
    if not ranking.entries:
        raise EmptyRanking("cannot reuse from an empty ranking")
    top = ranking.entries[0]
    intention = ranking.precedent_intentions.get(top.precedent_case_id)
    if intention is None:
        raise ValidationFailure(
            f"precedent '{top.precedent_case_id}' carries no intention"
        )
    note = f"reuse precedent={top.precedent_case_id} score={top.score:.12g}"
    if top.score <= 0.0:
        note += " (low-confidence)"
    return replace(
        new_case,
        intention=intention,
        status=CaseStatus.PROPOSED,
        provenance=_extend(new_case.provenance, note),
    )


def confidence_weights(attack: Attack) -> dict[str, float]:
    """Evidence confidences normalized to sum 1; uniform when all are zero."""
    total = math.fsum(ev.confidence for ev in attack.evidence)
    if total > 0.0:
        return {ev.id: ev.confidence / total for ev in attack.evidence}
    return {ev.id: 1.0 / len(attack.evidence) for ev in attack.evidence}


def initialize_incipient(proposed: Case) -> Case:
    """Prepare the proposal for the investigator.

    Weights are the attack's :func:`confidence_weights`, and a readable
    summary of the proposal is appended to the provenance.
    """
    case = transition(proposed, CaseStatus.INCIPIENT)
    return replace(
        case,
        evidence_weights=confidence_weights(proposed.attack),
        provenance=_extend(case.provenance, _incipient_summary(proposed)),
    )


def revise(incipient: Case, verdict: ReviseVerdict) -> Case:
    """Apply the investigator's accept/reject verdict."""
    target = (
        CaseStatus.REVISED_ACCEPTED
        if verdict.verdict == "accept"
        else CaseStatus.REVISED_REJECTED
    )
    case = transition(incipient, target)
    note = f"revise {verdict.verdict}"
    if verdict.crime_type:
        note += f" crime_type={verdict.crime_type}"
    if verdict.damage_note:
        note += f" damage={verdict.damage_note}"
    if verdict.rationale:
        note += f" rationale={verdict.rationale}"
    return replace(case, provenance=_extend(case.provenance, note))


def retain(case: Case, repository) -> Case:
    """Store an accepted case as a retained precedent.

    Mutates the repository handle in place and returns the retained
    copy. An id collision with anything but this case's own in-flight
    record raises DuplicateCaseId.
    """
    retained = transition(case, CaseStatus.RETAINED)
    repository.store_confirmed(retained)
    return retained


def write_ranking_csv(ranking: RetrievalRanking, out) -> None:
    """Ranking as CSV rows (rank, precedent_case_id, intention_label, score),
    scores at 2 decimals, written to the text stream `out`."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "precedent_case_id", "intention_label", "score"])
    for rank, entry in enumerate(ranking.entries, start=1):
        intention = ranking.precedent_intentions.get(entry.precedent_case_id)
        label = "" if intention is None else intention.label
        writer.writerow(
            [rank, entry.precedent_case_id, label, f"{entry.score:.2f}"]
        )


def _extend(provenance: str, note: str) -> str:
    return f"{provenance}; {note}" if provenance else note


def _incipient_summary(proposed: Case) -> str:
    label = proposed.intention.label if proposed.intention else "(none)"
    lines = [f"incipient summary: intention={label}", "evidence:"]
    for ev in proposed.attack.evidence:
        lines.append(
            f"  - {ev.id} [{ev.kind.value}] confidence={ev.confidence:g}: {ev.description}"
        )
    return "\n".join(lines)
