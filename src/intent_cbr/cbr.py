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

import math
import operator

from .errors import EmptyRanking, EmptyRepository, UnnormalizedWeights, ValidationFailure
from .model import (
    CONFIRMED_STATUSES,
    SUM_TOLERANCE,
    Case,
    CaseStatus,
    Evidence,
    Intention,
    Record,
    SimilarityResult,
    _setters,
    confidence_weights,
    fsum_or_nan,
    replace,
    transition,
)


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
    sets counting as a full overlap. A dict holds each key once, so its
    item set has one element per key, and the union's size follows from
    the intersection's: only the intersection is built.
    """
    if n_ev.kind != p_ev.kind:
        return 0.0
    new_attrs, precedent_attrs = n_ev.attributes, p_ev.attributes
    shared = len(new_attrs.items() & precedent_attrs.items())
    union = len(new_attrs) + len(precedent_attrs) - shared
    return 0.5 + 0.5 * (shared / union if union else 1.0)


def align_evidence(
    new_case: Case, precedent: Case
) -> tuple[tuple[str, str, float], ...]:
    """Greedy best-first matching of new evidence to precedent evidence.

    Repeatedly pairs the highest-similarity unmatched pair with a
    positive similarity; ties break on ascending (new id, precedent id).
    Each evidence item is used at most once. May be empty. Only same-kind
    pairs have a positive :func:`local_similarity`, so only they are
    compared.
    """
    new_evidence = new_case.attack.evidence
    candidates = [  # (-sim, new id, precedent id)
        (-local_similarity(n_ev, p_ev), n_ev.id, p_ev.id)
        for p_ev in precedent.attack.evidence
        for n_ev in new_evidence
        if n_ev.kind == p_ev.kind
    ]
    candidates.sort()
    used_new: set[str] = set()
    used_precedent: set[str] = set()
    pairs: list[tuple[str, str, float]] = []
    for neg_sim, n_id, p_id in candidates:
        if n_id in used_new or p_id in used_precedent:
            continue
        used_new.add(n_id)
        used_precedent.add(p_id)
        pairs.append((n_id, p_id, -neg_sim))
    return tuple(pairs)


def similarity(new_case: Case, precedent: Case) -> SimilarityResult:
    """Weighted sum of local similarities over the greedy alignment.

    Weights are the precedent's stored evidence weights and must be
    normalized; unmatched precedent evidence contributes 0.
    """
    weights = _checked_weights(precedent)
    alignment = align_evidence(new_case, precedent)
    score = math.fsum(sim * weights.get(p_id, 0.0) for _, p_id, sim in alignment)
    return SimilarityResult(new_case.case_id, precedent.case_id, alignment, score)


def retrieve(new_case: Case, repository, k: int | None) -> RetrievalRanking:
    """Rank confirmed precedents by similarity to `new_case`, keep the top k.

    ``k=None`` scores every precedent (used by full reports). A finite k
    scores only the precedents :func:`intent_cbr.summary.top_k` visits by
    descending score bound: the threshold algorithm of Fagin, Lotem & Naor
    on the ranking's key, whose ranking is exactly the one of scoring
    every precedent. Once k are scored, a visited precedent is first
    bounded by each item's best :func:`local_similarity` and waits again
    when that bound is lower.
    """
    if k is not None and not (hasattr(type(k), "__index__") and operator.index(k) >= 1):
        raise ValidationFailure(f"k must be a positive integer, got {k!r}")
    if k is None:
        precedents = repository.list_cases(status=CONFIRMED_STATUSES)
        scored = [(similarity(new_case, p), p) for p in precedents]
    else:
        from . import summary

        scored = summary.top_k(new_case, repository, k)
    if not scored:
        raise EmptyRepository("no precedent or retained cases stored")
    scored.sort(key=lambda item: (-item[0].score, item[0].precedent_case_id))
    top = scored[:k]
    return RetrievalRanking(
        new_case_id=new_case.case_id,
        entries=tuple(result for result, _ in top),
        precedent_intentions={
            p.case_id: p.intention for _, p in top if p.intention is not None
        },
    )


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


def initialize_incipient(proposed: Case) -> Case:
    """Prepare the proposal for the investigator.

    Weights are the attack's :func:`~intent_cbr.model.confidence_weights`,
    and a readable summary of the proposal is appended to the provenance.
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
    import csv

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
    text = f"incipient summary: intention={label}\nevidence:"
    for ev in proposed.attack.evidence:
        text += f"\n  - {ev.id} [{ev.kind.value}] confidence={ev.confidence:g}: {ev.description}"
    return text
