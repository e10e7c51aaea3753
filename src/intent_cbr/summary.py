"""The top-k index: bound rows, kind-set groups, their bounds, the
bounded visit (:func:`top_k`) and the case summary, ``summary.json``. Only
top-k retrieval loads this module; a repository handle keeps what it
builds (see :mod:`intent_cbr.repository`).

A bound row is ``[case_id, *totals]``, one weight total per EvidenceKind
in ``_COLUMN`` order, from which :func:`bounds` bounds a score. A summary
row extends it with the status value, the intention id ("" for none) and
the stat key of the case file.

A scanned handle keeps its bound rows in kind-set groups (:func:`join`),
one per set of kinds with a positive total: the group's rows and a head
row of per-kind maxima, whose bound is at least each member's. Any other
handle gives its rows as one group under ``_LONE``. A top-k retrieve
bounds the heads and then only the rows of the groups it visits.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import itemgetter, neg

from . import cbr
from .cbr import _checked_weights
from .errors import IoFailure
from .model import CONFIRMED_STATUSES, CaseStatus, EvidenceKind
from .repository import Repository, _atomic_write, _write_temp

_SUMMARY = "summary.json"
_SUMMARY_SCHEMA = "intent-cbr case summary 1"
_KINDS = [kind.value for kind in EvidenceKind]
# Column of each evidence kind in a row, in _KINDS order after the case id.
_COLUMN = {kind: column for column, kind in enumerate(EvidenceKind, start=1)}
_STATUS_AT = 1 + len(_KINDS)
_KEY_AT = _STATUS_AT + 2
_ROW_TYPES = [str, *[float] * len(_KINDS), str, str, int, int, int, int]
_STATUSES = frozenset(status.value for status in CaseStatus)
_CONFIRMED = frozenset(status.value for status in CONFIRMED_STATUSES)
# The totals of a kind a case lacks, and of every kind of a case that is
# no precedent, whose row is never ranked.
_NO_TOTALS = (0.0,) * len(_KINDS)
# The head of a handle's lone group: its bound, inf (0.0 for a query without
# evidence), is at least each row's, and it is the only group pending.
_LONE = ("", *[math.inf] * len(_KINDS))
# The summary is rewritten only once the case files read past it, plus its
# rows of changed or gone files, exceed this share of the case files: a
# rewrite costs about 4 us a row and a re-read about 32 us a file (2 000
# cases), so a file is re-read only until that costs about one rewrite.
_STALE_SHARE = 1 / 8


def bound_row(precedent) -> tuple:
    """The precedent's case id, then its weight total per :class:`EvidenceKind`.

    Checks the precedent's weights as ``cbr.similarity`` does. A kind the
    precedent lacks totals 0.0 and a kind with one item its weight. The
    ``fsum`` of several is rounded one step up when the exact sum is
    above it, so every total is at least the exact sum of its weights.
    """
    weights = _checked_weights(precedent)
    by_column: dict[int, list[float]] = {}
    for ev in precedent.attack.evidence:
        by_column.setdefault(_COLUMN[ev.kind], []).append(weights.get(ev.id, 0.0))
    row = [precedent.case_id, *_NO_TOTALS]
    for column, terms in by_column.items():
        total = terms[0]
        if len(terms) > 1:
            total = math.fsum(terms)
            if math.fsum((*terms, -total)) > 0.0:
                total = math.nextafter(total, math.inf)
        row[column] = total
    return tuple(row)


def bounds(new_case):
    """The function from bound rows to the upper bound on the score against
    `new_case` of each row's precedent, in order.

    Only evidence of a query kind can align, each item aligns at most
    once, a local similarity is at most 1 and weights are non-negative, so
    a score is at most the weight of the precedent's evidence of the
    query's kinds. Each total in a row is at least the exact sum of its
    weights, so their ``fsum`` is never below the score's.
    """
    columns = {_COLUMN[ev.kind] for ev in new_case.attack.evidence}
    if not columns:  # a query without evidence aligns with nothing
        return lambda rows: [0.0] * len(rows)
    totals = itemgetter(*columns)
    if len(columns) == 1:
        return partial(map, totals)
    return lambda rows: map(math.fsum, map(totals, rows))


def join(groups: dict, precedent) -> None:
    """Add the precedent's bound row to `groups`, ``(head, rows)`` by kind set.

    A row's kind set is the tuple of its columns with a positive total. A
    head is ``["", *maxima]``, per column the largest total of any row ever
    added, so its bound is at least each member's. Outside its kind set a
    head is zero, so two heads always differ and order two equal bounds.
    """
    row = bound_row(precedent)
    kinds = tuple(compress(_COLUMN.values(), row[1:]))  # totals are never negative
    group = groups.get(kinds)
    if group is None:
        groups[kinds] = (["", *row[1:]], [row])
        return
    head, rows = group
    for column in kinds:
        if row[column] > head[column]:
            head[column] = row[column]
    rows.append(row)


def top_k(new_case, repository, k: int) -> list:
    """The scored ``(result, precedent)`` pairs of the confirmed precedents
    of `repository` that can still reach `new_case`'s top k.

    Bound rows come from a :class:`~intent_cbr.repository.Repository`
    handle, else are built from the listed precedents on each call and
    kept nowhere. Visits precedents by descending bound, ties by ascending
    case id, and stops at the first whose (-bound, case id) sorts after
    the k-th best (-score, case id): a score is at most its bound, so
    neither that precedent nor any later one can rank above the k-th. A
    group waits under (-bound of its head, ""), before any row it holds, so
    the visits are those over all rows. Each visit scores through
    ``cbr.similarity``.
    """
    if isinstance(repository, Repository):
        groups, load = repository._bound_rows()
    else:
        precedents = {p.case_id: p for p in repository.list_cases(status=CONFIRMED_STATUSES)}
        groups, load = [(_LONE, list(map(bound_row, precedents.values())))], precedents.__getitem__
    bound = bounds(new_case)
    pending = list(zip(map(neg, bound([head for head, _ in groups])), repeat(""), groups))
    heapify(pending)
    best: list[tuple[float, str]] = []  # (-score, case id) of the k best, sorted once full
    scored = []
    while pending:
        entry = heappop(pending)
        if len(best) == k and entry > best[-1]:
            break
        case_id = entry[1]
        if not case_id:  # a group: its rows wait in its place
            rows = entry[2][1]
            waiting = zip(map(neg, bound(rows)), map(itemgetter(0), rows))
            if len(rows) > len(pending):  # one heapify then costs less than a push each
                pending += waiting
                heapify(pending)
            else:
                for row in waiting:
                    heappush(pending, row)
            continue
        precedent = load(case_id)
        result = cbr.similarity(new_case, precedent)
        scored.append((result, precedent))
        key = (-result.score, case_id)
        if len(best) < k or key < best[-1]:
            best[k - 1 :] = [key]  # append while filling, then replace the k-th
            if len(best) == k:
                best.sort()
    return scored


def bound_rows(repo) -> tuple:
    """For a top-k retrieve on `repo`, a handle that has not scanned: each
    confirmed case's bound row, headed by its case id, as one group; a
    function from a row's case id to its case; and the summary rows due to
    be stored, by case id, or None.

    ``cases/`` is stat-ed once, and a row of the case summary is used while
    the stat key of its file is unchanged. Every other case file is read
    and validated as the scan reads it, all corrupt ones reported together
    via CorruptRecord, and gets a new row. The function gives a case so
    read as it is, and reads any other with ``repo.get_case``.

    A new row is kept for the summary only when its file's ctime is before
    a file-system time taken before any file was stat-ed (git's racy-git
    rule): any later change of that file, even one of the same size with
    its mtime set back, then changes its key. The kept rows are due when
    they differ from the stored ones, once enough of those are stale
    (``_STALE_SHARE``).
    """
    stored = _load_summary(os.path.join(repo.root, _SUMMARY))
    since = _file_system_time(repo.root)
    kept: dict[str, list] = {}
    changed: dict[str, list] = {}  # stat key of each other case file
    for case_id, entry in repo._case_files():
        try:
            st = entry.stat()
        except OSError as exc:
            raise IoFailure(f"cannot stat {entry.path}: {exc}") from exc
        key = [st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
        row = stored.get(case_id)
        if row is not None and row[_KEY_AT:] == key:
            kept[case_id] = row
        else:
            changed[case_id] = key
    decoded = repo._read_cases(sorted(changed))
    stale = len(changed) + len(stored) - len(kept)
    due = stale > _STALE_SHARE * (len(kept) + len(changed))
    rows = list(kept.values())
    for case_id, case in decoded.items():
        key = changed[case_id]
        row = [
            *(bound_row(case) if case.status in CONFIRMED_STATUSES else (case_id, *_NO_TOTALS)),
            case.status.value,
            "" if case.intention is None else case.intention.id,
            *key,
        ]
        rows.append(row)
        if since is not None and key[3] < since:
            kept[case_id] = row

    def load(case_id: str):
        return decoded.get(case_id) or repo.get_case(case_id)

    due = due and kept != stored
    confirmed = [row for row in rows if row[_STATUS_AT] in _CONFIRMED]
    return [(_LONE, confirmed)], load, kept if due else None


def write(root, rows: dict[str, list]) -> None:
    """Store `rows`, summary rows by case id, as the case summary at `root`.

    The summary is derived and each row checks itself against its file,
    so no writer lock is taken, and a write that fails is no error: the
    next listing reads the case files instead.
    """
    doc = {
        "schema": _SUMMARY_SCHEMA,
        "kinds": _KINDS,
        "rows": [rows[case_id] for case_id in sorted(rows)],
    }
    with suppress(IoFailure):
        _atomic_write(
            os.path.join(root, _SUMMARY),
            json.dumps(doc, separators=(",", ":")).encode("utf-8"),
        )


def _load_summary(path: str) -> dict[str, list]:
    """The rows of the summary at `path` by case id, each of the right
    types and a known status; none when the file is missing, unreadable,
    not JSON, or of another schema or kind order."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read(), parse_constant=_no_constant)
        if doc["schema"] != _SUMMARY_SCHEMA or doc["kinds"] != _KINDS:
            return {}
        return {
            row[0]: row
            for row in doc["rows"]
            if list(map(type, row)) == _ROW_TYPES and row[_STATUS_AT] in _STATUSES
        }
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return {}


def _no_constant(name: str):
    """Refuse a NaN or infinite total: the summary never holds one."""
    raise ValueError(f"{name} in the case summary")


def _file_system_time(root) -> int | None:
    """The file system's current time, as the ctime in ns of a new file in
    `root` that is then removed; None when no file can be made there."""
    try:
        tmp = _write_temp(os.path.join(root, _SUMMARY), b"")
    except OSError:
        return None
    try:
        return os.stat(tmp).st_ctime_ns
    except OSError:
        return None
    finally:
        with suppress(OSError):
            os.unlink(tmp)
