"""The case summary, ``summary.json`` (see :mod:`intent_cbr.repository`).

Private to the repository: a handle keeps the summary's state and calls
in here from ``_bound_rows`` and ``_write_summary``, so only a top-k
retrieve on an attach-only handle, the one ``analyze`` runs, loads this
module. A row is ``[case_id, *totals, status, intention_id, *stat_key]``:
one weight total per EvidenceKind, in ``_KINDS`` order, the status value,
the intention id ("" for none), then the stat key of the case file.
"""

from __future__ import annotations

import json
import os
from contextlib import suppress

from .errors import IoFailure
from .model import CONFIRMED_STATUSES, CaseStatus, EvidenceKind, is_safe_id
from .repository import _atomic_write, _write_temp

_SUMMARY = "summary.json"
_SUMMARY_SCHEMA = "intent-cbr case summary 1"
_KINDS = [kind.value for kind in EvidenceKind]
_STATUS_AT = 1 + len(_KINDS)
_KEY_AT = _STATUS_AT + 2
_ROW_TYPES = [str, *[float] * len(_KINDS), str, str, int, int, int, int]
_STATUSES = frozenset(status.value for status in CaseStatus)
_CONFIRMED = frozenset(status.value for status in CONFIRMED_STATUSES)
# Totals of a case that is no precedent: its row is never ranked.
_NO_TOTALS = (0.0,) * len(_KINDS)
# The summary is rewritten only once the case files read past it, plus its
# rows of changed or gone files, exceed this share of the case files: a
# rewrite costs about 4 us a row and a re-read about 32 us a file (2 000
# cases), so a file is re-read only until that costs about one rewrite.
_STALE_SHARE = 1 / 8


def bound_rows(repo, row_of) -> tuple:
    """``repo._bound_rows`` for a handle that has not scanned: each
    confirmed case's bound row, built by `row_of`, and a function from a
    row's case id to its case.

    ``cases/`` is stat-ed once, and a row of the case summary is used while
    the stat key of its file is unchanged. Every other case file is read
    and validated as the scan reads it, all corrupt ones reported together
    via CorruptRecord, and gets its row from `row_of`. The function gives a
    case so read as it is, and reads any other with ``repo.get_case``.

    A new row is kept for the summary only when its file's ctime is before
    a file-system time taken before any file was stat-ed (git's racy-git
    rule): any later change of that file, even one of the same size with
    its mtime set back, then changes its key.
    """
    summary = repo._summary
    if summary is None:
        summary = _load_summary(os.path.join(repo.root, _SUMMARY))
    since = _file_system_time(repo.root)
    cases_dir = os.path.join(repo.root, "cases")
    kept: dict[str, list] = {}
    changed: dict[str, list] = {}  # stat key of each other case file
    try:
        with os.scandir(cases_dir) as entries:
            for entry in entries:
                case_id = entry.name[: -len(".json")]
                if not (entry.name.endswith(".json") and is_safe_id(case_id)):
                    continue
                st = entry.stat()
                key = [st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
                row = summary.get(case_id)
                if row is not None and row[_KEY_AT:] == key:
                    kept[case_id] = row
                else:
                    changed[case_id] = key
    except OSError as exc:
        raise IoFailure(f"cannot list {cases_dir}: {exc}") from exc
    decoded = repo._read_cases(sorted(changed))
    stale = len(changed) + len(summary) - len(kept)
    due = stale > _STALE_SHARE * (len(kept) + len(changed))
    if due and len(kept) < len(summary):
        repo._summary_changed = True
    rows = list(kept.values())
    for case_id, case in decoded.items():
        key = changed[case_id]
        row = [
            *(row_of(case) if case.status in CONFIRMED_STATUSES else (case_id, *_NO_TOTALS)),
            case.status.value,
            "" if case.intention is None else case.intention.id,
            *key,
        ]
        rows.append(row)
        if since is not None and key[3] < since:
            kept[case_id] = row
            repo._summary_changed |= due
    repo._summary = kept

    def load(case_id: str):
        return decoded.get(case_id) or repo.get_case(case_id)

    return [row for row in rows if row[_STATUS_AT] in _CONFIRMED], load


def write(repo) -> None:
    """Store the summary rows that :func:`bound_rows` brought up to date
    for `repo`; ``repo._write_summary`` calls it once that found enough of
    the stored ones stale (``_STALE_SHARE``).

    The summary is derived and each row checks itself against its file,
    so no writer lock is taken, and a write that fails is no error: the
    next listing reads the case files instead.
    """
    rows = repo._summary
    doc = {
        "schema": _SUMMARY_SCHEMA,
        "kinds": _KINDS,
        "rows": [rows[case_id] for case_id in sorted(rows)],
    }
    with suppress(IoFailure):
        _atomic_write(
            os.path.join(repo.root, _SUMMARY),
            json.dumps(doc, separators=(",", ":")).encode("utf-8"),
        )
    repo._summary_changed = False


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
