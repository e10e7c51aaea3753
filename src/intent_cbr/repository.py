"""File-backed precedent repository.

One canonical-JSON document per record: cases under ``cases/``, causal
networks under ``networks/``, ingested attacks under ``attacks/``, and a
``meta.json`` carrying the schema version. Documents are human-readable
forensic artifacts; writes are temp-file-then-rename, each through its
own uniquely named temp file, so a write interrupted by a crash of the
process never leaves a partial record visible. Nothing is fsynced, so
that does not hold across a power loss.

Loading is on demand. :meth:`Repository.attach` checks ``meta.json`` and
reads nothing else; per-record calls (``get_case``, ``has_case``, the
writes, attacks and networks) touch only their own file. The methods that
need every case (``list_cases``, ``case_count``,
``intention_frequencies``) scan ``cases/`` once per handle and keep the
result; the handle's own writes keep it current. :meth:`Repository.open`
is ``attach`` plus that scan.

A top-k retrieve ranks from an index of one bound row per precedent,
which the private :mod:`intent_cbr.summary` defines, builds, bounds and
visits. A handle that has scanned keeps the index, and its writes keep it
current. One that has not reads the case summary, ``summary.json``, which
is derived and safe to delete: record writes leave it alone, and
``analyze`` rewrites it after a successful run once it is stale enough.

Every case, attack and network read is strict UTF-8 JSON, validated, and
its own id must match its file name; a record that fails is CorruptRecord,
keyed by the bare id for a case, ``attacks/<id>`` or ``networks/<id>``.
A write stores a record only if its document, taken through that read's
decoder and validator, gives back an equal record; anything else is a
ValidationFailure, and nothing is written.

An id that is not a safe file name (see ``model.is_safe_id``) is never
stored, so reads treat it as not stored without touching the disk.

Concurrency: single writer, many readers. Mutating operations take an
exclusive advisory flock on ``meta.json`` and decide under it whether a
case or attack already exists, so two handles never overwrite each other's
case or attack; a network is always replaced. An update is decided there
too, from the stored status, so a case another handle has moved on is never
replaced.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager, suppress
from itertools import pairwise
from pathlib import Path

from .errors import (
    CorruptRecord,
    DuplicateCaseId,
    EmptyRepository,
    IoFailure,
    SchemaVersionMismatch,
    UnknownCaseId,
    ValidationFailure,
)
from .model import (
    Attack,
    Case,
    CaseStatus,
    CausalNetwork,
    CONFIRMED_STATUSES,
    IN_FLIGHT_STATUSES,
    is_safe_id,
    transition,
    validate_attack,
    validate_case,
    validate_network,
)
from .serialize import (
    _walk,
    attack_from_dict,
    canonical_dumps,
    case_from_dict,
    network_from_dict,
)

SCHEMA_VERSION = 1

# Bytes asked for by each read of a stored record: far more than a case
# file (about 1.5 KB), so one read takes all of it.
_READ_SIZE = 65536


class Repository:
    """Handle over a repository directory.

    Construct with :meth:`attach` (reads records on demand) or
    :meth:`open` (also loads and validates every case up front).
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        # Every stored case by id, filled by the first full scan; the
        # handle's writes add new ids last, and list_cases restores the order.
        self._cases: dict[str, Case] | None = None
        # The scanned precedents' top-k index (see intent_cbr.summary), from
        # the first top-k retrieve on; the handle's writes keep it current.
        self._groups: dict[tuple, tuple] | None = None
        # The summary rows that the last top-k retrieve of a handle that
        # has not scanned found due to be stored, by case id, or None.
        self._summary: dict[str, list] | None = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def attach(cls, root) -> "Repository":
        """Handle on the repository at `root`, creating it if needed.

        Checks ``meta.json`` and reads no case: records are read when a
        method needs them. Only the CLI's ``analyze`` writes the case
        summary, so on a repository it has not summarized every top-k
        :func:`~intent_cbr.cbr.retrieve` on this handle reads and validates
        every case file (81-90 ms a query at 2 000 cases, against 1.1 ms on
        :meth:`open`'s handle). Repeated library queries belong on
        :meth:`open`.
        """
        root = Path(root)
        try:
            for sub in ("cases", "networks", "attacks"):
                (root / sub).mkdir(parents=True, exist_ok=True)
            meta_path = root / "meta.json"
            if not meta_path.exists():
                # The writer lock lives in meta.json, so it cannot guard the
                # file's own creation: create it exclusively instead. When
                # another process got there first, its file is checked below.
                _create_exclusive(
                    meta_path, canonical_dumps({"schema_version": SCHEMA_VERSION}).encode()
                )
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (ValueError, RecursionError) as exc:
                raise CorruptRecord({"meta.json": f"unparseable: {exc}"}) from exc
            if not isinstance(meta, dict):
                raise CorruptRecord({"meta.json": "not a JSON object"})
            version = meta.get("schema_version")
            # Exactly an int: True and 1.0 compare equal to 1 but are not it.
            if type(version) is not int or version != SCHEMA_VERSION:
                raise SchemaVersionMismatch(
                    f"repository at {root} has schema_version {version!r}, "
                    f"supported: {SCHEMA_VERSION}"
                )
        except OSError as exc:
            raise IoFailure(f"cannot open repository at {root}: {exc}") from exc
        return cls(root)

    @classmethod
    def open(cls, root) -> "Repository":
        """Attach (creating if needed), then load + validate every stored case.

        Corrupt records are reported together via CorruptRecord, never
        silently dropped.
        """
        repo = cls.attach(root)
        repo._all_cases()
        return repo

    # -- cases ---------------------------------------------------------------

    def add_case(self, case: Case) -> None:
        """Store a new case; atomic, validated, id must be unused on disk."""
        case, data = _as_stored(case, "case", case.case_id, case_from_dict, validate_case)
        path = self._path("cases", case.case_id)
        with self._writer_lock():
            if os.path.exists(path):
                raise DuplicateCaseId(f"case '{case.case_id}' already stored")
            self._write_case(path, case, data)

    def update_case(self, case: Case) -> None:
        """Replace an existing case record; atomic, validated.

        The stored status must be able to move to the new one, so an
        update made from a stale read raises IllegalTransition.
        """
        case, data = _as_stored(case, "case", case.case_id, case_from_dict, validate_case)
        path = self._path("cases", case.case_id)
        with self._writer_lock():
            transition(self.get_case(case.case_id), case.status)
            self._write_case(path, case, data)

    def store_confirmed(self, case: Case) -> None:
        """Store a retained case, replacing only its own in-flight record."""
        case, data = _as_stored(case, "case", case.case_id, case_from_dict, validate_case)
        path = self._path("cases", case.case_id)
        with self._writer_lock():
            if os.path.exists(path):
                existing = self.get_case(case.case_id)
                if existing.status not in IN_FLIGHT_STATUSES:
                    raise DuplicateCaseId(
                        f"case '{case.case_id}' already stored with status "
                        f"'{existing.status.value}'"
                    )
            self._write_case(path, case, data)

    def get_case(self, case_id: str) -> Case:
        """Exact stored value, read and validated from ``cases/<id>.json``.

        A record that fails to parse or validate raises CorruptRecord.
        """
        path = self._stored("cases", case_id)
        if path is None:
            raise UnknownCaseId(f"case '{case_id}' not stored")
        return self._read(path, case_id, case_id, case_from_dict, validate_case, "case_id")

    def has_case(self, case_id: str) -> bool:
        """True when ``cases/<id>.json`` exists; the record is not read."""
        return self._stored("cases", case_id) is not None

    def list_cases(self, status=None) -> list[Case]:
        """All cases ordered by case_id, optionally filtered by status.

        ``status`` may be a single status or an iterable of statuses,
        given as CaseStatus members or their string values. Runs the full
        scan on first use, and sorts it again only when a write through the
        handle has added an id out of order.
        """
        wanted = _status_set(status)
        cases = self._all_cases()
        if any(a > b for a, b in pairwise(cases)):
            cases = self._cases = dict(sorted(cases.items()))
        return [case for case in cases.values() if wanted is None or case.status in wanted]

    def case_count(self) -> int:
        """Number of stored cases; runs the full scan on first use."""
        return len(self._all_cases())

    def intention_frequencies(self) -> dict[str, float]:
        """Normalized intention frequencies over confirmed cases.

        Runs the full scan on first use.
        """
        counts: dict[str, int] = {}
        for case in self._all_cases().values():
            if case.status in CONFIRMED_STATUSES and case.intention is not None:
                counts[case.intention.id] = counts.get(case.intention.id, 0) + 1
        if not counts:
            raise EmptyRepository("no confirmed case with an intention stored")
        total = sum(counts.values())
        return {iid: counts[iid] / total for iid in sorted(counts)}

    # -- attacks ---------------------------------------------------------------

    def save_attack(self, attack: Attack) -> None:
        _, data = _as_stored(attack, "attack", attack.id, attack_from_dict, validate_attack)
        path = self._path("attacks", attack.id)
        with self._writer_lock():
            if os.path.exists(path):
                raise DuplicateCaseId(f"attack '{attack.id}' already stored")
            _atomic_write(path, data)

    def load_attack(self, attack_id: str) -> Attack:
        """Stored attack, read and validated like a case."""
        path = self._stored("attacks", attack_id)
        if path is None:
            raise UnknownCaseId(f"attack '{attack_id}' not stored")
        return self._read(
            path, f"attacks/{attack_id}", attack_id, attack_from_dict, validate_attack, "id"
        )

    def has_attack(self, attack_id: str) -> bool:
        return self._stored("attacks", attack_id) is not None

    # -- networks ----------------------------------------------------------------

    def save_network(self, network: CausalNetwork) -> None:
        _, data = _as_stored(
            network, "network attack_id", network.attack_id, network_from_dict, validate_network
        )
        path = self._path("networks", network.attack_id)
        with self._writer_lock():
            _atomic_write(path, data)

    def load_network(self, attack_id: str) -> CausalNetwork:
        """Stored network for an attack, read and validated like a case."""
        path = self._stored("networks", attack_id)
        if path is None:
            raise UnknownCaseId(f"network for '{attack_id}' not stored")
        return self._read(
            path, f"networks/{attack_id}", attack_id, network_from_dict, validate_network, "attack_id"
        )

    # -- internals ------------------------------------------------------------

    def _all_cases(self) -> dict[str, Case]:
        """Every stored case by id, from one scan of ``cases/`` per handle:
        in case-id order as scanned, with the ids that writes through the
        handle add after them. All corrupt records are reported together
        via CorruptRecord.
        """
        if self._cases is None:
            # Sort ids, not file names: "a-b.json" sorts before "a.json".
            self._cases = self._read_cases(sorted(case_id for case_id, _ in self._case_files()))
        return self._cases

    def _case_files(self):
        """Yield each case file in ``cases/`` as (case id, DirEntry), in
        listing order; an entry, and the stat it caches, is dropped as the
        next is yielded. A file whose name is not ``<safe id>.json`` is no
        record, as for the per-record reads, and is skipped."""
        cases_dir = os.path.join(self.root, "cases")
        try:
            with os.scandir(cases_dir) as entries:
                for entry in entries:
                    case_id = entry.name[: -len(".json")]
                    if entry.name.endswith(".json") and is_safe_id(case_id):
                        yield case_id, entry
        except OSError as exc:
            raise IoFailure(f"cannot list {cases_dir}: {exc}") from exc

    def _read_cases(self, case_ids) -> dict[str, Case]:
        """The stored cases of `case_ids` by id, read and validated in that
        order; all corrupt records are reported together via CorruptRecord."""
        # A plain str path per record: building a Path for each costs about
        # as much as reading the file.
        cases_dir = os.path.join(self.root, "cases")
        cases: dict[str, Case] = {}
        corrupt: dict[str, str] = {}
        for case_id in case_ids:
            try:
                cases[case_id] = self._read(
                    os.path.join(cases_dir, f"{case_id}.json"), case_id, case_id,
                    case_from_dict, validate_case, "case_id",
                )
            except CorruptRecord as exc:
                corrupt.update(exc.details)
        if corrupt:
            raise CorruptRecord(corrupt)
        return cases

    def _bound_rows(self) -> tuple:
        """For :func:`intent_cbr.summary.top_k`: the confirmed precedents'
        bound rows in groups, and a function from a row's case id to its
        case. A handle that has scanned keeps its groups; any other keeps
        only the summary rows due to be stored.
        """
        from . import summary

        cases = self._cases
        if cases is None:
            groups, load, self._summary = summary.bound_rows(self)
            return groups, load
        if self._groups is None:
            self._groups = {}
            for case in cases.values():
                if case.status in CONFIRMED_STATUSES:
                    summary.join(self._groups, case)
        return self._groups.values(), cases.__getitem__

    def _write_summary(self) -> None:
        """Store the case summary rows that :meth:`_bound_rows` found due."""
        if self._summary is not None:
            from . import summary

            summary.write(self.root, self._summary)
            self._summary = None

    def _read(self, path: str, key: str, record_id: str, from_dict, validate, id_field: str):
        """Read, decode and validate the stored record at `path`.

        `from_dict` and `validate` are its kind's decoder and invariant
        check, and its `id_field` must equal `record_id`, its file name.
        A record that fails any of this is a CorruptRecord under `key`.
        """
        try:
            # The whole file by plain reads until end of file, then decode:
            # no file object, no stat to size a buffer, and no newline
            # translation, which JSON does not need. A case file takes one
            # read plus the empty one that ends it.
            fd = os.open(path, os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_SIZE):
                    chunks.append(chunk)
            finally:
                os.close(fd)
            record = from_dict(json.loads(b"".join(chunks).decode("utf-8")))
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc
        except Exception as exc:
            raise CorruptRecord({key: f"unparseable: {exc}"}) from exc
        violations = validate(record)
        if violations:
            raise CorruptRecord({key: "; ".join(violations)})
        own_id = getattr(record, id_field)
        if own_id != record_id:
            raise CorruptRecord({key: f"file name does not match {id_field} '{own_id}'"})
        return record

    def _path(self, sub: str, record_id: str) -> str:
        """Where the record `record_id` of ``<sub>/`` is stored."""
        return os.path.join(self.root, sub, f"{record_id}.json")

    def _stored(self, sub: str, record_id: str) -> str | None:
        """Path of the stored ``<sub>/<record_id>.json``, or None.

        An id unusable as a file name is never stored, so it is None
        before anything on disk is touched.
        """
        if not is_safe_id(record_id):
            return None
        path = self._path(sub, record_id)
        return path if os.path.exists(path) else None

    def _write_case(self, path: str, case: Case, data: bytes) -> None:
        """Write under the caller's writer lock; keep a loaded scan and its
        index current. A stored case's weights pass the bound row's check,
        so it joins the index here, after the write."""
        _atomic_write(path, data)
        cases = self._cases
        if cases is not None:
            old = cases.get(case.case_id)
            if old is not None and old.status in CONFIRMED_STATUSES:
                self._groups = None  # its file was replaced behind this scan
            elif self._groups is not None and case.status in CONFIRMED_STATUSES:
                from . import summary

                summary.join(self._groups, case)
            cases[case.case_id] = case  # a new id goes last: a store never sorts

    @contextmanager
    def _writer_lock(self):
        meta_path = self.root / "meta.json"
        try:
            with open(meta_path, "r+", encoding="utf-8") as fh:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        except OSError as exc:
            raise IoFailure(f"cannot lock {meta_path}: {exc}") from exc


def _status_set(status) -> frozenset[CaseStatus] | None:
    if status is None:
        return None
    if isinstance(status, (str, CaseStatus)):
        status = [status]
    return frozenset(CaseStatus(s) for s in status)


def _check_id(record_id: str, label: str) -> None:
    if not is_safe_id(record_id):
        raise ValidationFailure(
            f"{label} id {record_id!r} not usable as a file name"
        )


def _as_stored(record, kind: str, record_id, from_dict, validate) -> tuple:
    """`record` as a read gives it back, by its kind's `from_dict` and
    `validate`, and the UTF-8 bytes of its canonical document; or one
    ValidationFailure that names it. The read must give an equal record.
    The document holds no key that is not text, nor a NaN or infinity, so
    its bytes read back as it does.
    """
    _check_id(record_id, kind)
    try:
        doc = _walk(record)
        stored = from_dict(doc)
        violations = validate(stored)
        if not violations and stored != record:
            name = next(
                (n for n in record.__slots__ if getattr(record, n) != getattr(stored, n)), ""
            )
            violations = [f"field '{name}' does not read back as written"]
        if not violations:
            return stored, canonical_dumps(doc).encode("utf-8")
    except UnicodeEncodeError as exc:
        violations = [f"text {exc.object[exc.start : exc.end]!r} cannot be stored as UTF-8"]
    except (TypeError, ValueError) as exc:  # a ValidationFailure is a ValueError
        violations = [str(exc)]
    raise ValidationFailure(f"{kind} '{record_id}': " + "; ".join(violations))


def _atomic_write(path, data: bytes) -> None:
    """Write-temp-then-rename so readers never see a partial document."""
    try:
        tmp = _write_temp(path, data)
        try:
            os.replace(tmp, path)
        except OSError:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _create_exclusive(path: Path, data: bytes) -> None:
    """Create `path` holding `data`, complete, unless it already exists."""
    tmp = _write_temp(path, data)
    try:
        os.link(tmp, path)
    except FileExistsError:
        pass
    finally:
        os.unlink(tmp)


def _write_temp(path, data: bytes) -> str:
    """A new file beside `path` holding `data`; returns its name.

    The name is unique, so concurrent writers never share a temp file,
    and ends in ``.tmp``, which the scan skips. The mode is 0666 less the
    umask, as for a plain open(). A failed write leaves no file.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return tmp
