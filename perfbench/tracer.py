"""Span recorder for the traced benchmark run.

The program carries no instrumentation. :func:`install` replaces public
functions of ``intent_cbr`` with wrappers from this file, in every
module namespace that holds them, so calls across modules are seen too.

A record is ``[name, start_ns, end_ns, parent, op, calls, total_ns]``.
Layer-boundary calls (``cli.main``, ``Repository.open``, writes,
``retrieve``, ``analyze_attack``, parsing) get one record each. Hot
inner calls (one per precedent or per stored case) are aggregated: all
calls of one name under one parent share a record, whose ``calls`` and
``total_ns`` accumulate. Self time is ``total_ns`` minus the
``total_ns`` of the direct children, which is exact for both kinds.

Records and counters stay in memory and are written out once, by
:meth:`Tracer.dump`, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.op = "setup"
        self.enabled = True
        self._aggregates: dict[tuple, int] = {}

    def set_op(self, op: str) -> None:
        self.op = op

    def count(self, name: str, n: int = 1) -> None:
        counters = self.counters.setdefault(self.op, {})
        counters[name] = counters.get(name, 0) + n

    def inside(self, prefix: str) -> bool:
        """True when the innermost open record's name starts with `prefix`."""
        return bool(self.stack) and self.records[self.stack[-1]][0].startswith(prefix)

    def _enter(self, name: str, aggregate: bool) -> int:
        parent = self.stack[-1] if self.stack else -1
        key = (parent, name, self.op)
        index = self._aggregates.get(key) if aggregate else None
        if index is None:
            index = len(self.records)
            self.records.append([name, None, None, parent, self.op, 0, 0])
            if aggregate:
                self._aggregates[key] = index
        self.stack.append(index)
        return index

    def _exit(self, index: int, start: int, end: int) -> None:
        self.stack.pop()
        record = self.records[index]
        if record[1] is None:
            record[1] = start
        record[2] = end
        record[5] += 1
        record[6] += end - start

    def wrap(self, name, fn, aggregate=False, after=None, on_error=None, when=None):
        """Wrapper recording `fn` under `name`.

        `after(args, result)` runs after a successful call, `on_error` is a
        counter bumped when the call raises, and `when()` can veto recording.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (when is not None and not when()):
                return fn(*args, **kwargs)
            index = self._enter(name, aggregate)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(index, start, _now())
                if on_error:
                    self.count(on_error)
                raise
            self._exit(index, start, _now())
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrapper that only counts calls (for per-pair functions)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        doc = {"records": self.records, "counters": self.counters}
        pathlib.Path(path).write_text(json.dumps(doc), encoding="utf-8")


class _JsonProxy:
    """Stand-in for the ``json`` module inside ``intent_cbr.repository``."""

    def __init__(self, module, loads):
        self._module = module
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._module, name)


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "intent_cbr" or module_name.startswith("intent_cbr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of intent_cbr. Imports the package."""
    import intent_cbr  # noqa: F401  (loads every submodule)
    from intent_cbr import cbr, cli, inference, ingest, model, repository, serialize

    def patch(module, attr, **options):
        original = getattr(module, attr)
        name = options.pop("name")
        _replace_everywhere(original, tracer.wrap(name, original, **options))

    # cli
    patch(cli, "main", name="cli.main")

    # repository: open, split into read / decode / case_from_dict / validate
    Repo = repository.Repository
    Repo.open = classmethod(tracer.wrap("repository.open", Repo.open.__func__))
    pathlib.Path.read_text = tracer.wrap(
        "repository.read",
        pathlib.Path.read_text,
        aggregate=True,
        when=lambda: tracer.inside("repository."),
    )
    repository.json = _JsonProxy(
        json, tracer.wrap("serialize.decode", json.loads, aggregate=True)
    )
    patch(serialize, "case_from_dict", name="serialize.case_from_dict", aggregate=True)
    patch(model, "validate_case", name="model.validate_case", aggregate=True)

    # repository writes and their serialization
    for method in ("add_case", "update_case", "store_confirmed", "save_attack", "save_network"):
        setattr(Repo, method, tracer.wrap("repository.write", getattr(Repo, method)))

    def count_bytes(args, text):
        if tracer.inside("repository.write"):
            size = len(text.encode("utf-8"))
            tracer.count("repository.bytes_written", size)
            if isinstance(args[0], dict) and "case_id" in args[0]:
                tracer.count("repository.case_bytes", size)
                tracer.count("repository.case_writes")

    patch(
        serialize,
        "canonical_dumps",
        name="serialize.canonical_dumps",
        aggregate=True,
        after=count_bytes,
    )
    Repo.list_cases = tracer.wrap("repository.list_cases", Repo.list_cases)

    # cbr retrieval
    def count_ranking(args, ranking):
        tracer.count("cbr.retrieve_calls")
        tracer.count("cbr.entries_returned", len(ranking.entries))
        tracer.count("cbr.query_kinds_sum", len({ev.kind for ev in args[0].attack.evidence}))

    patch(cbr, "retrieve", name="cbr.retrieve", after=count_ranking)
    patch(cbr, "similarity", name="cbr.similarity", aggregate=True)
    patch(
        cbr,
        "align_evidence",
        name="cbr.align_evidence",
        aggregate=True,
        after=lambda args, pairs: tracer.count("cbr.evidence_pairs_matched", len(pairs)),
    )
    _replace_everywhere(
        cbr.local_similarity,
        tracer.counter("cbr.evidence_pairs_compared", cbr.local_similarity),
    )

    # inference
    patch(
        inference,
        "analyze_attack",
        name="inference.analyze_attack",
        on_error="inference.failures",
    )
    patch(inference, "posteriors_for_evidence", name="inference.posteriors", aggregate=True)
    patch(
        inference,
        "combine",
        name="inference.combine",
        aggregate=True,
        after=lambda args, m: tracer.count("inference.focal_sets", len(m.masses)),
    )
    patch(inference, "belief", name="inference.belief", aggregate=True)
    patch(inference, "plausibility", name="inference.belief", aggregate=True)

    # ingest
    patch(ingest, "parse_evidence_file", name="ingest.parse")


def load(paths) -> list[tuple[list, dict]]:
    """Read dumped span files: [(records, counters), ...]."""
    out = []
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        out.append((doc["records"], doc["counters"]))
    return out


def self_times(records: list[list]) -> list[int]:
    """Self time in ns of each record: its total minus its children's."""
    own = [record[6] for record in records]
    for record in records:
        if record[3] >= 0:
            own[record[3]] -= record[6]
    return own
