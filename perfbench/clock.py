"""Host-speed reference for the benchmark's timings.

The host's speed drifts by 15-25% within seconds (shared machine), and
that drift is wider than any useful regression bound. So every timing
sample is paired with the time of a fixed reference computation run in
the same process right before and right after it (their mean): decoding and walking a fixed set of
canonical case documents, pure-Python work of the kind the program does.
A metric is then ``median(sample / reference) * NOMINAL_MS``: the
sample's duration in "nominal milliseconds", the time it would take on
a host where the reference takes exactly ``NOMINAL_MS``.

The reference is benchmark code only, so a change to the program moves
the sample and not the reference. Raw medians are printed and stored
next to every normalized metric.
"""

from __future__ import annotations

import json
import statistics
import time

import gen

# Typical reference time on the 2-core development host; a fixed scale
# factor, never re-measured, so metrics stay comparable across commits.
NOMINAL_MS = 4.0

_DOCS: list[str] = []


def reference_ms() -> float:
    """Wall time of one pass of the reference computation."""
    if not _DOCS:
        rng = gen.stream(0, "reference")
        _DOCS.extend(gen.dumps(gen.case_doc(rng, f"ref{i}")) for i in range(200))
        _run()
    start = time.perf_counter()
    _run()
    return (time.perf_counter() - start) * 1000


def _run() -> None:
    for text in _DOCS:
        doc = json.loads(text)
        evidence = sorted(doc["attack"]["evidence"], key=lambda ev: (ev["kind"], ev["id"]))
        "|".join(f"{ev['id']}={ev['confidence']:.6f}" for ev in evidence)


def bracket(before: float) -> float:
    """Reference for a sample taken after `before`: mean of both sides."""
    return (before + reference_ms()) / 2


def normalized(samples: list[tuple[float, float]]) -> list[float]:
    """Each (sample, reference) pair in nominal units."""
    return [value / ref * NOMINAL_MS for value, ref in samples]


def median_raw(samples: list[tuple[float, float]]) -> float:
    return statistics.median(value for value, _ in samples)
