"""Library-side client of the benchmark.

Opens one repository with ``Repository.open`` and then, on request,
runs iterations of three library ops, the way
``demos/02_precedent_retrieval.py`` uses the package:

- ``retrieve``: ``cbr.retrieve(query, repo, k=5)`` on a fresh query;
- ``estimate``: ``inference.analyze_attack`` on a fresh causal network;
- ``store``: ``cbr.retain`` of the query's revised case, a write that
  grows the repository.

Only the op call itself is timed and, in a traced run, traced. Inputs
are generated files parsed with the program's own readers before the
timer starts. The repository is the worker's own copy: the CLI children
of run.py never see what the worker stores.

Protocol (one JSON object per line): the worker prints ``{"ready": ...}``
once the repository is open, answers ``{"run": [first, count],
"traced": bool}`` with ``{"samples": [...]}`` and ends on
``{"exit": true}``. Started by run.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import checks
import clock
import gen

TOP_K = 5
# Every CHECK_EVERY-th iteration re-derives the full ranking and the scores.
CHECK_EVERY = 10


def reply(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Client:
    def __init__(self, args, tracer):
        from intent_cbr import cbr, inference, serialize
        from intent_cbr.errors import IntentCbrError
        from intent_cbr.ingest import parse_evidence_file
        from intent_cbr.model import Case, CaseStatus, validate_network
        from intent_cbr.repository import Repository

        self.cbr, self.inference, self.serialize = cbr, inference, serialize
        self.Error, self.parse = IntentCbrError, parse_evidence_file
        self.Case, self.CaseStatus, self.validate_network = Case, CaseStatus, validate_network
        self.root = Path(args.repo)
        self.inputs = Path(args.inputs)
        self.corpus = args.corpus
        self.seed = args.seed
        self.tracer = tracer
        self.traced = False
        self.repo = Repository.open(self.root)

    def op(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_op(name)

    def tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def timed(self, call, errors):
        """Run `call` as the op: (result, ms, reference ms, problems).

        Tracing is on only around the call, so the worker's own input
        preparation and checks never show in the op's spans.
        """
        result, problems = None, []
        before = clock.reference_ms()
        self.tracing(self.traced)
        start = time.perf_counter()
        try:
            result = call()
        except errors as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        ms = (time.perf_counter() - start) * 1000
        self.tracing(False)
        return result, ms, clock.bracket(before), problems

    def iteration(self, i: int, traced: bool) -> list:
        """One retrieve / estimate / store round; returns its samples."""
        self.traced = traced
        self.tracing(False)
        samples = []
        case_id = f"lib{i}"

        self.op(f"lib{i}:retrieve")
        if self.corpus == "paper":
            query_path = self.inputs / "keylogging.json"
        else:
            query_path = gen.write(
                self.inputs / "libquery.json",
                gen.attack_doc(gen.stream(self.seed, "libquery", i), case_id, gen.query_size(i)),
            )
        query = self.Case(
            case_id=case_id,
            attack=self.parse(query_path, "json", attack_id=case_id),
            intention=None,
            evidence_weights={},
            status=self.CaseStatus.PROPOSED,
        )
        ranking, ms, ref, problems = self.timed(
            lambda: self.cbr.retrieve(query, self.repo, k=TOP_K), self.Error
        )
        checked = []
        if ranking is not None and i % CHECK_EVERY == 0:
            checked = self.check_ranking(query, ranking)
        samples.append(["retrieve", ms, ref, problems, checked])

        self.op(f"lib{i}:estimate")
        network_doc, attack_doc = gen.network_docs(gen.stream(self.seed, "libnet", i), f"ln{i}")
        network = self.serialize.network_from_dict(network_doc)
        violations = self.validate_network(network)
        est_attack = self.parse(gen.write(self.inputs / "libattack.json", attack_doc), "json")

        def estimate():
            if violations:
                raise ValueError("; ".join(violations))
            return self.inference.analyze_attack(est_attack, network)

        report, ms, ref, problems = self.timed(estimate, (self.Error, ValueError))
        checked = []
        if report is not None:
            derived = checks.mass_beliefs(report.mass)
            for iid, (bel, pl) in report.per_intention.items():
                checked += checks.expect_score(
                    f"estimate {i} belief {iid}", bel, derived[iid][0], checks.BELIEF_TOLERANCE
                )
                checked += checks.expect_score(
                    f"estimate {i} plausibility {iid}", pl, derived[iid][1], checks.BELIEF_TOLERANCE
                )
            checked += checks.expect_belief_report(
                f"estimate {i}", report.per_intention, report.selected, 0.0
            )
        samples.append(["estimate", ms, ref, problems, checked])

        if ranking is None:
            return samples
        self.op(f"lib{i}:store")
        cbr = self.cbr
        revised = cbr.revise(
            cbr.initialize_incipient(cbr.reuse(query, ranking)),
            cbr.ReviseVerdict(verdict="accept", crime_type="benchmark"),
        )
        _, ms, ref, problems = self.timed(lambda: cbr.retain(revised, self.repo), self.Error)
        checked = [] if problems else checks.expect_status(self.root, case_id, "retained")
        samples.append(["store", ms, ref, problems, checked])
        return samples

    def check_ranking(self, query, ranking) -> list[str]:
        """Top-k is the head of a full ranking; sampled scores re-sum."""
        precedents = self.repo.list_cases(status=("precedent", "retained"))
        full = sorted(
            (self.cbr.similarity(query, p) for p in precedents),
            key=lambda r: (-r.score, r.precedent_case_id),
        )
        label = f"retrieve {query.case_id}"
        problems = checks.expect_top_k(
            label,
            [(e.precedent_case_id, e.score) for e in ranking.entries],
            [(r.precedent_case_id, r.score) for r in full],
            TOP_K,
        )
        new_evidence = [self.serialize.evidence_to_dict(ev) for ev in query.attack.evidence]
        for entry in ranking.entries:
            path = self.root / "cases" / f"{entry.precedent_case_id}.json"
            precedent = json.loads(path.read_text(encoding="utf-8"))
            expected = checks.resum_score(new_evidence, precedent, entry.alignment)
            problems += checks.expect_score(
                f"{label} vs {entry.precedent_case_id}", entry.score, expected, checks.SCORE_TOLERANCE
            )
        return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--corpus", choices=("paper", "synthetic"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    client = Client(args, tracer)
    reply({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            break
        first, count = msg["run"]
        samples = []
        for i in range(first, first + count):
            samples += client.iteration(i, msg["traced"])
        reply({"samples": samples})
    if tracer is not None:
        tracer.dump(args.spans)
    reply({"bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
