"""Command-line front end wiring the five-process workflow.

Exit codes are stable and machine-friendly: 0 ok, 1 I/O failure (also
a failed write of the command's output), 2 validation failure, 3 empty
repository, 4 analysis failure.
Diagnostics go to stderr; data (rankings, reports, case ids) goes to
stdout or the requested output files.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import math
import os
import sys
from contextlib import suppress
from json.encoder import encode_basestring
from pathlib import Path

from .errors import DuplicateCaseId, IntentCbrError, ValidationFailure
from .model import (
    Attack,
    Case,
    CaseStatus,
    confidence_weights,
    now_utc,
    replace,
    transition,
    validate_attack,
    validate_network,
)
from .repository import Repository, _as_stored, _atomic_write, _check_id
from .serialize import attack_from_dict, network_from_dict

_REPO_ENV = "INTENT_CBR_REPO"
# How many ids `analyze` tries for its new case before DuplicateCaseId stands.
_ADD_ATTEMPTS = 10
# Each character that str.splitlines ends a line at, to its escape as repr writes it.
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def entrypoint() -> None:
    """Process entry: the console script and ``python -m intent_cbr``.
    Call it once, as the process's entry; in-process callers use `main`.

    Exits with `main`'s status through ``sys.exit``, so a caller's
    ``finally`` still runs, then the ``atexit`` handlers that the command
    registered. Last, stdout and stderr are flushed and ``os._exit`` ends
    the process without the interpreter's teardown: handlers registered
    before this call, such as coverage's, do not run. If `main` raises,
    the process exits as Python does. The cyclic GC is off: the records
    hold no reference cycles, and the process ends with the command.
    """
    gc.disable()
    status: list[int] = []
    atexit.register(_end_process, status)
    status.append(main())
    sys.exit(status[0])


def _end_process(status: list[int]) -> None:
    """`entrypoint`'s ``atexit`` handler: exit with `main`'s status, if it
    returned one, skipping the interpreter's teardown."""
    if not status:
        return
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            # Status 0 is left to Python's exit, which reports the failed
            # flush as 120; any other status stands.
            if status[0] == 0:
                return
    os._exit(status[0])


def main(argv: list[str] | None = None) -> int:
    """In-process API: run one command and return its exit status.

    Unlike `entrypoint`, it leaves the GC on and registers no exit
    handler: tests, demos and library callers run it in their own process.
    """
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error
            rc = int(exc.code or 0)
        else:
            rc = args.func(Repository.attach(_repo_path(args)), args)
        # Output that cannot be written is an I/O failure, here, and not a
        # failed flush at exit.
        if sys.stdout is not None:
            sys.stdout.flush()
        return rc
    except IntentCbrError as exc:
        _print_error(exc)
        return exc.exit_code
    except OSError as exc:
        _print_error(exc)
        return 1


def _print_error(exc: Exception) -> None:
    """``error: <exc>`` on stderr as one line: a message may quote input
    text, and each character that ``str.splitlines`` ends a line at is
    printed as its escape."""
    print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intent-cbr",
        description="Analyze the intention behind a cyber-attack from its evidence.",
        epilog=(
            "Exit codes: 0 ok, 1 I/O failure, 2 validation failure, "
            "3 empty repository, 4 analysis failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest",
        help="parse an evidence file and store the attack in the repository",
        description=(
            "Parse a CSV or JSON evidence file into an attack record. "
            "Evidence rows without a confidence value default to 1.0 "
            "(the analyst asserted the evidence)."
        ),
    )
    p.add_argument("--input", required=True, help="evidence file to parse")
    p.add_argument("--format", required=True, choices=("json", "csv"))
    _add_repo_flag(p)
    p.add_argument("--attack-id", required=True, help="id to store the attack under")
    p.add_argument("--attack-name", default=None, help="display name (defaults to the id)")
    p.add_argument(
        "--detection-state",
        type=float,
        default=None,
        help="detection accuracy ratio in [0,1] (default 1.0 for CSV)",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "analyze",
        help="retrieve similar precedents and prepare an incipient case",
        description=(
            "Run retrieval, reuse the best precedent's intention, and "
            "initialize the incipient case. Without --interactive the "
            "incipient case is stored for a later 'revise'."
        ),
    )
    _add_repo_flag(p)
    p.add_argument("--attack-id", required=True, help="previously ingested attack id")
    p.add_argument("--top", type=int, default=5, help="number of precedents to rank")
    p.add_argument(
        "--interactive",
        action="store_true",
        help="prompt for the revise verdict and retain on accept",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("revise", help="record the investigator verdict on an incipient case")
    _add_repo_flag(p)
    p.add_argument("--case-id", required=True)
    p.add_argument("--verdict", required=True, choices=("accept", "reject"))
    p.add_argument("--rationale", default="", help="required when rejecting")
    p.add_argument("--crime-type", default="")
    p.add_argument("--damage-note", default="")
    p.set_defaults(func=cmd_revise)

    p = sub.add_parser("retain", help="store an accepted case as a retained precedent")
    _add_repo_flag(p)
    p.add_argument("--case-id", required=True)
    p.set_defaults(func=cmd_retain)

    p = sub.add_parser(
        "seed-aia",
        help="seed the repository from the standalone intention estimator",
        description=(
            "Estimate the attack intention from a causal network "
            "(Bayesian posteriors fused with Dempster's rule) and store "
            "the result as a precedent case."
        ),
    )
    _add_repo_flag(p)
    p.add_argument("--network", required=True, help="causal network JSON document")
    p.add_argument("--attack", required=True, help="attack JSON document")
    p.add_argument(
        "--priors",
        choices=("uniform", "frequency"),
        default=None,
        help=(
            "override the network's priors: uniform over its intentions, "
            "or intention frequencies observed in the repository"
        ),
    )
    p.set_defaults(func=cmd_seed_aia)

    p = sub.add_parser("report", help="write the full similarity ranking as CSV")
    _add_repo_flag(p)
    p.add_argument("--attack-id", required=True)
    p.add_argument("--out", required=True, help="CSV output path (scores at 2 decimals)")
    p.add_argument(
        "--chart-data",
        default=None,
        help="also write {label, score} JSON rows at full precision",
    )
    p.set_defaults(func=cmd_report)

    return parser


# --- commands ----------------------------------------------------------------
# A module that only some commands run (cbr, ingest, inference) is imported
# in those commands, so the others do not load it.


def cmd_ingest(repo: Repository, args) -> int:
    from .ingest import parse_evidence_file

    attack = parse_evidence_file(
        args.input,
        args.format,
        args.attack_id,
        args.attack_name,
        args.detection_state,
        warn=_print_warning,
    )
    repo.save_attack(attack)
    print(f"{len(attack.evidence)} evidence items ingested")
    return 0


def cmd_analyze(repo: Repository, args) -> int:
    from . import cbr

    attack = repo.load_attack(args.attack_id)
    new_case = _fresh_case(repo, attack)
    # The case is stored after the ranking is printed: a bad id must fail first.
    _check_id(new_case.case_id, "case")
    ranking = cbr.retrieve(new_case, repo, k=args.top)
    _print_ranking(ranking)
    proposed = cbr.reuse(new_case, ranking)
    incipient = cbr.initialize_incipient(proposed)
    if args.interactive:
        verdict = _prompt_verdict()
        revised = cbr.revise(incipient, verdict)
        if verdict.verdict == "accept":
            retained = _add_new_case(repo, transition(revised, CaseStatus.RETAINED))
            print(f"case {retained.case_id} retained")
        else:
            revised = _add_new_case(repo, revised)
            print(f"case {revised.case_id} rejected; stored for audit")
    else:
        incipient = _add_new_case(repo, incipient)
        print(f"incipient case {incipient.case_id} written; revise it with:")
        print(f"  intent-cbr revise --case-id {incipient.case_id} --verdict accept")
    # Last, so only a run that succeeds refreshes the derived case summary.
    repo._write_summary()
    return 0


def cmd_revise(repo: Repository, args) -> int:
    from . import cbr

    case = repo.get_case(args.case_id)
    verdict = cbr.ReviseVerdict(
        verdict=args.verdict,
        rationale=args.rationale,
        crime_type=args.crime_type,
        damage_note=args.damage_note,
    )
    revised = cbr.revise(case, verdict)
    repo.update_case(revised)
    print(f"case {revised.case_id} now {revised.status.value}")
    return 0


def cmd_retain(repo: Repository, args) -> int:
    from . import cbr

    case = repo.get_case(args.case_id)
    retained = cbr.retain(case, repo)
    print(f"case {retained.case_id} retained")
    return 0


def cmd_seed_aia(repo: Repository, args) -> int:
    from .inference import analyze_attack
    from .ingest import parse_evidence_file, parse_network_file

    network = parse_network_file(args.network)
    attack = parse_evidence_file(args.attack, "json", warn=_print_warning)
    if args.priors == "uniform":
        ids = network.intention_ids()
        network = replace(network, priors={iid: 1.0 / len(ids) for iid in ids})
    elif args.priors == "frequency":
        frequencies = repo.intention_frequencies()
        priors = {iid: frequencies.get(iid, 0.0) for iid in network.intention_ids()}
        total = math.fsum(priors.values())
        if total <= 0.0:
            raise ValidationFailure(
                "repository frequencies cover none of the network's intentions"
            )
        network = replace(network, priors={i: v / total for i, v in priors.items()})
    # Each record that no write could store fails before any write and
    # before the report is printed; the attack and network are stored last.
    _as_stored(attack, "attack", attack.id, attack_from_dict, validate_attack)
    _as_stored(network, "network attack_id", network.attack_id, network_from_dict, validate_network)
    case_id = f"aia-{attack.id}"
    _check_id(case_id, "case")

    report = analyze_attack(attack, network)
    _print_belief_report(report)

    case = Case(
        case_id=case_id,
        attack=attack,
        intention=network.find_intention(report.selected),
        evidence_weights=confidence_weights(attack),
        status=CaseStatus.PRECEDENT,
        provenance="seeded-by-AIA",
        created_at=now_utc(),
    )
    repo.add_case(case)
    repo.save_network(network)
    # An attack already stored, also by another handle meanwhile, is kept.
    with suppress(DuplicateCaseId):
        repo.save_attack(attack)
    print(f"case {case.case_id} stored as precedent (intention {report.selected})")
    return 0


def cmd_report(repo: Repository, args) -> int:
    from . import cbr

    attack = repo.load_attack(args.attack_id)
    new_case = _fresh_case(repo, attack)
    ranking = cbr.retrieve(new_case, repo, k=None)
    # Each file is written whole or not at all: a failed run leaves no
    # truncated output.
    out = Path(args.out)
    csv_text = io.StringIO()
    cbr.write_ranking_csv(ranking, csv_text)
    _atomic_write(out, csv_text.getvalue().encode("utf-8"))
    print(f"wrote {out}", file=sys.stderr)
    if args.chart_data:
        rows = [
            (ranking.precedent_intentions[e.precedent_case_id].label, e.score)
            for e in ranking.entries
        ]
        _atomic_write(Path(args.chart_data), _chart_text(rows).encode("utf-8"))
        print(f"wrote {args.chart_data}", file=sys.stderr)
    return 0


def _chart_text(rows) -> str:
    """``canonical_dumps`` of a ``{"label", "score"}`` object per (label,
    score) row, built around json's C string encoder and ``float.__repr__``:
    an indent, as in ``canonical_dumps``, takes json's pure-Python encoder."""
    objects = ",\n".join(
        f'  {{\n    "label": {encode_basestring(label)},\n    "score": {float.__repr__(score)}\n  }}'
        for label, score in rows
    )
    return f"[\n{objects}\n]\n" if rows else "[]\n"


# --- helpers ------------------------------------------------------------------


def _print_warning(message: str) -> None:
    """An ingest warning as ``WARNING: <message>`` on stderr. One that
    cannot be written is dropped and fails nothing."""
    with suppress(OSError, ValueError):
        print(f"WARNING: {message}", file=sys.stderr)


def _add_repo_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repo",
        default=None,
        help=f"repository directory (default: ${_REPO_ENV})",
    )


def _repo_path(args) -> Path:
    repo = args.repo or os.environ.get(_REPO_ENV)
    if not repo:
        raise ValidationFailure(f"--repo required (or set ${_REPO_ENV})")
    return Path(repo)


def _fresh_case(repo: Repository, attack: Attack) -> Case:
    """New in-flight case for an attack, with an unused case id."""
    return Case(
        case_id=_free_case_id(repo, attack.id),
        attack=attack,
        intention=None,
        evidence_weights={},
        status=CaseStatus.PROPOSED,
        provenance="analyst",
        created_at=now_utc(),
    )


def _free_case_id(repo: Repository, attack_id: str) -> str:
    """First ``<attack>-cN`` id with no stored case."""
    n = 1
    while repo.has_case(f"{attack_id}-c{n}"):
        n += 1
    return f"{attack_id}-c{n}"


def _add_new_case(repo: Repository, case: Case) -> Case:
    """Store a case of `_fresh_case`, at any status; returns it under the
    id it got.

    A concurrent writer may take the chosen id after `_fresh_case` saw it
    free. ``add_case`` decides that under the writer lock, and the case
    then moves to the next free ``<attack>-cN`` id, a bounded number of
    times.
    """
    for _ in range(_ADD_ATTEMPTS - 1):
        try:
            repo.add_case(case)
            return case
        except DuplicateCaseId:
            case = replace(case, case_id=_free_case_id(repo, case.attack.id))
    repo.add_case(case)
    return case


def _print_ranking(ranking) -> None:
    print(f"ranking for case {ranking.new_case_id}")
    print(f"{'rank':>4}  {'score':>6}  {'precedent':<12}  intention")
    for rank, entry in enumerate(ranking.entries, start=1):
        intention = ranking.precedent_intentions.get(entry.precedent_case_id)
        label = "" if intention is None else intention.label
        print(f"{rank:>4}  {entry.score:6.4f}  {entry.precedent_case_id:<12}  {label}")


def _print_belief_report(report) -> None:
    print(f"{'intention':<12}  {'belief':>8}  {'plausibility':>12}")
    for iid in sorted(report.per_intention):
        bel, pl = report.per_intention[iid]
        print(f"{iid:<12}  {bel:8.4f}  {pl:12.4f}")
    print(f"selected: {report.selected}")


def _prompt_verdict():
    from .cbr import ReviseVerdict

    while True:
        print("accept proposed intention? [accept/reject]: ", file=sys.stderr, end="", flush=True)
        try:
            answer = _answer().lower()
        except EOFError:
            raise ValidationFailure("no verdict given") from None
        if answer in ("accept", "reject"):
            break
        print("please answer 'accept' or 'reject'", file=sys.stderr)
    rationale = ""
    if answer == "reject":
        print("rationale: ", file=sys.stderr, end="", flush=True)
        with suppress(EOFError):
            rationale = _answer()
    return ReviseVerdict(verdict=answer, rationale=rationale)


def _answer() -> str:
    """One line of standard input, stripped. Where stdin decodes strictly,
    an undecodable byte is a ValidationFailure; elsewhere it reaches the
    record and fails there, as a command-line argument's does."""
    try:
        return input().strip()
    except UnicodeDecodeError:
        raise ValidationFailure("answer is not UTF-8 text") from None


if __name__ == "__main__":
    entrypoint()
