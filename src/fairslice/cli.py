"""Command-line interface.

Exit codes: 0 success, 2 validation error (including a file that cannot be
read or written, and an exact result too large to print,
``OUTPUT_TOO_LARGE``), 3 procedure undefined in strict mode, 4
counterexample mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import EXIT_OK, EXIT_VALIDATION, FairsliceError, MismatchError, ParseError
from .harness import (
    CASES,
    ProcedureSpec,
    emit_report,
    load_allocation,
    load_densities,
    load_document,
    parse_tie,
    run_counterexample,
)
from .measures import declared_values
from .procedures import PROCEDURE_NAMES, run_procedure
from .verify import (
    envy_free_check,
    pareto_optimal_check,
    proportional_check,
    weak_manipulation_search,
)

CHECKS = {
    "proportional": proportional_check,
    "envy": envy_free_check,
    "pareto": pareto_optimal_check,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process. No option has a
    mutable default, and ``choices=CASES`` reads the live registry."""
    parser = argparse.ArgumentParser(
        prog="fairslice",
        description="Exact-arithmetic cake-cutting procedures and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a procedure on a scenario document")
    run.add_argument("scenario", help="path to a scenario JSON document")
    run.add_argument("--procedure", choices=PROCEDURE_NAMES)
    run.add_argument("--strict", action="store_true")
    run.add_argument("--cutter", help="cutter name for cut-choose")
    run.add_argument("--tie", default=None, help="lowest or seed:<u64>")
    run.add_argument("-o", "--output", help="write the report here instead of stdout")
    run.set_defaults(handler=_cmd_run)

    verify = sub.add_parser("verify", help="check properties of an allocation")
    verify.add_argument("scenario")
    verify.add_argument("allocation")
    verify.add_argument("--truth", help="scenario-shaped document with true densities")
    verify.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help=f"comma-separated subset of {','.join(CHECKS)}",
    )
    verify.add_argument("-o", "--output")
    verify.set_defaults(handler=_cmd_verify)

    paper = sub.add_parser("paper-ce", help="replay a registered counterexample")
    paper.add_argument("case", type=int, choices=CASES, metavar=f"{min(CASES)}..{max(CASES)}")
    paper.add_argument("-o", "--output")
    paper.set_defaults(handler=_cmd_paper_ce)

    manipulate = sub.add_parser(
        "manipulate", help="search candidate misreports for a weak improvement"
    )
    manipulate.add_argument("scenario")
    manipulate.add_argument("--player", required=True)
    manipulate.add_argument("--candidates", required=True)
    manipulate.add_argument("--opponents", required=True)
    manipulate.add_argument("-o", "--output")
    manipulate.set_defaults(handler=_cmd_manipulate)
    return parser


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _cmd_run(args) -> int:
    document = load_document(_read(args.scenario))
    embedded = document.procedure
    name = args.procedure or (embedded.name if embedded else None)
    if name is None:
        raise FairsliceError(
            "no procedure given: pass --procedure or embed one in the document"
        )
    defaults = embedded or ProcedureSpec(name)
    strict = args.strict or defaults.strict
    cutter = defaults.cutter if args.cutter is None else args.cutter
    tie = defaults.tie if args.tie is None else parse_tie(args.tie)
    outcome = run_procedure(
        name, document.scenario, strict=strict, tie=tie, cutter=cutter
    )
    report = {
        "command": "run",
        "procedure": name,
        "outcome": outcome,
        "declared_values": declared_values(document.scenario, outcome.allocation),
    }
    _write(emit_report(report), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    document = load_document(_read(args.scenario))
    scenario = document.scenario
    allocation = load_allocation(_read(args.allocation), scenario)
    truth = document.truth
    if args.truth:
        truth = load_document(_read(args.truth)).scenario
    # Each selected check runs once, in the order of its first mention.
    wanted = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
    unknown = [c for c in wanted if c not in CHECKS]
    if unknown:
        raise FairsliceError(f"unknown checks {unknown}; choose from {tuple(CHECKS)}")
    if not wanted:
        raise FairsliceError(f"no checks selected; choose from {tuple(CHECKS)}")
    reports = [CHECKS[check](scenario, allocation, truth) for check in wanted]
    _write(emit_report({"command": "verify", "checks": reports}), args.output)
    return EXIT_OK


def _cmd_paper_ce(args) -> int:
    try:
        report = run_counterexample(args.case)
    except MismatchError as exc:
        _write(emit_report({"command": "paper-ce", "comparison": exc.report}), args.output)
        raise
    _write(emit_report({"command": "paper-ce", "comparison": report}), args.output)
    return EXIT_OK


def _cmd_manipulate(args) -> int:
    document = load_document(_read(args.scenario))
    scenario = document.scenario
    if scenario.n != 2:
        raise FairsliceError("manipulation search needs a two-player scenario")
    if document.procedure is None:
        raise FairsliceError("the scenario document must embed a procedure to search")
    if args.player not in scenario.names:
        raise FairsliceError(f"unknown player {args.player!r}")
    opponent_name = next(n for n in scenario.names if n != args.player)
    candidates = load_densities(_read(args.candidates))
    opponents = load_densities(_read(args.opponents))
    embedded = document.procedure
    witness = weak_manipulation_search(
        embedded.name,
        scenario.density(args.player),
        candidates,
        opponents,
        manipulator=args.player,
        opponent=opponent_name,
        tie=embedded.tie,
        strict=embedded.strict,
        cutter=embedded.cutter,
    )
    report = {
        "command": "manipulate",
        "player": args.player,
        "witness_found": witness is not None,
        "witness": witness,
    }
    _write(emit_report(report), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FairsliceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error [IO_ERROR]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
