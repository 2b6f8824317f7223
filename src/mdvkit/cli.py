"""Command-line front end.

Exit codes: 0 success, 1 at least one applicable check failed, 2 invalid
input (bad scenario, bad flags, bad report file), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import scenario as scn_mod
from . import verify
from .displacement import DEFAULT_MAX_ITER, minimal_displacement
from .errors import NumericalError, ValidationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged, so
    every :func:`main` call after the first reuses it."""
    parser = argparse.ArgumentParser(
        prog="mdvkit",
        description="Estimate minimal displacement vectors and verify their calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the minimal displacement vector "
                                          "of each operator in a scenario")
    est.add_argument("scenario", help="path to a scenario JSON file")
    est.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    est.add_argument("--tol", type=float, default=None,
                     help="iterative stopping tolerance (default from scenario)")
    est.add_argument("--max-iter", type=int, default=None,
                     help="iteration cap (default from scenario)")
    est.add_argument("--out", default=None, help="write the report here instead of stdout")
    est.add_argument("--format", choices=("json", "csv"), default="json")

    ver = sub.add_parser("verify", help="run the checks of a scenario, or the built-in suite")
    ver.add_argument("scenario", nargs="?", default=None, help="path to a scenario JSON file")
    ver.add_argument("--builtin-suite", action="store_true",
                     help="run the bundled verification suite instead of a scenario")
    ver.add_argument("--seed", type=int, default=None, help="seed override (default 42 "
                                                            "for the built-in suite)")
    ver.add_argument("--tol", type=float, default=None,
                     help="override the default tolerance of scenario checks "
                          "(rejected with --builtin-suite)")
    ver.add_argument("--max-iter", type=int, default=None, help="iteration cap override")
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")
    ver.add_argument("--format", choices=("json", "csv"), default="json")

    rep = sub.add_parser("report", help="re-render a saved report")
    rep.add_argument("report", help="path to a report JSON file")
    rep.add_argument("--format", choices=("json", "csv"), default="csv")
    rep.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    text = (scn_mod.dumps_report if fmt == "json" else scn_mod.report_to_csv)(payload)
    if out is None:
        sys.stdout.write(text)
        return
    try:
        scn_mod.write_atomic(out, text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from exc


def cmd_estimate(args) -> int:
    scn = scn_mod.load_scenario(args.scenario)
    if not scn.operators:
        raise ValidationError(f"{args.scenario}: scenario defines no operators")
    seed = scn.seed if args.seed is None else args.seed
    tol = scn.tol if args.tol is None else args.tol
    max_iter = scn.max_iter if args.max_iter is None else args.max_iter
    entries = []
    for i, op in enumerate(scn.operators):
        est = minimal_displacement(op, x0=scn.x0, max_iter=max_iter, tol=tol)
        entries.append(scn_mod.estimate_to_dict(f"op[{i}]", est))
    _emit(scn_mod.estimate_payload(scn.name, seed, entries), args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.builtin_suite:
        if args.scenario is not None:
            raise ValidationError("pass either a scenario path or --builtin-suite, not both")
        if args.tol is not None:
            raise ValidationError("--tol: the built-in suite uses fixed per-check tolerances")
        seed = 42 if args.seed is None else args.seed
        max_iter = DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter
        reports = verify.builtin_suite(seed=seed, max_iter=max_iter)
        name = "builtin-suite"
    else:
        if args.scenario is None:
            raise ValidationError("a scenario path is required unless --builtin-suite is set")
        scn = scn_mod.load_scenario(args.scenario)
        if not scn.checks:
            raise ValidationError(f"{args.scenario}: scenario defines no checks")
        seed = scn.seed if args.seed is None else args.seed
        reports = scn_mod.run_scenario_checks(scn, seed=seed, tol=args.tol,
                                              max_iter=args.max_iter)
        name = scn.name
    _emit(scn_mod.verify_payload(name, seed, reports), args.format, args.out)
    return EXIT_OK if verify.suite_passed(reports) else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    payload = scn_mod.load_report(args.report)
    try:
        _emit(payload, args.format, args.out)
    except RecursionError as exc:  # a witness nested too deeply to render, though json read it
        raise ValidationError(f"{args.report}: report nested too deeply to render") from exc
    except UnicodeEncodeError as exc:  # a lone surrogate, which JSON escapes but CSV prints
        raise ValidationError(f"{args.report}: text not writable as UTF-8 ({exc.reason})") from exc
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        # flags pass the same typed parsers as the scenario's estimator block
        if getattr(args, "max_iter", None) is not None:
            scn_mod._count(args.max_iter, "--max-iter")
        if getattr(args, "tol", None) is not None:
            scn_mod._positive(args.tol, "--tol")
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_report(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
