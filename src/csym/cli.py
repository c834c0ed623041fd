"""Command-line entry point: `csym verify [options]`.

Runs the selected verification suites, prints the text report, optionally
writes the JSON report, and exits 0 iff every check passed, 1 if a check
failed and 2 on a usage error, such as a JSON path that cannot be written,
or when a suite worker ended without reporting.
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import (
    LAMBDA_TOKENS,
    POTENTIAL_RULE_TOKENS,
    RunConfig,
    SUITES,
    SuiteWorkerError,
    emit,
    run,
)


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers or tell."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csym",
        description=(
            "Exact verification of the discrete symmetries of the Maxwell and "
            "Dirac equations, including charge conjugation realized as "
            "inversion of the speed of light."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites and report")
    verify.add_argument(
        "--suite",
        action="append",
        choices=("all",) + SUITES,
        default=None,
        help="suite to run (repeatable; default all)",
    )
    verify.add_argument("--samples", type=int, default=RunConfig.samples,
                        help="random draws per sampled check")
    verify.add_argument("--seed", type=int, default=RunConfig.seed, help="seed for all random draws")
    verify.add_argument(
        "--tolerance", type=float, default=RunConfig.tolerance,
        help="relative tolerance for floating-point spot checks (exact checks ignore it)",
    )
    verify.add_argument(
        "--lambda", dest="lam", choices=sorted(LAMBDA_TOKENS), default=RunConfig.lam,
        help="conjugation phase factor; write a negative value as --lambda=-i",
    )
    verify.add_argument(
        "--potential-rule", choices=POTENTIAL_RULE_TOKENS, default=RunConfig.potential_rule,
        help="which 4-potential rule(s) to exercise on the charged equation",
    )
    verify.add_argument("--json", metavar="PATH", default=None, help="also write a JSON report")
    verify.add_argument("--quiet", action="store_true", help="suppress the text report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            suites=tuple(args.suite) if args.suite else RunConfig.suites,
            samples=args.samples,
            seed=args.seed,
            tolerance=args.tolerance,
            lam=args.lam,
            potential_rule=args.potential_rule,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a program run spreads its suites over the CPUs; an in-process caller,
    # such as a tracer or a test that patches csym, needs every call made here
    workers = usable_cpus() if argv is None else 1
    try:
        report = run(config, workers=workers)
    except SuiteWorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        try:
            emit(report, fmt="json", path=args.json)
        except OSError as exc:
            print(f"error: cannot write JSON report to {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    if not args.quiet:
        sys.stdout.write(emit(report, fmt="text"))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
