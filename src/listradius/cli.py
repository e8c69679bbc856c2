"""Command line front end.

Subcommands: ``curve`` (CSV bound curves), ``witness`` (maximizer report
for one rate), ``table1`` (crossover table against the published values),
``verify`` (the named check suites).  CSV goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 usage error or stdout closed by its
reader, 2 verification or acceptance failure.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import bounds, checks, oracle
from .errors import DomainError, ListRadiusError, SizeLimitError

__all__ = ["main", "run"]

USAGE_EXIT = 1
FAILURE_EXIT = 2
MAX_CURVE_ROWS = 100_000
# Significant digits of every float that curve and witness print.
OUTPUT_PRECISION = 10


class _UsageError(Exception):
    """A usage error, raised with the (sub)parser and the message, for
    main to print to the err stream it was given."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="listradius", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="emit a bound curve as CSV")
    p_curve.add_argument("--bound", required=True, choices=bounds.BOUNDS)
    p_curve.add_argument("--L", required=True, type=int)
    p_curve.add_argument("--rmin", required=True, type=float)
    p_curve.add_argument("--rmax", required=True, type=float)
    p_curve.add_argument("--step", required=True, type=float)
    p_curve.add_argument(
        "--beta", type=float, default=None,
        help="explicit beta (default: entropy-matched h(beta) = rate)",
    )

    p_wit = sub.add_parser("witness", help="maximizer report for one rate")
    p_wit.add_argument("--L", required=True, type=int)
    p_wit.add_argument("--R", required=True, type=float)
    p_wit.add_argument("--beta", type=float, default=None)
    p_wit.add_argument(
        "--exponent", choices=bounds.EXPONENT_MODES, default="parametric"
    )

    sub.add_parser("table1", help="crossover table vs published values")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite", required=True, choices=("identities", "oracle", "bounds", "all")
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--code", default=None, help="0/1 code file for oracle checks")
    return parser


def _rate_grid(rmin, rmax, step):
    if not (0.0 < rmin < rmax < 1.0 and 0.0 < step < math.inf):
        raise DomainError("need 0 < rmin < rmax < 1 and a finite step > 0")
    # the slack also covers the rounding of rmax to a float near rate 1
    span = (rmax - rmin) / step + 1e-9 + 2.0 * math.ulp(rmax) / step
    if span >= MAX_CURVE_ROWS:
        raise DomainError(f"step {step:g} gives more than {MAX_CURVE_ROWS} rows")
    # the slack may put the last row past rmax; it is then evaluated at rmax
    return [min(rmin + k * step, rmax) for k in range(math.floor(span) + 1)]


def _fmt(value):
    # a value below 1 that ten digits round to 1 is printed in full
    text = f"{value:.{OUTPUT_PRECISION}g}"
    return repr(value) if value < 1.0 <= float(text) else text


def cmd_curve(args, out, err) -> int:
    try:
        rates = _rate_grid(args.rmin, args.rmax, args.step)
        curve = bounds.sample_curve(args.bound, args.L, rates, beta=args.beta)
    except ListRadiusError as exc:
        print(f"listradius curve: error: {exc}", file=err)
        return USAGE_EXIT
    columns = bounds.BOUNDS[args.bound].columns
    print(",".join(("rate", "tau") + columns), file=out)
    for pt in curve:
        row = [_fmt(pt.rate)]
        if pt.tau is None:
            print(",".join(row + [""] * (1 + len(columns))), file=out)
            print(f"listradius curve: warning: rate {_fmt(pt.rate)}: {pt.note}", file=err)
            continue
        row.append(_fmt(pt.tau))
        for col in columns:
            value = pt.label if col == "label" else getattr(pt.witness, col)
            row.append(_fmt(value) if isinstance(value, float) else str(value))
        print(",".join(row), file=out)
    return 0


def cmd_witness(args, out, err) -> int:
    try:
        tau, w = bounds.list_radius_bound(
            args.L, args.R, beta=args.beta, exponent=args.exponent
        )
    except ListRadiusError as exc:
        print(f"listradius witness: error: {exc}", file=err)
        return USAGE_EXIT
    xi_max = 0.5 - math.sqrt(w.beta * (1.0 - w.beta))
    at_limit = abs(w.xi0 - xi_max) <= 1e-6
    print(f"L = {args.L}", file=out)
    print(f"rate = {_fmt(args.R)}", file=out)
    print(f"tau = {_fmt(tau)}", file=out)
    print(f"xi0 = {_fmt(w.xi0)}", file=out)
    print(f"xi1 = {_fmt(w.xi1)}", file=out)
    print(f"j = {w.j}", file=out)
    print(f"beta = {_fmt(w.beta)}", file=out)
    print(f"r_prime = {_fmt(w.r_prime)}", file=out)
    print(f"xi0_upper_limit = {_fmt(xi_max)}", file=out)
    print(f"xi0_at_upper_limit = {'yes' if at_limit else 'no'}", file=out)
    print(f"j_is_one = {'yes' if w.j == 1 else 'no'}", file=out)
    return 0


def cmd_table1(args, out, err) -> int:
    refs = bounds.reference_crossovers()
    print(f"{'L':>3} {'computed':>10} {'reference':>10} {'delta':>10}", file=out)
    worst = 0.0
    for L, ref in refs.items():
        res = bounds.crossover_rate(L)
        delta = res.r_cross - ref
        worst = max(worst, abs(delta))
        print(f"{L:>3} {res.r_cross:>10.4f} {ref:>10.3f} {delta:>+10.4f}", file=out)
    if worst > 0.002:
        print(
            f"listradius table1: worst deviation {worst:.4f} exceeds 0.002",
            file=err,
        )
        return FAILURE_EXIT
    return 0


def cmd_verify(args, out, err) -> int:
    code = None
    if args.code is not None:
        # every bad code file fails here, before any suite runs
        try:
            code = oracle.load_code(args.code)
            if len(code.words) > oracle.MAX_AVG_TYPE_SIZE:
                raise SizeLimitError(
                    f"{args.code}: {len(code.words)} words, the oracle checks "
                    f"take at most {oracle.MAX_AVG_TYPE_SIZE}"
                )
        except (OSError, ValueError) as exc:
            print(f"listradius verify: error: {exc}", file=err)
            return USAGE_EXIT
    results = checks.run_suite(args.suite, seed=args.seed, code=code)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}: worst residual {r.residual:.3g}{detail}", file=out)
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return FAILURE_EXIT if failed else 0


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out):  # --help prints to out
            args = parser.parse_args(argv)
    except _UsageError as exc:
        failed, message = exc.args
        failed.print_usage(err)
        print(f"{failed.prog}: error: {message}", file=err)
        return USAGE_EXIT
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if args.command == "curve":
        return cmd_curve(args, out, err)
    if args.command == "witness":
        return cmd_witness(args, out, err)
    if args.command == "table1":
        return cmd_table1(args, out, err)
    return cmd_verify(args, out, err)


def run():  # console entry point
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed by its reader (``| head``): point it at devnull, so
        # that the flush at exit does not raise again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = USAGE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    run()
