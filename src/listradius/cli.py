"""Command line front end.

Subcommands: ``curve`` (CSV bound curves), ``witness`` (maximizer report
for one rate), ``table1`` (crossover table against the published values),
``verify`` (the named check suites).  CSV goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 usage error, 2 verification or
acceptance failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

from . import bounds, checks, oracle
from .errors import DomainError, ListRadiusError

__all__ = ["RunConfig", "main", "run"]

USAGE_EXIT = 1
FAILURE_EXIT = 2
MAX_CURVE_ROWS = 100_000


@dataclass
class RunConfig:
    """Numeric knobs shared by the subcommands; overridable from a
    ``key=value`` config file."""

    bisect_tol: float = 1e-12
    xi0_grid: int = 2000
    lp2_grid: int = 400
    output_precision: int = 10

    def validate(self):
        # negated range checks, so that NaN fails them too
        if not (0 < self.bisect_tol <= 1e-6):
            raise DomainError("bisect_tol must lie in (0, 1e-6]")
        if not (self.xi0_grid > 0 and self.lp2_grid > 0 and self.output_precision > 0):
            raise DomainError("grid sizes and precision must be positive")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_config(path) -> RunConfig:
    """Parse a plain key=value config file; '#' starts a comment; unknown
    keys are fatal.  Each value is parsed as the type of its default."""
    cfg = RunConfig()
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                setattr(cfg, key, type(getattr(cfg, key))(value.strip()))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


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
    p_curve.add_argument("--config", default=None)

    p_wit = sub.add_parser("witness", help="maximizer report for one rate")
    p_wit.add_argument("--L", required=True, type=int)
    p_wit.add_argument("--R", required=True, type=float)
    p_wit.add_argument("--beta", type=float, default=None)
    p_wit.add_argument(
        "--exponent", choices=bounds.EXPONENT_MODES, default="parametric"
    )
    p_wit.add_argument("--config", default=None)

    p_tab = sub.add_parser("table1", help="crossover table vs published values")
    p_tab.add_argument("--config", default=None)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite", required=True, choices=("identities", "oracle", "bounds", "all")
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--code", default=None, help="0/1 code file for oracle checks")
    p_ver.add_argument("--config", default=None)
    return parser


def _rate_grid(rmin, rmax, step):
    if not (0.0 < rmin < rmax < 1.0 and 0.0 < step < math.inf):
        raise DomainError("need 0 < rmin < rmax < 1 and a finite step > 0")
    span = (rmax - rmin) / step + 1e-9
    if span >= MAX_CURVE_ROWS:
        raise DomainError(f"step {step:g} gives more than {MAX_CURVE_ROWS} rows")
    return [rmin + k * step for k in range(math.floor(span) + 1)]


def _fmt(value, digits):
    return f"{value:.{digits}g}"


def cmd_curve(args, cfg: RunConfig, out, err) -> int:
    try:
        rates = _rate_grid(args.rmin, args.rmax, args.step)
        curve = bounds.sample_curve(
            args.bound,
            args.L,
            rates,
            beta=args.beta,
            grid=cfg.xi0_grid,
            lp2_grid=cfg.lp2_grid,
            bisect_tol=cfg.bisect_tol,
        )
    except (DomainError, ListRadiusError) as exc:
        print(f"listradius curve: error: {exc}", file=err)
        return USAGE_EXIT
    digits = cfg.output_precision
    columns = bounds.BOUNDS[args.bound].columns
    print(",".join(("rate", "tau") + columns), file=out)
    for pt in curve.points:
        row = [_fmt(pt.rate, digits)]
        if pt.tau is None:
            print(",".join(row + [""] * (1 + len(columns))), file=out)
            print(f"listradius curve: warning: rate {pt.rate:g}: {pt.note}", file=err)
            continue
        row.append(_fmt(pt.tau, digits))
        for col in columns:
            value = pt.label if col == "label" else getattr(pt.witness, col)
            row.append(_fmt(value, digits) if isinstance(value, float) else str(value))
        print(",".join(row), file=out)
    return 0


def cmd_witness(args, cfg: RunConfig, out, err) -> int:
    try:
        tau, w = bounds.list_radius_bound(
            args.L,
            args.R,
            beta=args.beta,
            grid=cfg.xi0_grid,
            bisect_tol=cfg.bisect_tol,
            exponent=args.exponent,
        )
    except (DomainError, ListRadiusError) as exc:
        print(f"listradius witness: error: {exc}", file=err)
        return USAGE_EXIT
    digits = cfg.output_precision
    xi_max = 0.5 - math.sqrt(w.beta * (1.0 - w.beta))
    at_limit = abs(w.xi0 - xi_max) <= 1e-6
    print(f"L = {args.L}", file=out)
    print(f"rate = {_fmt(args.R, digits)}", file=out)
    print(f"tau = {_fmt(tau, digits)}", file=out)
    print(f"xi0 = {_fmt(w.xi0, digits)}", file=out)
    print(f"xi1 = {_fmt(w.xi1, digits)}", file=out)
    print(f"j = {w.j}", file=out)
    print(f"beta = {_fmt(w.beta, digits)}", file=out)
    print(f"r_prime = {_fmt(w.r_prime, digits)}", file=out)
    print(f"xi0_upper_limit = {_fmt(xi_max, digits)}", file=out)
    print(f"xi0_at_upper_limit = {'yes' if at_limit else 'no'}", file=out)
    print(f"j_is_one = {'yes' if w.j == 1 else 'no'}", file=out)
    return 0


def cmd_table1(args, cfg: RunConfig, out, err) -> int:
    refs = bounds.reference_crossovers()
    print(f"{'L':>3} {'computed':>10} {'reference':>10} {'delta':>10}", file=out)
    worst = 0.0
    for L, ref in refs.items():
        res = bounds.crossover_rate(L, grid=cfg.xi0_grid)
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


def cmd_verify(args, cfg: RunConfig, out, err) -> int:
    code = None
    if args.code is not None:
        try:
            code = oracle.load_code(args.code)
        except (OSError, DomainError) as exc:
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg.validate()
    except (OSError, DomainError) as exc:
        print(f"listradius: error: {exc}", file=err)
        return USAGE_EXIT
    if args.command == "curve":
        return cmd_curve(args, cfg, out, err)
    if args.command == "witness":
        return cmd_witness(args, cfg, out, err)
    if args.command == "table1":
        return cmd_table1(args, cfg, out, err)
    return cmd_verify(args, cfg, out, err)


def run():  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
