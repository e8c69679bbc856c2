"""Seeded workloads of the listradius benchmark and the checks on their outputs.

A workload is a list of CLI invocations generated from the workload seed;
the CLI sees only the generated flags.  ``check_output`` decides whether
one invocation's exit code, stdout and stderr are valid; it computes the
reference relations with the library in the ``run.py`` process, outside the
timed region.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from listradius import bounds, lp

WORKLOADS = ("sweep-central", "sweep-lp", "verify")

# Oracle limit on the size of a code passed to ``verify --code``.
MAX_CODE_WORDS = 14


@dataclass(frozen=True)
class Invocation:
    """One ``python -m listradius.cli`` call: ``kind`` selects the output
    check, ``args`` are the CLI arguments, ``params`` what the check needs."""

    kind: str
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # "{key}" in args -> file text


def _rate_grid(rng, lo, hi, step_lo, step_hi, rows):
    """CLI flags for a grid of exactly ``rows`` rates starting in [lo, hi]."""
    rmin = round(rng.uniform(lo, hi), 4)
    step = round(rng.uniform(step_lo, step_hi), 4)
    rmax = rmin + (rows - 0.5) * step
    rates = [rmin + k * step for k in range(rows)]
    flags = ("--rmin", repr(rmin), "--rmax", repr(rmax), "--step", repr(step))
    return flags, rates


def _curve(rng, bound, L, rows, lo, hi, step_lo, step_hi):
    flags, rates = _rate_grid(rng, lo, hi, step_lo, step_hi, rows)
    args = ("curve", "--bound", bound, "--L", str(L)) + flags
    return Invocation("curve", args, {"bound": bound, "L": L, "rates": rates})


def _sweep_central(rng, tiny):
    rows = 3 if tiny else 25
    invs = [Invocation("table1", ("table1",))]
    for L in (3, 4, 11):
        invs.append(_curve(rng, "theorem1", L, rows, 0.02, 0.06, 0.030, 0.034))
    invs.append(_curve(rng, "blinovsky", rng.choice((3, 5, 7, 9, 11)), rows, 0.02, 0.06, 0.030, 0.034))
    invs.append(_curve(rng, "slope", rng.randint(2, 11), rows, 0.02, 0.06, 0.030, 0.034))
    for k in range(2 if tiny else 6):
        L = rng.randint(2, 12)
        R = round(rng.uniform(0.05, 0.9), 4)
        exponent = ("parametric", "binomial")[k % 2]
        args = ("witness", "--L", str(L), "--R", repr(R), "--exponent", exponent)
        invs.append(Invocation("witness", args, {"L": L, "R": R}))
    return invs


def _sweep_lp(rng, tiny):
    # Row cost depends on the rate (abl2 rows below rate ~0.45 skip r_lp2),
    # so every seed draws rates from the same narrow bands.
    rows = 1 if tiny else 3
    return [
        _curve(rng, "lp2", 1, rows, 0.12, 0.13, 0.26, 0.265),
        _curve(rng, "abl2", 2, rows, 0.22, 0.23, 0.29, 0.295),
        _curve(rng, "best", 1, rows, 0.12, 0.13, 0.26, 0.265),
    ]


def _verify(rng, tiny):
    n = rng.randint(5, 10)
    size = rng.randint(4, MAX_CODE_WORDS)
    words = sorted(rng.sample(range(1 << n), size))
    code_text = "".join(format(w, f"0{n}b") + "\n" for w in words)
    suite = "identities" if tiny else "all"
    return [
        Invocation("verify", ("verify", "--suite", suite, "--seed", str(rng.randrange(10**6)))),
        Invocation(
            "verify",
            ("verify", "--suite", "oracle", "--seed", str(rng.randrange(10**6)), "--code", "{code}"),
            files={"code": code_text},
        ),
    ]


_BUILDERS = {"sweep-central": _sweep_central, "sweep-lp": _sweep_lp, "verify": _verify}


def build(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """Invocations of one pass over ``workload``; the same seed gives the
    same invocations."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), tiny)


# ---------------------------------------------------------------------------
# output checks


def _number(text, problems, what):
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: not a number: {text!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{what}: not finite: {text!r}")
        return None
    return value


def _check_tau(tau, problems, what):
    if tau is not None and not 0.0 < tau < 0.5:
        problems.append(f"{what}: tau {tau!r} outside (0, 1/2)")


def _check_split(L, j, xi0, xi1, theta, problems, what):
    """The witness relation of ``check_witness_validity``."""
    if None in (xi0, xi1, theta):
        return
    value = bounds.split_avg_radius(L, j, xi0, xi1)
    if abs(value - theta) > 1e-8:
        problems.append(f"{what}: split_avg_radius {value!r} != theta {theta!r}")


def _check_table1(inv, lines, problems):
    rows = lines[1:]
    refs = bounds.reference_crossovers()
    if len(rows) != len(refs):
        problems.append(f"table1: {len(rows)} rows, expected {len(refs)}")
        return
    for line, (L, ref) in zip(rows, refs.items()):
        fields_ = line.split()
        if len(fields_) != 4 or fields_[0] != str(L):
            problems.append(f"table1: bad row {line!r}")
            continue
        got = _number(fields_[1], problems, f"table1 L={L}")
        if got is not None and abs(got - ref) > 0.002:
            problems.append(f"table1 L={L}: crossover {got} not within 0.002 of {ref}")


def _check_curve(inv, lines, problems):
    bound, L, rates = inv.params["bound"], inv.params["L"], inv.params["rates"]
    header = lines[0].split(",") if lines else []
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(rates):
        problems.append(f"{bound}: {len(rows)} rows, expected {len(rates)}")
        return
    prev = None
    for R, row in zip(rates, rows):
        what = f"{bound} L={L} R={R:.6g}"
        if len(row) != len(header) or any(not f for f in row):
            problems.append(f"{what}: empty or missing field in {','.join(row)!r}")
            continue
        rate = _number(row[0], problems, what)
        tau = _number(row[1], problems, what)
        if rate is not None and abs(rate - R) > 1e-9:
            problems.append(f"{what}: printed rate {rate!r}")
        _check_tau(tau, problems, what)
        if tau is None:
            continue
        if bound == "theorem1":
            xi0 = _number(row[2], problems, what)
            xi1 = _number(row[3], problems, what)
            _check_split(L, int(row[4]), xi0, xi1, tau, problems, what)
            if L == 3 and abs(tau - bounds.list3_closed_form(R)) > 1e-6:
                problems.append(f"{what}: differs from the list-3 closed form by more than 1e-6")
            slope = bounds.slope_relaxation_bound(L, R).tau
            if tau > slope + 1e-10:
                problems.append(f"{what}: above the slope relaxation {slope!r}")
            if prev is not None and tau > prev + 1e-10:
                problems.append(f"{what}: increases with the rate")
            prev = tau
        if bound in ("lp2", "best") and tau > lp.lp1_tau(R) + 1e-9:
            problems.append(f"{what}: above the first LP bound {lp.lp1_tau(R)!r}")
        if bound == "best" and row[2] not in ("lp1", "lp2"):
            problems.append(f"{what}: unexpected label {row[2]!r}")


def _check_witness(inv, lines, problems):
    L, R = inv.params["L"], inv.params["R"]
    what = f"witness L={L} R={R}"
    values = dict(line.split(" = ", 1) for line in lines if " = " in line)
    keys = ("L", "rate", "tau", "xi0", "xi1", "j", "beta", "r_prime")
    missing = [k for k in keys if not values.get(k)]
    if missing:
        problems.append(f"{what}: missing {missing}")
        return
    if values["L"] != str(L):
        problems.append(f"{what}: printed L {values['L']!r}")
    rate = _number(values["rate"], problems, what)
    if rate is not None and abs(rate - R) > 1e-9:
        problems.append(f"{what}: printed rate {rate!r}")
    tau = _number(values["tau"], problems, what)
    _check_tau(tau, problems, what)
    xi0 = _number(values["xi0"], problems, what)
    xi1 = _number(values["xi1"], problems, what)
    _check_split(L, int(values["j"]), xi0, xi1, tau, problems, what)


def _check_verify(inv, lines, problems):
    failing = [line for line in lines if line.startswith("[FAIL]")]
    if failing:
        problems.append(f"verify: {failing}")
    last = lines[-1] if lines else ""
    passed, _, rest = last.partition("/")
    total = rest.split(" ", 1)[0]
    if not (last.endswith("checks passed") and passed.isdigit() and passed == total and int(total) > 0):
        problems.append(f"verify: summary line {last!r}")


_CHECKS = {
    "table1": _check_table1,
    "curve": _check_curve,
    "witness": _check_witness,
    "verify": _check_verify,
}


def check_output(inv: Invocation, returncode: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Problems with one invocation's result; empty when it is valid."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stderr.strip():
        problems.append(f"stderr: {stderr.decode(errors='replace').strip()[:200]}")
    try:
        lines = stdout.decode("ascii").splitlines()
    except UnicodeDecodeError:
        return problems + ["stdout is not ASCII"]
    try:
        _CHECKS[inv.kind](inv, lines, problems)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems
