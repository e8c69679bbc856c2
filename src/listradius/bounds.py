"""Upper bounds on the list-decoding radius as functions of the rate.

The central evaluator maximizes the split average-radius expression over
the shift count j, the sphere radius xi0 and the induced intersection
parameter xi1; the other entries are the Catalan-sum bound, the explicit
list-3 closed form, the concavity relaxation and the curve/crossover
plumbing built on top.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from math import comb, log2
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    admissible_j,
    avg_radius_evaluator,
    avg_radius_poly,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    krawtchouk_exponent_value,
)
from .errors import DomainError, NoSolutionError, check_list_size, check_rate
from .lp import abl2_tau, lp1_tau, lp2_tau
from .solve import brent_max, brent_root

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BOUNDS",
    "BoundSpec",
    "CrossoverResult",
    "CurvePoint",
    "RadiusWitness",
    "SlopeBound",
    "best_upper_bound",
    "blinovsky_bound",
    "crossover_rate",
    "list3_closed_form",
    "list3_parameters",
    "list_radius_bound",
    "sample_curve",
    "slope_relaxation_bound",
    "solve_xi1",
    "split_avg_radius",
    "zero_rate_radius",
]

# Largest list sizes whose integer coefficients still convert to floats:
# the Catalan numbers of blinovsky_bound overflow from L = 1041 on, the
# binomial terms of avg_radius_poly (behind theorem1, slope and best) from
# L = 1026 on.
MAX_CATALAN_L = 1040
MAX_POLY_L = 1025

# Stopping width of the xi1 solver's bracket and Newton step.
_XI1_TOL = 1e-12

# Iteration cap of the xi1 solver: past the ~40 halvings that take the
# bracket from 1/2 to _XI1_TOL, and the only exit when _XI1_TOL is below
# the float spacing of the root.
_NEWTON_MAX_ITER = 100

# Absolute tolerance in xi0 of the Brent refinement of the central bound.
_REFINE_TOL = 1e-10

# xi0 grid points of the central bound scan over the feasible xi0
# interval; the grid only brackets each j's maximizer for the refinement.
_GRID_POINTS = 16


class RadiusWitness(NamedTuple):
    """Maximizing parameters of the central bound at one rate."""

    xi0: float
    xi1: float
    j: int
    theta: float
    beta: float
    r_prime: float


class CrossoverResult(NamedTuple):
    """Largest rate at which the central bound still matches or beats the
    Catalan-sum bound."""

    L: int
    r_cross: float
    tau_at_cross: float


class SlopeBound(NamedTuple):
    """Concavity relaxation: max over j of the average-radius polynomial
    evaluated at the first LP distance."""

    tau: float
    tau_j1: float | None
    j_star: int
    max_at_j1: bool


class CurvePoint(NamedTuple):
    rate: float
    tau: float | None
    witness: RadiusWitness | None = None
    label: str | None = None
    note: str | None = None


def _checked_beta(beta) -> float:
    beta = float(beta)
    if not 0.0 < beta < 0.5:
        raise DomainError(f"beta must lie in (0, 1/2), got {beta}")
    return beta


def _check_float_cap(L: int, cap: int):
    if L > cap:
        raise DomainError(
            f"list size {L} exceeds {cap}, the largest with float-sized coefficients"
        )


def blinovsky_bound(L: int, R: float) -> float:
    """Catalan-weighted sum bound on the list-L radius at rate R, with the
    sphere parameter lam solving R = 1 - h(lam)."""
    check_list_size(L)
    _check_float_cap(L, MAX_CATALAN_L)
    R = check_rate(R, closed=True)
    lam = inverse_entropy(1.0 - R)
    x = lam * (1.0 - lam)
    total = 0.0
    for i in range(1, (L + 1) // 2 + 1):
        total += (comb(2 * i - 2, i - 1) // i) * x**i
    return total


def zero_rate_radius(L: int) -> Fraction:
    """Exact zero-rate list-L radius for odd L:
    1/2 - 2^-(L+1) * C(L, (L-1)/2)."""
    check_list_size(L)
    if L % 2 == 0:
        raise DomainError(f"zero-rate radius formula requires odd L, got {L}")
    from fractions import Fraction

    return Fraction(1, 2) - Fraction(comb(L, (L - 1) // 2), 2 ** (L + 1))


def solve_xi1(xi0: float, r_prime: float) -> float:
    """Unique xi1 in [0, 2 xi0 (1 - xi0)] with
    r_prime = h(xi0) - xi0 h(xi1/(2 xi0)) - (1-xi0) h(xi1/(2(1-xi0))).

    The right-hand side is convex in xi1 and decreases from h(xi0) at 0 to
    0 at the upper endpoint, with slope -(log2((1-p)/p) + log2((1-q)/q))/2,
    p = xi1/(2 xi0), q = xi1/(2(1-xi0)).  Both endpoint roots are returned
    directly (the slope vanishes at the upper one).  Between them, Newton
    steps run inside a bisection bracket and fall back to its midpoint
    when they leave it, until the bracket or the step is below
    ``_XI1_TOL`` (1e-12).
    """
    xi0 = float(xi0)
    if not 0.0 < xi0 < 1.0:
        raise DomainError(f"xi0 must lie in (0, 1), got {xi0}")
    h0 = binary_entropy(xi0)
    rp = float(r_prime)
    # negated range check, so that NaN fails it too
    if not (-1e-9 <= rp <= h0 + 1e-9):
        raise NoSolutionError(
            f"no xi1 solution: r_prime={r_prime} outside [0, h(xi0)={h0}]"
        )
    return _solve_xi1(xi0, h0, rp)


def _solve_xi1(xi0: float, h0: float, rp: float) -> float:
    """:func:`solve_xi1` without its checks, for a caller that already has
    h0 = h(xi0); r_prime at or below 0 gives the upper endpoint, at or
    above h0 gives 0."""
    xi0c, d0 = 1.0 - xi0, 2.0 * xi0
    top = d0 * xi0c
    if rp >= h0:
        return 0.0
    if rp <= 0.0:
        return top
    d1 = 2.0 * xi0c
    tol = _XI1_TOL
    lo, hi = 0.0, top
    x = 0.5 * top
    for _ in range(_NEWTON_MAX_ITER):
        # the right-hand side minus rp at xi1 = x, and its slope in x
        p, q = x / d0, x / d1
        pc, qc = 1.0 - p, 1.0 - q
        lp, lq = log2(p), log2(q)
        lp1, lq1 = log2(pc), log2(qc)
        g = h0 + xi0 * (p * lp + pc * lp1) + xi0c * (q * lq + qc * lq1) - rp
        slope = 0.5 * (lp + lq - lp1 - lq1)
        if g >= 0.0:
            lo = x
        else:
            hi = x
        step = g / slope if slope < 0.0 else math.inf
        if abs(step) <= tol:
            return min(max(x - step, lo), hi)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
    return x


def _split_args(xi0, xi1):
    """Polynomial arguments 1 - xi1/(2 xi0) and xi1/(2(1-xi0)) of the split
    average radius, clipped to [0, 1]."""
    a1 = 1.0 - xi1 / (2.0 * xi0)
    a2 = xi1 / (2.0 * (1.0 - xi0))
    return min(max(a1, 0.0), 1.0), min(max(a2, 0.0), 1.0)


def split_avg_radius(L: int, j: int, xi0, xi1):
    """Two-piece average-radius value
    xi0 * poly(1 - xi1/(2 xi0)) + (1-xi0) * poly(xi1/(2(1-xi0)))."""
    a1, a2 = _split_args(xi0, xi1)
    return xi0 * avg_radius_poly(L, j, a1) + (1.0 - xi0) * avg_radius_poly(L, j, a2)


EXPONENT_MODES = ("parametric", "binomial")


def _subcode_rate(R, beta, hbeta, xi0, exponent):
    """Subcode rate R + h(beta) - 2E(xi0) under the chosen exponent
    treatment, which list_radius_bound has checked.

    "parametric" evaluates the Krawtchouk exponent exactly; "binomial"
    substitutes its upper estimate (1 + h(beta) - h(xi0))/2, which weakens
    the bound monotonically and is the evaluation behind the published
    crossover table.
    """
    if exponent == "binomial":
        return R + binary_entropy(xi0) - 1.0
    return R + hbeta - 2.0 * krawtchouk_exponent_value(beta, xi0)


def _solve_at(R, beta, hbeta, exponent, x):
    """(xi1, r_prime, *_split_args) at xi0 = x; xi1 is 0 where the subcode
    rate is negative, and r_prime is reported under the chosen exponent."""
    rp = _subcode_rate(R, beta, hbeta, x, exponent)
    xi1 = 0.0 if rp < -1e-12 else _solve_xi1(x, binary_entropy(x), max(rp, 0.0))
    return (xi1, rp, *_split_args(x, xi1))


def _xi0_grid(R, xi_max, exponent, n):
    """n xi0 spread evenly over the feasible interval, from one step above
    its start to exactly xi_max.  The subcode rate rises in xi0, so the
    feasible xi0 form one interval up to xi_max: all of (0, xi_max] for the
    exact exponent, from h^-1(1 - R) on for the binomial estimate."""
    start = min(inverse_entropy(1.0 - R), xi_max) if exponent == "binomial" else 0.0
    step = (xi_max - start) / n
    return tuple(xi_max - (n - k) * step for k in range(1, n + 1))


# Keyed on beta as passed (None for the default), so a hit skips resolving
# it too.  Exceptions are not cached: a bad input raises on every call.
@functools.lru_cache(maxsize=32)
def _rate_geometry(R, beta, exponent):
    """The half of :func:`list_radius_bound` that depends on the rate, beta
    and exponent but not on L or j: the resolved beta, the xi0 grid ``xs``
    and ``solve``, :func:`_solve_at` at this rate, memoized for the grid and
    every refinement point so far by the calls that share it.  Each value
    depends on its xi0 alone, so a call gets the numbers it would compute
    itself, whatever ran before it."""
    beta = _checked_beta(inverse_entropy(R) if beta is None else beta)
    hbeta = binary_entropy(beta)
    if hbeta > R + 1e-9:
        raise DomainError(f"h(beta)={hbeta} exceeds rate {R}")
    xs = _xi0_grid(R, 0.5 - math.sqrt(beta * (1.0 - beta)), exponent, _GRID_POINTS)
    solve = functools.cache(functools.partial(_solve_at, R, beta, hbeta, exponent))
    if not any(solve(x)[1] >= -1e-12 for x in xs):
        raise NoSolutionError("no admissible xi0: subcode rate negative everywhere")
    return beta, xs, solve


def _objective(solve, poly):
    """The central objective in xi0, split_avg_radius(L, j, xi0, xi1), for
    poly the evaluator of (L, j) and solve a :func:`_rate_geometry`'s; -inf
    where the subcode rate is negative."""

    def theta(x):
        _, rp, a1, a2 = solve(x)
        if rp < -1e-12:
            return -math.inf
        return x * poly(a1) + (1.0 - x) * poly(a2)

    return theta


def list_radius_bound(
    L: int,
    R: float,
    beta: float | None = None,
    exponent: str = "parametric",
) -> tuple[float, RadiusWitness]:
    """Central upper bound on the list-L decoding radius at rate R.

    For every admissible shift count j and every sphere radius xi0 up to
    1/2 - sqrt(beta(1-beta)), the subcode rate R + h(beta) - 2E_beta(xi0)
    determines the intersection parameter xi1, and the split average-radius
    value is maximized.  Search is :func:`solve.brent_max` per j from a scan
    of the feasible xi0 interval, whose endpoint is a grid point.  xi1
    depends on xi0 only, and neither depends on L or j: the grid and the
    xi1 of every grid and refinement point are kept per (R, beta, exponent)
    in :func:`_rate_geometry` and shared by every list size at that rate.

    beta defaults to h(beta) = R.  xi0 with negative subcode rate are
    excluded; subcode rates above h(xi0) clamp xi1 to 0.  ``exponent``
    selects the treatment of the Krawtchouk exponent (see
    :func:`_subcode_rate`); the witness r_prime is reported under the
    selected treatment.
    """
    if not isinstance(L, int) or L < 2:
        raise DomainError(f"list size must be an integer >= 2, got {L}")
    _check_float_cap(L, MAX_POLY_L)
    if exponent not in EXPONENT_MODES:
        raise DomainError(f"unknown exponent mode {exponent!r}")
    R = check_rate(R)
    beta, xs, solve = _rate_geometry(R, None if beta is None else float(beta), exponent)
    best = None
    for j in admissible_j(L):
        theta = _objective(solve, avg_radius_evaluator(L, j))
        xi0, t = brent_max(theta, xs, [theta(x) for x in xs], _REFINE_TOL)
        if best is None or t > best[0]:
            best = (t, xi0, j)

    theta_star, xi0_star, j_star = best
    xi1_star, rp_star = solve(xi0_star)[:2]
    witness = RadiusWitness(
        xi0=xi0_star,
        xi1=xi1_star,
        j=j_star,
        theta=theta_star,
        beta=beta,
        r_prime=rp_star,
    )
    return theta_star, witness


def list3_parameters(R: float) -> tuple[float, float]:
    """(delta, xi1) of the explicit list-3 bound: delta from the rate
    relation R = h(1/2 - sqrt(delta(1-delta))), xi1 from
    R = 1 - delta h(xi1/(2 delta)) - (1-delta) h(xi1/(2(1-delta))), which is
    the xi1 equation at xi0 = delta with r_prime = R - 1 + h(delta)."""
    R = check_rate(R)
    delta = delta_lp1(R)
    return delta, solve_xi1(delta, R - 1.0 + binary_entropy(delta))


def list3_closed_form(R: float) -> float:
    """Explicit cubic form of the list-3 bound:
    (3/4) delta - ((2 delta - xi1)^3 / delta^2 + xi1^3 / (1-delta)^2) / 16."""
    delta, xi1 = list3_parameters(R)
    return 0.75 * delta - (
        (2.0 * delta - xi1) ** 3 / delta**2 + xi1**3 / (1.0 - delta) ** 2
    ) / 16.0


def slope_relaxation_bound(L: int, R: float) -> SlopeBound:
    """Concavity relaxation of the central bound: max over admissible j of
    the average-radius polynomial at the first LP distance.

    Valid for every L; for odd L the j = 1 value is also reported since the
    maximum sits there for all small rates.
    """
    check_list_size(L)
    _check_float_cap(L, MAX_POLY_L)
    R = check_rate(R, closed=True)
    x = delta_lp1(R)
    values = {j: avg_radius_poly(L, j, x) for j in admissible_j(L)}
    j_star = max(values, key=values.get)
    tau_j1 = values.get(1)
    return SlopeBound(
        tau=values[j_star],
        tau_j1=tau_j1,
        j_star=j_star,
        max_at_j1=j_star == 1,
    )


_REFERENCE_CROSSOVERS = {3: 0.361, 5: 0.248, 7: 0.184, 9: 0.136, 11: 0.100}


def reference_crossovers() -> dict[int, float]:
    """Published crossover rates used as acceptance anchors."""
    return dict(_REFERENCE_CROSSOVERS)


# Rates of the top-down crossover scan, 0.02, then 0.1 to 0.9 at steps of
# 0.1 as np.arange(0.1, 0.95, 0.1) forms them, then 0.99; and the width at
# which the root finder after it stops.
_CROSSOVER_SCAN = (
    0.02, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9,
    0.99,
)
_CROSSOVER_R_TOL = 1e-5


@functools.lru_cache(maxsize=16, typed=True)
def crossover_rate(L: int) -> CrossoverResult:
    """Largest rate at which the central bound is at most the Catalan-sum
    bound, found by a coarse top-down scan and a Brent-Dekker root finder
    on their difference.  Memoized per L and its type (``typed=True``, so
    a float L is not answered from an int entry): the result is frozen,
    and verification asks for each L more than once.  Exceptions are not
    cached: a bad L raises on every call.

    The central bound is evaluated with the binomial exponent estimate:
    the published crossover table was computed that way, and for small L
    the two treatments agree at the crossover because the maximizer sits
    at the xi0 endpoint where the estimate is exact.
    """
    if not isinstance(L, int) or L < 3 or L % 2 == 0:
        raise DomainError(f"crossover rates are computed for odd L >= 3, got {L}")
    central = {}

    def margin(R):
        # >= 0 exactly where the central bound wins
        central[R] = list_radius_bound(L, R, exponent="binomial")[0]
        return blinovsky_bound(L, R) - central[R]

    # top-down scan: the first rate where the central bound wins and the
    # scan point above it bracket the crossover
    hi = None
    for lo in reversed(_CROSSOVER_SCAN):
        g_lo = margin(lo)
        if g_lo >= 0.0:
            break
        hi, g_hi = lo, g_lo
    else:
        raise NoSolutionError(f"central bound never beats the Catalan sum for L={L}")
    if hi is None:
        r_cross = lo
    else:
        r_cross = brent_root(margin, lo, hi, _CROSSOVER_R_TOL, g_lo=g_lo, g_hi=g_hi)[0]
    return CrossoverResult(L=L, r_cross=r_cross, tau_at_cross=central[r_cross])


def best_upper_bound(L: int, R: float) -> tuple[float, str]:
    """Minimum over the bounds applicable at list size L, with the winner
    labeled: LP bounds for L = 1, the list-2 bound for L = 2, the central
    and Catalan-sum bounds for every L >= 2."""
    check_list_size(L)
    R = check_rate(R)
    if L == 1:
        tau1 = lp1_tau(R)
        tau2 = lp2_tau(R)
        # equal up to rounding below R ~ 0.305, so lp2 must win by a relative margin
        if tau2 < tau1 * (1 - 1e-9):
            return tau2, "lp2"
        return tau1, "lp1"
    candidates = [
        (list_radius_bound(L, R)[0], "theorem1"),
        (blinovsky_bound(L, R), "blinovsky"),
    ]
    if L == 2:
        candidates.append((abl2_tau(R), "abl2"))
    return min(candidates, key=lambda t: t[0])


class BoundSpec(NamedTuple):
    """One bound of :data:`BOUNDS`: the list sizes it accepts, the CSV
    columns it adds after ``rate,tau``, and its row evaluator, called as
    ``row(L, R, beta=)`` and returning ``(tau, witness, label)``."""

    min_L: int
    max_L: int
    columns: tuple[str, ...]
    row: Callable


def _theorem1_row(L, R, beta):
    tau, witness = list_radius_bound(L, R, beta=beta)
    return tau, witness, None


def _best_row(L, R, **_):
    tau, label = best_upper_bound(L, R)
    return tau, None, label


# The evaluators name their bound function in their body, so that a wrapper
# installed as a module attribute (perfbench/tracer.py) is the one called.
BOUNDS = {
    "theorem1": BoundSpec(2, MAX_POLY_L, ("xi0", "xi1", "j"), _theorem1_row),
    "blinovsky": BoundSpec(
        2, MAX_CATALAN_L, (), lambda L, R, **_: (blinovsky_bound(L, R), None, None)
    ),
    "abl2": BoundSpec(2, 2, (), lambda L, R, **_: (abl2_tau(R), None, None)),
    "lp1": BoundSpec(1, 1, (), lambda L, R, **_: (lp1_tau(R), None, None)),
    "lp2": BoundSpec(1, 1, (), lambda L, R, **_: (lp2_tau(R), None, None)),
    "slope": BoundSpec(
        1, MAX_POLY_L, (),
        lambda L, R, **_: (slope_relaxation_bound(L, R).tau, None, None),
    ),
    "best": BoundSpec(1, MAX_POLY_L, ("label",), _best_row),
}


def sample_curve(
    bound: str, L: int, rates, beta: float | None = None
) -> tuple[CurvePoint, ...]:
    """Evaluate one bound over a rate grid; rows that fail their domain
    checks are recorded with a note instead of aborting the sweep.  A list
    size outside the bound's range, and an explicit beta, which applies to
    theorem1 only, are checked before the sweep."""
    spec = BOUNDS.get(bound)
    if spec is None:
        raise DomainError(f"unknown bound {bound!r}")
    if spec.min_L == spec.max_L != L:
        raise DomainError(f"bound {bound} requires L = {spec.min_L}")
    if L < spec.min_L:
        raise DomainError(f"bound {bound} requires L >= {spec.min_L}")
    _check_float_cap(L, spec.max_L)
    if beta is not None:
        if bound != "theorem1":
            raise DomainError(f"bound {bound} takes no beta")
        beta = _checked_beta(beta)
    points = []
    for R in rates:
        R = float(R)
        try:
            tau, witness, label = spec.row(L, R, beta=beta)
            note = None
        except (DomainError, NoSolutionError) as exc:
            tau, witness, label, note = None, None, None, str(exc)
        points.append(CurvePoint(rate=R, tau=tau, witness=witness, label=label, note=note))
    return tuple(points)
