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
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .core import (
    admissible_j,
    avg_radius_evaluator,
    avg_radius_poly,
    avg_radius_polys,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    krawtchouk_exponent_value,
)
from .errors import DomainError, NoSolutionError
from .lp import abl2_tau, lp1_tau, lp2_tau
from .solve import bisect, golden_max

__all__ = [
    "BOUNDS",
    "BoundCurve",
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

# Iteration cap of the xi1 solvers: past the ~40 halvings that take the
# bracket from 1/2 to 1e-12, and the only exit when tol is below the float
# spacing of the root.
_NEWTON_MAX_ITER = 100

# Width at which the golden-section refinement of the central bound stops.
_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class RadiusWitness:
    """Maximizing parameters of the central bound at one rate."""

    xi0: float
    xi1: float
    j: int
    theta: float
    beta: float
    r_prime: float


@dataclass(frozen=True)
class CrossoverResult:
    """Largest rate at which the central bound still matches or beats the
    Catalan-sum bound."""

    L: int
    r_cross: float
    tau_at_cross: float


@dataclass(frozen=True)
class SlopeBound:
    """Concavity relaxation: max over j of the average-radius polynomial
    evaluated at the first LP distance."""

    tau: float
    tau_j1: float | None
    j_star: int
    max_at_j1: bool


@dataclass(frozen=True)
class CurvePoint:
    rate: float
    tau: float | None
    witness: RadiusWitness | None = None
    label: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class BoundCurve:
    bound: str
    L: int
    points: tuple[CurvePoint, ...]


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
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    _check_float_cap(L, MAX_CATALAN_L)
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise DomainError(f"rate must lie in [0, 1], got {R}")
    lam = inverse_entropy(1.0 - R)
    x = lam * (1.0 - lam)
    total = 0.0
    for i in range(1, (L + 1) // 2 + 1):
        total += (comb(2 * i - 2, i - 1) // i) * x**i
    return total


def zero_rate_radius(L: int) -> Fraction:
    """Exact zero-rate list-L radius for odd L:
    1/2 - 2^-(L+1) * C(L, (L-1)/2)."""
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    if L % 2 == 0:
        raise DomainError(f"zero-rate radius formula requires odd L, got {L}")
    return Fraction(1, 2) - Fraction(comb(L, (L - 1) // 2), 2 ** (L + 1))


def _xi1_residual(x, xi0, xi0c, d0, d1, h0, r_prime, log2):
    """Right-hand side of the xi1 equation minus r_prime at xi1 = x, and
    its slope in x.  The solvers pass the per-xi0 invariants xi0c = 1 - xi0,
    d0 = 2 xi0 and d1 = 2 (1 - xi0) from outside their iteration; ``log2``
    is math.log2 for floats, np.log2 for arrays."""
    p, q = x / d0, x / d1
    pc, qc = 1.0 - p, 1.0 - q
    lp, lq = log2(p), log2(q)
    lp1, lq1 = log2(pc), log2(qc)
    g = h0 + xi0 * (p * lp + pc * lp1) + xi0c * (q * lq + qc * lq1) - r_prime
    return g, 0.5 * (lp + lq - lp1 - lq1)


def solve_xi1(xi0: float, r_prime: float, tol: float = 1e-12) -> float:
    """Unique xi1 in [0, 2 xi0 (1 - xi0)] with
    r_prime = h(xi0) - xi0 h(xi1/(2 xi0)) - (1-xi0) h(xi1/(2(1-xi0))).

    The right-hand side is convex in xi1 and decreases from h(xi0) at 0 to
    0 at the upper endpoint, with slope -(log2((1-p)/p) + log2((1-q)/q))/2,
    p = xi1/(2 xi0), q = xi1/(2(1-xi0)).  Both endpoint roots are returned
    directly (the slope vanishes at the upper one).  Between them, Newton
    steps run inside a bisection bracket and fall back to its midpoint
    when they leave it, until the bracket or the step is below ``tol``.
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
    xi0c, d0 = 1.0 - xi0, 2.0 * xi0
    top = d0 * xi0c
    if rp >= h0:
        return 0.0
    if rp <= 0.0:
        return top
    d1 = 2.0 * xi0c
    lo, hi = 0.0, top
    x = 0.5 * top
    for _ in range(_NEWTON_MAX_ITER):
        g, slope = _xi1_residual(x, xi0, xi0c, d0, d1, h0, rp, math.log2)
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


def _solve_xi1_vec(xi0: np.ndarray, r_prime: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Array form of :func:`solve_xi1`, the same iteration elementwise;
    r_prime at or below 0 gives the upper endpoint, at or above h(xi0)
    gives 0, and NaN is not checked for.

    Only the points strictly between the endpoint roots iterate, on arrays
    compressed to them, and a point leaves them in the pass in which it
    stops; 1 - xi0, 2 xi0 and 2 (1 - xi0) are formed once, outside the loop.
    """
    h0 = binary_entropy(xi0)
    xi0c, d0 = 1.0 - xi0, 2.0 * xi0
    top = d0 * xi0c
    x = 0.5 * top
    idx = np.flatnonzero((r_prime > 0.0) & (r_prime < h0))
    inv = np.stack((xi0[idx], xi0c[idx], d0[idx], 2.0 * xi0c[idx], h0[idx], r_prime[idx]))
    xa, lo, hi = x[idx], np.zeros(idx.size), top[idx]
    # a point at a bracket end may take log2(0) or divide by a zero slope
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if not idx.size:
                break
            g, slope = _xi1_residual(xa, *inv, np.log2)
            step = np.where(slope < 0.0, g / slope, np.inf)
            up = g >= 0.0
            np.copyto(lo, xa, where=up)
            np.copyto(hi, xa, where=~up)
            small = np.abs(step) <= tol
            x_new = xa - step
            xa = np.where(
                small,
                np.minimum(np.maximum(x_new, lo), hi),
                np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi)),
            )
            stop = small | (hi - lo <= tol)
            if stop.any():
                x[idx] = xa
                keep = ~stop
                idx, xa, lo, hi, inv = idx[keep], xa[keep], lo[keep], hi[keep], inv[:, keep]
    x[idx] = xa
    return np.where(r_prime >= h0, 0.0, np.where(r_prime <= 0.0, top, x))


def _split_args(xi0, xi1):
    """Polynomial arguments 1 - xi1/(2 xi0) and xi1/(2(1-xi0)) of the split
    average radius, clipped to [0, 1]; floats or numpy arrays."""
    a1 = 1.0 - xi1 / (2.0 * xi0)
    a2 = xi1 / (2.0 * (1.0 - xi0))
    if isinstance(a1, np.ndarray):
        return np.clip(a1, 0.0, 1.0), np.clip(a2, 0.0, 1.0)
    return min(max(a1, 0.0), 1.0), min(max(a2, 0.0), 1.0)


def split_avg_radius(L: int, j: int, xi0, xi1):
    """Two-piece average-radius value
    xi0 * poly(1 - xi1/(2 xi0)) + (1-xi0) * poly(xi1/(2(1-xi0)));
    works on floats and numpy arrays."""
    a1, a2 = _split_args(xi0, xi1)
    return xi0 * avg_radius_poly(L, j, a1) + (1.0 - xi0) * avg_radius_poly(L, j, a2)


EXPONENT_MODES = ("parametric", "binomial")


def _subcode_rate(R, beta, hbeta, xi0, exponent):
    """Subcode rate R + h(beta) - 2E(xi0) under the chosen exponent
    treatment.

    "parametric" evaluates the Krawtchouk exponent exactly; "binomial"
    substitutes its upper estimate (1 + h(beta) - h(xi0))/2, which weakens
    the bound monotonically and is the evaluation behind the published
    crossover table.  Works on floats and numpy arrays.
    """
    if exponent == "parametric":
        return R + hbeta - 2.0 * krawtchouk_exponent_value(beta, xi0)
    if exponent == "binomial":
        return R + binary_entropy(xi0) - 1.0
    raise DomainError(f"unknown exponent mode {exponent!r}")


def list_radius_bound(
    L: int,
    R: float,
    beta: float | None = None,
    grid: int = 2000,
    bisect_tol: float = 1e-12,
    exponent: str = "parametric",
) -> tuple[float, RadiusWitness]:
    """Central upper bound on the list-L decoding radius at rate R.

    For every admissible shift count j and every sphere radius xi0 up to
    1/2 - sqrt(beta(1-beta)), the subcode rate R + h(beta) - 2E_beta(xi0)
    determines the intersection parameter xi1, and the split average-radius
    value is maximized.  Search is a dense xi0 grid followed by
    golden-section refinement around the best cell, per j; domain
    endpoints are always evaluated explicitly.  xi1 depends on xi0 only,
    so each xi0 is solved once per call and shared across j.

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
    R = float(R)
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    beta = _checked_beta(inverse_entropy(R) if beta is None else beta)
    hbeta = binary_entropy(beta)
    if hbeta > R + 1e-9:
        raise DomainError(f"h(beta)={hbeta} exceeds rate {R}")
    xi_max = 0.5 - math.sqrt(beta * (1.0 - beta))

    xs = np.linspace(xi_max / grid, xi_max, grid)
    rp = _subcode_rate(R, beta, hbeta, xs, exponent)
    feasible = rp >= -1e-12
    if not np.any(feasible):
        raise NoSolutionError("no admissible xi0: subcode rate negative everywhere")
    xi1 = _solve_xi1_vec(xs, rp, bisect_tol)

    js = admissible_j(L)
    polys = {j: avg_radius_evaluator(L, j) for j in js}
    solved = {}  # xi0 -> (xi1, r_prime)

    def theta_at(x, j):
        """Objective at one (xi0, j), split_avg_radius(L, j, x, xi1) on
        floats; -inf where the subcode rate is negative."""
        if x not in solved:
            rp_x = _subcode_rate(R, beta, hbeta, x, exponent)
            if rp_x < -1e-12 or rp_x >= binary_entropy(x):
                xi1_x = 0.0
            else:
                xi1_x = solve_xi1(x, max(rp_x, 0.0), bisect_tol)
            solved[x] = (xi1_x, rp_x)
        xi1_x, rp_x = solved[x]
        if rp_x < -1e-12:
            return -math.inf
        a1, a2 = _split_args(x, xi1_x)
        poly = polys[j]
        return x * poly(a1) + (1.0 - x) * poly(a2)

    # split_avg_radius on the grid for every j at once
    a1, a2 = _split_args(xs, xi1)
    grid_thetas = [
        xs * p1 + (1.0 - xs) * p2
        for p1, p2 in zip(avg_radius_polys(L, js, a1), avg_radius_polys(L, js, a2))
    ]

    best: tuple[float, float, float, float, int] | None = None
    for j, theta in zip(js, grid_thetas):
        theta = np.where(feasible, theta, -np.inf)
        k = int(np.argmax(theta))
        lo = float(xs[max(k - 1, 0)])
        hi = float(xs[min(k + 1, grid - 1)])
        t_end = theta_at(xi_max, j)
        # Grid maximum at the xi_max endpoint: if the objective does not
        # rise towards xi_max over the last _REFINE_TOL, a unimodal bracket
        # has its maximum within _REFINE_TOL of xi_max, which is all that
        # golden section would establish.
        if k == grid - 1 and theta_at(max(xi_max - _REFINE_TOL, lo), j) <= t_end:
            x_ref, t_ref = xi_max, t_end
        else:
            x_ref, t_ref = golden_max(
                lambda x, j=j: theta_at(x, j), lo, hi, _REFINE_TOL
            )
        t_bestj, x_bestj = max(
            (t_ref, x_ref), (float(theta[k]), float(xs[k])), (t_end, xi_max)
        )
        if best is None or t_bestj > best[0]:
            theta_b = theta_at(x_bestj, j)
            best = (theta_b, x_bestj, *solved[x_bestj], j)

    theta_star, xi0_star, xi1_star, rp_star, j_star = best
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
    R = float(R)
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
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
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    _check_float_cap(L, MAX_POLY_L)
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise DomainError(f"rate must lie in [0, 1], got {R}")
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


# Rate step of the top-down crossover scan, and the width at which the
# bisection after it stops.
_CROSSOVER_SCAN_STEP = 0.02
_CROSSOVER_R_TOL = 1e-5


def crossover_rate(
    L: int, grid: int = 2000, exponent: str = "binomial"
) -> CrossoverResult:
    """Largest rate at which the central bound is at most the Catalan-sum
    bound, found by scan plus bisection on their difference.  Memoized:
    the result is frozen, and verification asks for each L more than once.

    Defaults to the binomial exponent estimate: the published crossover
    table was computed that way, and for small L the two treatments agree
    at the crossover because the maximizer sits at the xi0 endpoint where
    the estimate is exact.
    """
    if not isinstance(L, int) or L < 3 or L % 2 == 0:
        raise DomainError(f"crossover rates are computed for odd L >= 3, got {L}")
    return _crossover_rate(L, grid, exponent)


# Keyed on positional arguments after the defaults are applied, so that
# crossover_rate(3) and crossover_rate(3, grid=2000) share one entry.
@functools.lru_cache(maxsize=16, typed=True)
def _crossover_rate(L, grid, exponent) -> CrossoverResult:
    def central_wins(R):
        central = list_radius_bound(L, R, grid=grid, exponent=exponent)[0]
        return central - blinovsky_bound(L, R) <= 0.0

    # top-down scan: the first rate where the central bound wins and the
    # scan point above it (or 0.99) bracket the crossover
    rs = np.arange(_CROSSOVER_SCAN_STEP, 0.99, _CROSSOVER_SCAN_STEP).tolist() + [0.99]
    i = next((i for i in range(len(rs) - 2, -1, -1) if central_wins(rs[i])), None)
    if i is None:
        raise NoSolutionError(f"central bound never beats the Catalan sum for L={L}")
    lo, hi = rs[i], rs[i + 1]
    if central_wins(hi):
        r_cross = hi
    else:
        r_cross = bisect(central_wins, lo, hi, _CROSSOVER_R_TOL)[0]
    tau = list_radius_bound(L, r_cross, grid=grid, exponent=exponent)[0]
    return CrossoverResult(L=L, r_cross=r_cross, tau_at_cross=tau)


def best_upper_bound(
    L: int, R: float, grid: int = 2000, lp2_grid: int = 400
) -> tuple[float, str]:
    """Minimum over the bounds applicable at list size L, with the winner
    labeled: LP bounds for L = 1, the list-2 bound for L = 2, the central
    and Catalan-sum bounds for every L >= 2."""
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    R = float(R)
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    if L == 1:
        tau1 = lp1_tau(R)
        tau2 = lp2_tau(R, grid=lp2_grid)
        if tau2 < tau1 - 1e-9:
            return tau2, "lp2"
        return tau1, "lp1"
    candidates = [
        (list_radius_bound(L, R, grid=grid)[0], "theorem1"),
        (blinovsky_bound(L, R), "blinovsky"),
    ]
    if L == 2:
        candidates.append((abl2_tau(R, grid=lp2_grid), "abl2"))
    return min(candidates, key=lambda t: t[0])


@dataclass(frozen=True)
class BoundSpec:
    """One bound of :data:`BOUNDS`: the list sizes it accepts, the CSV
    columns it adds after ``rate,tau``, and its row evaluator, called as
    ``row(L, R, beta=, grid=, lp2_grid=, bisect_tol=)`` and returning
    ``(tau, witness, label)``."""

    min_L: int
    max_L: int
    columns: tuple[str, ...]
    row: Callable


def _theorem1_row(L, R, beta, grid, bisect_tol, **_):
    tau, witness = list_radius_bound(L, R, beta=beta, grid=grid, bisect_tol=bisect_tol)
    return tau, witness, None


def _best_row(L, R, grid, lp2_grid, **_):
    tau, label = best_upper_bound(L, R, grid=grid, lp2_grid=lp2_grid)
    return tau, None, label


# The evaluators name their bound function in their body, so that a wrapper
# installed as a module attribute (perfbench/tracer.py) is the one called.
BOUNDS = {
    "theorem1": BoundSpec(2, MAX_POLY_L, ("xi0", "xi1", "j"), _theorem1_row),
    "blinovsky": BoundSpec(
        2, MAX_CATALAN_L, (), lambda L, R, **_: (blinovsky_bound(L, R), None, None)
    ),
    "abl2": BoundSpec(
        2, 2, (), lambda L, R, lp2_grid, **_: (abl2_tau(R, grid=lp2_grid), None, None)
    ),
    "lp1": BoundSpec(1, 1, (), lambda L, R, **_: (lp1_tau(R), None, None)),
    "lp2": BoundSpec(
        1, 1, (), lambda L, R, lp2_grid, **_: (lp2_tau(R, grid=lp2_grid), None, None)
    ),
    "slope": BoundSpec(
        1, MAX_POLY_L, (),
        lambda L, R, **_: (slope_relaxation_bound(L, R).tau, None, None),
    ),
    "best": BoundSpec(1, MAX_POLY_L, ("label",), _best_row),
}


def sample_curve(
    bound: str,
    L: int,
    rates,
    beta: float | None = None,
    grid: int = 2000,
    lp2_grid: int = 400,
    bisect_tol: float = 1e-12,
) -> BoundCurve:
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
            tau, witness, label = spec.row(
                L, R, beta=beta, grid=grid, lp2_grid=lp2_grid, bisect_tol=bisect_tol
            )
            note = None
        except (DomainError, NoSolutionError) as exc:
            tau, witness, label, note = None, None, None, str(exc)
        points.append(CurvePoint(rate=R, tau=tau, witness=witness, label=label, note=note))
    return BoundCurve(bound=bound, L=L, points=tuple(points))
