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

from . import lp
from .core import (
    _omega_root,
    admissible_j,
    avg_radius_evaluator,
    avg_radius_poly,
    avg_radius_slope_evaluator,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    krawtchouk_exponent_value,
    xi_max,
)
from .errors import DomainError, NoSolutionError, check_list_size, check_rate
from .solve import brent_root

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BOUNDS",
    "BoundSpec",
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

# Width in xi0 of the bracket of theta_j' = 0 refining the central bound.
_REFINE_TOL = 1e-10

# Slack of the concavity cap (see list_radius_bound): a shift count is
# skipped only when its cap falls short of the best value so far by more
# than this fraction of it, far above one evaluation's rounding.
_CAP_SLACK = 1e-12


class RadiusWitness(NamedTuple):
    """Maximizing parameters of the central bound at one rate."""

    xi0: float
    xi1: float
    j: int
    beta: float
    r_prime: float


class SlopeBound(NamedTuple):
    """Concavity relaxation: max over j of the average-radius polynomial
    evaluated at the first LP distance."""

    tau: float


class CurvePoint(NamedTuple):
    """A row of :func:`sample_curve`: tau and the values of the bound's
    :data:`BOUNDS` columns, or tau None and the row's error as a note."""

    rate: float
    tau: float | None
    columns: tuple = ()
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
    if not 0.0 < xi0 < 1.0:
        raise DomainError(f"xi0 must lie in (0, 1), got {xi0}")
    a1, a2 = _split_args(xi0, xi1)
    return xi0 * avg_radius_poly(L, j, a1) + (1.0 - xi0) * avg_radius_poly(L, j, a2)


EXPONENT_MODES = ("parametric", "binomial")


def _solve_at(R, beta, hbeta, exponent, x):
    """(xi1, r_prime, *_split_args, g) at xi0 = x, h(xi0) evaluated once.

    The subcode rate r_prime = R + h(beta) - 2E(xi0) is taken under the
    exponent treatment that list_radius_bound has checked: "parametric"
    evaluates the Krawtchouk exponent exactly; "binomial" substitutes its
    upper estimate (1 + h(beta) - h(xi0))/2, which weakens the bound
    monotonically and is the evaluation behind the published crossover
    table.  A subcode rate that rounds below 0 is solved as 0: there
    xi1 = 2 xi0 (1 - xi0) gives theta = P(xi0), the largest value at this
    xi0, so rounding can only raise tau, which stays an upper bound.

    g is h'(xi0) less the subcode rate's slope in xi0, the term of
    :func:`_objective`'s F0 that depends on xi0 alone: 0 under the binomial
    estimate, whose subcode rate rises as h(xi0), and log2((1-xi0)/xi0) +
    2 log2((1-w)/(1+w)), w = _omega_root(beta, xi0), under the exact
    exponent, whose stationarity in w is _omega_root's quadratic."""
    h0 = binary_entropy(x)
    if exponent == "binomial":
        rp, g = R + h0 - 1.0, 0.0
    else:
        rp = R + hbeta - 2.0 * krawtchouk_exponent_value(beta, x)
        w = _omega_root(beta, x)
        g = log2((1.0 - x) / x) + 2.0 * log2((1.0 - w) / (1.0 + w))
    xi1 = _solve_xi1(x, h0, rp)
    return (xi1, rp, *_split_args(x, xi1), g)


def _rate_geometry(R, beta, exponent):
    """The half of :func:`list_radius_bound` that depends on the rate, beta
    and exponent but not on L or j: the resolved beta, the searched xi0
    interval [lo, hi] and ``solve``, :func:`_solve_at` at this rate,
    memoized for the shift counts of one call.

    An explicit beta must satisfy h(beta) <= R, to 4 ulps of R; the default
    h^-1(R) does up to its own rounding.  Either must leave xi_max > 0,
    which rounds to 0 for some beta within 6.3e-9 of 1/2; the default's is
    5.6e-17 at R = 1 - 2^-53.  The subcode rate rises in xi0,
    and at hi = xi_max it is at least R - h(beta) >= 0, as the LP1 distance
    lies above the GV distance.  So the feasible xi0 form one interval up to
    hi: all of (0, hi] for the exact exponent, from h^-1(1 - R) on for the
    binomial estimate.  The search starts a sixteenth of the way up it,
    which keeps out xi0 = 0, where the xi1 equation is undefined."""
    explicit = beta is not None
    beta = _checked_beta(beta if explicit else inverse_entropy(R))
    hbeta = binary_entropy(beta)
    if explicit and hbeta > R + 4 * math.ulp(R):
        raise DomainError(f"h(beta)={hbeta} exceeds rate {R}")
    hi = xi_max(beta)
    if hi == 0.0:
        raise DomainError(f"beta={beta} leaves no sphere radius: xi_max(beta) rounds to 0")
    start = min(inverse_entropy(1.0 - R), hi) if exponent == "binomial" else 0.0
    lo = hi - 15 * ((hi - start) / 16)
    solve = functools.cache(functools.partial(_solve_at, R, beta, hbeta, exponent))
    return beta, lo, hi, solve


def _objective(solve, L, j):
    """xi0 -> (theta, theta') of theta_j(xi0) = split_avg_radius(L, j, xi0,
    xi1), for solve a :func:`_rate_geometry`'s.  With p = xi1/(2 xi0) and
    q = a2 = xi1/(2(1-xi0)), theta' = P(a1) - P(a2) + p P'(a1) + q P'(a2) +
    xi1' (P'(a2) - P'(a1))/2, and xi1' = -F0/F1 from the xi1 equation: F1
    is :func:`_solve_xi1`'s slope, F0 = log2(1-p) - log2(1-q) + g, with g
    the subcode rate's part, which :func:`_solve_at` returns.  theta
    takes P(a1), P(a2) from that slope pass, but from the value kernel,
    which holds where a1 rounds to 0, on the clamped branches: xi1 = 0,
    with theta' = j/(L+j), and xi1 = 2 xi0 (1-xi0), with theta' = P'(xi0).
    """
    poly, poly_slope = avg_radius_evaluator(L, j), avg_radius_slope_evaluator(L, j)

    def theta_and_slope(x):
        xi1, _, a1, a2, g = solve(x)
        # a p or q below the float resolution of 1 - p is the xi1 = 0 branch
        if a2 == 0.0 or a1 == 1.0:
            return x * poly(a1) + (1.0 - x) * poly(a2), j / (L + j)
        if xi1 >= 2.0 * x * (1.0 - x):
            return x * poly(a1) + (1.0 - x) * poly(a2), poly_slope(x)[1]
        p, q = xi1 / (2.0 * x), a2
        lp1, lq1 = log2(1.0 - p), log2(1.0 - q)
        f0 = lp1 - lq1 + g
        dxi1 = -2.0 * f0 / (log2(p) + log2(q) - lp1 - lq1)
        (v1, d1), (v2, d2) = poly_slope(a1), poly_slope(a2)
        return x * v1 + (1.0 - x) * v2, v1 - v2 + p * d1 + q * d2 + 0.5 * dxi1 * (d2 - d1)

    return theta_and_slope


def _refine(f, lo, hi):
    """(xi0, theta(xi0)) maximizing theta on [lo, hi], calling f: xi0 ->
    (theta, theta') at most once per xi0: hi where theta'(hi) >= 0, else
    lo where theta'(lo) <= 0, else the better end of the root of theta'
    bracketed to ``_REFINE_TOL``.  That needs theta to rise and then fall,
    as theta_j does at every shift count that wins in the sampled cases
    (README, "Notes on the central bound evaluation")."""
    t_hi, s_hi = f(hi)
    if s_hi >= 0.0:
        return hi, t_hi
    t_lo, s_lo = f(lo)
    if s_lo <= 0.0:
        return lo, t_lo
    thetas = {lo: t_lo, hi: t_hi}

    def slope(x):
        thetas[x], s = f(x)
        return s

    a, b = brent_root(slope, lo, hi, _REFINE_TOL, s_lo, s_hi)
    t, x = max((thetas[a], a), (thetas[b], b))
    return x, t


def list_radius_bound(
    L: int,
    R: float,
    beta: float | None = None,
    exponent: str = "parametric",
) -> tuple[float, RadiusWitness]:
    """Central upper bound on the list-L decoding radius at rate R.

    For every admissible shift count j and every sphere radius xi0 up to
    xi_max = 1/2 - sqrt(beta(1-beta)), the subcode rate
    R + h(beta) - 2E_beta(xi0) determines the intersection parameter xi1,
    and theta_j(xi0) = xi0 P(a1) + (1-xi0) P(a2), P = avg_radius_poly(L, j,
    .), is maximized by :func:`_refine` over the xi0 interval that
    _rate_geometry searches, which ends at xi_max.  xi1 depends on xi0
    alone, so the shift counts share every xi1 solved.

    The concavity cap prunes the search.  As xi0 a1 + (1-xi0) a2 = xi0,
    theta_j(xi0) <= P(xi0) <= P(xi_max) for P concave on [0, 1] and
    nondecreasing on [0, 1/2], which the excess-derivative identity
    d/dnu E[max(W - k, 0)] = L P[V >= k] (check c07) shows, W ~ Bino(L, nu)
    and V ~ Bino(L - 1, nu), whose tail P[V >= k] rises in nu:

    - L + j even, k = (L + j)/2: (L + j) P' = L (1 - 2 P[V >= k]), which
      falls in nu and is >= 0 at nu = 1/2, as k lies above V's centre;
    - j = 0 at odd L, k = (L - 1)/2: L P' = L (1 - P[V >= k] - P[V >= k+1]),
      which falls in nu and is 0 at nu = 1/2, V being symmetric about k.

    So the j are searched by descending cap P(xi_max) down to the first cap
    more than ``_CAP_SLACK`` of the best value found below it, which does
    not change the result; ties go to the smallest j.

    beta defaults to h(beta) = R; an explicit beta needs h(beta) <= R.
    Subcode rates above h(xi0) clamp xi1 to 0.  ``exponent``
    selects the Krawtchouk exponent's treatment (:func:`_solve_at`),
    under which the witness r_prime is reported.
    """
    if not isinstance(L, int) or L < 2:
        raise DomainError(f"list size must be an integer >= 2, got {L}")
    _check_float_cap(L, MAX_POLY_L)
    if exponent not in EXPONENT_MODES:
        raise DomainError(f"unknown exponent mode {exponent!r}")
    R = check_rate(R)
    beta, lo, hi, solve = _rate_geometry(R, beta, exponent)
    caps = {j: avg_radius_evaluator(L, j)(hi) for j in admissible_j(L)}
    theta_star, xi0_star, j_star = -math.inf, None, None
    for j in sorted(caps, key=caps.__getitem__, reverse=True):
        if caps[j] < theta_star - _CAP_SLACK * abs(theta_star):
            break
        xi0, t = _refine(_objective(solve, L, j), lo, hi)
        if j_star is None or t > theta_star or (t == theta_star and j < j_star):
            theta_star, xi0_star, j_star = t, xi0, j

    xi1_star, rp_star = solve(xi0_star)[:2]
    witness = RadiusWitness(
        xi0=xi0_star, xi1=xi1_star, j=j_star, beta=beta, r_prime=rp_star
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
    """Concavity relaxation of the central bound, valid for every L: max
    over admissible j of the average-radius polynomial at the first LP
    distance."""
    check_list_size(L)
    _check_float_cap(L, MAX_POLY_L)
    R = check_rate(R, closed=True)
    x = delta_lp1(R)
    return SlopeBound(tau=max(avg_radius_poly(L, j, x) for j in admissible_j(L)))


_REFERENCE_CROSSOVERS = {3: 0.361, 5: 0.248, 7: 0.184, 9: 0.136, 11: 0.100}
# Largest deviation of a computed crossover from the published one accepted.
CROSSOVER_TOLERANCE = 0.002


def reference_crossovers() -> dict[int, float]:
    """Published crossover rates used as acceptance anchors."""
    return dict(_REFERENCE_CROSSOVERS)


# Rates of the top-down crossover scan: 0.02 and its 12 halvings (to 4.9e-6;
# odd L >= 33 cross below 0.02), 0.1 to 0.9 as np.arange(0.1, 0.95, 0.1)
# forms them, and 0.99; and the width at which the root finder after it stops.
_CROSSOVER_SCAN = (
    *(0.02 * 2.0**-k for k in range(12, -1, -1)),
    0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7000000000000001, 0.8, 0.9, 0.99,
)
_CROSSOVER_R_TOL = 1e-5


def crossover_rate(L: int) -> float:
    """Largest rate at which the central bound is at most the Catalan-sum
    bound, found by a coarse top-down scan and a Brent-Dekker root finder
    on their difference.  Every call computes it afresh; a caller that
    reads a crossover more than once keeps the rate.

    The central bound is evaluated with the binomial exponent estimate, as
    the published crossover table was.  The two treatments agree at the
    crossover only for L = 3, 5 and 7, where the maximizer sits at the xi0
    endpoint; from L = 9 on the exact exponent's is higher (7.9e-3 at L = 9).
    """
    if not isinstance(L, int) or L < 3 or L % 2 == 0:
        raise DomainError(f"crossover rates are computed for odd L >= 3, got {L}")

    def margin(R):
        # >= 0 exactly where the central bound wins
        return blinovsky_bound(L, R) - list_radius_bound(L, R, exponent="binomial")[0]

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
        return lo
    return brent_root(margin, lo, hi, _CROSSOVER_R_TOL, g_lo=g_lo, g_hi=g_hi)[0]


def best_upper_bound(L: int, R: float) -> tuple[float, str]:
    """Minimum over the bounds applicable at list size L, with the winner
    labeled: LP bounds for L = 1, the list-2 bound for L = 2, the central
    and Catalan-sum bounds for every L >= 2."""
    check_list_size(L)
    R = check_rate(R)
    if L == 1:
        tau1 = lp.lp1_tau(R)
        tau2 = lp.lp2_tau(R)
        # equal up to rounding below R ~ 0.305, so lp2 must win by a relative margin
        if tau2 < tau1 * (1 - 1e-9):
            return tau2, "lp2"
        return tau1, "lp1"
    candidates = [
        (list_radius_bound(L, R)[0], "theorem1"),
        (blinovsky_bound(L, R), "blinovsky"),
    ]
    if L == 2:
        candidates.append((lp.abl2_tau(R), "abl2"))
    return min(candidates, key=lambda t: t[0])


class BoundSpec(NamedTuple):
    """One bound of :data:`BOUNDS`: the list sizes it accepts, the CSV
    columns it adds after ``rate,tau``, and its row evaluator, called as
    ``row(L, R, beta=)`` and returning tau followed by the values of those
    columns."""

    min_L: int
    max_L: int
    columns: tuple[str, ...]
    row: Callable


def _theorem1_row(L, R, beta):
    tau, w = list_radius_bound(L, R, beta=beta)
    return tau, w.xi0, w.xi1, w.j


# The evaluators name their bound function in their body, so that a wrapper
# installed as a module attribute (perfbench/tracer.py) is the one called.
BOUNDS = {
    "theorem1": BoundSpec(2, MAX_POLY_L, ("xi0", "xi1", "j"), _theorem1_row),
    "blinovsky": BoundSpec(
        2, MAX_CATALAN_L, (), lambda L, R, **_: (blinovsky_bound(L, R),)
    ),
    "abl2": BoundSpec(2, 2, (), lambda L, R, **_: (lp.abl2_tau(R),)),
    "lp1": BoundSpec(1, 1, (), lambda L, R, **_: (lp.lp1_tau(R),)),
    "lp2": BoundSpec(1, 1, (), lambda L, R, **_: (lp.lp2_tau(R),)),
    "slope": BoundSpec(
        1, MAX_POLY_L, (), lambda L, R, **_: (slope_relaxation_bound(L, R).tau,)
    ),
    "best": BoundSpec(
        1, MAX_POLY_L, ("label",), lambda L, R, **_: best_upper_bound(L, R)
    ),
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
            row = spec.row(L, R, beta=beta)
            points.append(CurvePoint(R, row[0], row[1:]))
        except (DomainError, NoSolutionError) as exc:
            points.append(CurvePoint(R, None, note=str(exc)))
    return tuple(points)
