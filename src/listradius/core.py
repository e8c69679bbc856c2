"""Scalar building blocks shared by every bound.

Entropies, the Krawtchouk polynomial exponent in parametric form, the
average-radius polynomials (the Plotkin-type radius is their (L + 1, 0)
member) and the first linear-programming distance.  All rates and
entropies are in bits.  The polynomial evaluators accept floats or
``fractions.Fraction`` (the latter giving exact results); the entropy and
exponent functions take floats.
"""
from __future__ import annotations

import functools
import math
from math import comb

from .errors import DomainError, check_list_size, check_rate
from .solve import bisect

__all__ = [
    "admissible_j",
    "avg_radius_evaluator",
    "avg_radius_poly",
    "avg_radius_slope_evaluator",
    "binary_entropy",
    "binomial_pmf",
    "binomial_tail",
    "delta_lp1",
    "expected_excess",
    "inverse_entropy",
    "krawtchouk_exponent_value",
    "xi_max",
]


def binary_entropy(p):
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


_INVERSE_ENTROPY_TOL = 1e-12
_INVERSE_ENTROPY_RTOL = 1e-6


def inverse_entropy(y: float) -> float:
    """The unique p in [0, 1/2] with h(p) = y, by bisection to within
    ``_INVERSE_ENTROPY_TOL`` in p, and on to within ``_INVERSE_ENTROPY_RTOL``
    relative to p where that is finer (p below ~9e-7, y below ~2.1e-5)."""
    y = float(y)
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"entropy value must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return _inverse_entropy(y)


# Memoized apart from the validating front above: the default beta of the
# central bound, blinovsky_bound and delta_lp1 ask for the same values again.
@functools.lru_cache(maxsize=256)
def _inverse_entropy(y: float) -> float:
    def below(p):
        return binary_entropy(p) < y

    lo, hi = bisect(below, 0.0, 0.5, _INVERSE_ENTROPY_TOL)
    # an absolute width is a large relative error at small p; with lo still
    # 0 the tolerance is 0 and bisect runs on to adjacent floats
    if hi - lo > _INVERSE_ENTROPY_RTOL * lo:
        lo, hi = bisect(below, lo, hi, _INVERSE_ENTROPY_RTOL * lo)
    # the midpoint of (0, 5e-324) rounds to 0, which is no p with h(p) = y > 0
    return 0.5 * (lo + hi) or hi


def _omega_root(beta, xi):
    """Smaller root of (1-beta) w^2 - (1-2 xi) w + beta = 0.

    Clamped into the admissible interval to absorb floating-point drift at
    the endpoints.
    """
    b = 1.0 - 2.0 * xi
    disc = b * b - 4.0 * beta * (1.0 - beta)
    # past 1 - xi_max the discriminant is positive again, but b < 0
    if b < 0.0 or disc < -1e-9:
        raise DomainError(
            f"xi={xi} exceeds 1/2 - sqrt(beta(1-beta)) for beta={beta}"
        )
    w = (b - math.sqrt(disc if disc > 0.0 else 0.0)) / (2.0 * (1.0 - beta))
    lo = beta / (1.0 - beta)
    hi = math.sqrt(beta / (1.0 - beta))
    return min(max(w, lo), hi)


def krawtchouk_exponent_value(beta, xi):
    """Exponential growth rate (bits) of the Krawtchouk polynomial along the
    diagonal (beta, xi)."""
    beta = float(beta)
    if not 0.0 < beta <= 0.5:
        raise DomainError(f"beta must lie in (0, 1/2], got {beta}")
    xi = float(xi)
    # negated, so that NaN fails it too
    if not xi >= -1e-15:
        raise DomainError(f"xi must be nonnegative, got {xi}")
    w = _omega_root(beta, xi)
    t1 = xi * math.log2(1.0 - w) if xi > 0.0 else 0.0
    return t1 + (1.0 - xi) * math.log2(1.0 + w) - beta * math.log2(w)


def admissible_j(L: int) -> tuple[int, ...]:
    """Shift-count set entering the outer maximization: {0} and the odd
    integers up to L for odd L, the even integers up to L for even L."""
    check_list_size(L)
    if L % 2 == 1:
        return (0,) + tuple(range(1, L + 1, 2))
    return tuple(range(0, L + 1, 2))


# typed, so that a float j is validated rather than answered from an int entry
@functools.lru_cache(maxsize=1024, typed=True)
def _excess_terms(L: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """(c, w, L - w) of the excess terms, c = comb(L, w) (2w - L - j), w > (L + j)/2;
    comb(L, w) is stepped along w from one comb call, exactly."""
    check_list_size(L)
    if not isinstance(j, int) or not 0 <= j <= L:
        raise DomainError(f"shift count must be an integer in [0, {L}], got {j}")
    w0 = (L + j) // 2 + 1
    terms, c = [], comb(L, w0)
    for w in range(w0, L + 1):
        terms.append((c * (2 * w - L - j), w, L - w))
        c = c * (L - w) // (w + 1)
    return tuple(terms)


def avg_radius_evaluator(L: int, j: int):
    """The function nu -> avg_radius_poly(L, j, nu).

    L and j are validated here, nu not at all: this serves inner loops
    whose arguments are already clipped to [0, 1].  The terms
    c * nu**w * (1 - nu)**(L - w) are summed in ascending w.
    """
    terms, norm = _excess_terms(L, j), L + j

    def poly(nu):
        q = 1 - nu
        excess = 0
        for c, w, v in terms:
            excess = excess + c * nu**w * q**v
        return (L * nu - excess) / norm

    return poly


def avg_radius_slope_evaluator(L: int, j: int):
    """The function nu -> (avg_radius_poly(L, j, nu), its derivative in nu)
    for nu strictly inside (0, 1), the value bit for bit that of
    :func:`avg_radius_evaluator`: each of its terms t = c nu**w (1-nu)**v
    also adds t (w/nu - v/(1-nu)) to the excess's derivative."""
    terms, norm = _excess_terms(L, j), L + j

    def poly_slope(nu):
        q = 1 - nu
        rn, rq = 1 / nu, 1 / q
        excess = dexcess = 0
        for c, w, v in terms:
            t = c * nu**w * q**v
            excess = excess + t
            dexcess = dexcess + t * (w * rn - v * rq)
        return (L * nu - excess) / norm, (L - dexcess) / norm

    return poly_slope


def avg_radius_poly(L: int, j: int, nu):
    """Normalized average covering radius of L Bernoulli(nu) rows plus j
    pinned all-zero rows: (L nu - E[max(0, 2W - L - j)]) / (L + j) with
    W ~ Bino(L, nu).

    Degree-L polynomial in nu; exact when nu is a Fraction.
    """
    poly = avg_radius_evaluator(L, j)
    if not 0 <= nu <= 1:
        raise DomainError(f"probability argument must lie in [0, 1], got {nu}")
    return poly(nu)


def delta_lp1(R: float) -> float:
    """First linear-programming bound on relative distance at rate R (bits):
    1/2 - sqrt(beta(1-beta)) with h(beta) = R."""
    return xi_max(inverse_entropy(check_rate(R, closed=True)))


def xi_max(beta: float) -> float:
    """1/2 - sqrt(beta(1-beta)), the first LP distance at h(beta) = R and
    the largest sphere radius xi0 that the central bound searches."""
    return 0.5 - math.sqrt(beta * (1.0 - beta))


def binomial_pmf(L: int, p: float, k: int) -> float:
    """P[W = k] for W ~ Bino(L, p)."""
    if k < 0 or k > L:
        return 0.0
    return comb(L, k) * p**k * (1.0 - p) ** (L - k)


def binomial_tail(L: int, p: float, k: int) -> float:
    """P[W >= k] for W ~ Bino(L, p)."""
    if k <= 0:
        return 1.0
    return sum(binomial_pmf(L, p, w) for w in range(k, L + 1))


def expected_excess(L: int, p: float, k: int) -> float:
    """E[max(W - k, 0)] for W ~ Bino(L, p)."""
    return sum((w - k) * binomial_pmf(L, p, w) for w in range(max(k, 0) + 1, L + 1))
