"""Scalar building blocks shared by every bound.

Entropies, the Krawtchouk polynomial exponent in parametric form, the
average-radius polynomials, the Plotkin-type radius and the first
linear-programming distance.  All rates and entropies are in bits.  The
polynomial evaluators accept floats, numpy arrays or ``fractions.Fraction``
(the latter giving exact results).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError
from .solve import bisect

__all__ = [
    "KrawtchoukPoint",
    "admissible_j",
    "avg_radius_evaluator",
    "avg_radius_poly",
    "avg_radius_polys",
    "binary_entropy",
    "binomial_pmf",
    "binomial_tail",
    "delta_lp1",
    "expected_excess",
    "inverse_entropy",
    "krawtchouk_exponent",
    "krawtchouk_exponent_value",
    "plotkin_radius",
]


def binary_entropy(p):
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0.

    Accepts a float or a numpy array.
    """
    if isinstance(p, np.ndarray):
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("entropy argument must lie in [0, 1]")
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
        return np.where((p > 0.0) & (p < 1.0), raw, 0.0)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


_INVERSE_ENTROPY_TOL = 1e-12


def inverse_entropy(y: float) -> float:
    """The unique p in [0, 1/2] with h(p) = y, by bisection to within
    ``_INVERSE_ENTROPY_TOL`` in p."""
    y = float(y)
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"entropy value must lie in [0, 1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = bisect(lambda p: binary_entropy(p) < y, 0.0, 0.5, _INVERSE_ENTROPY_TOL)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class KrawtchoukPoint:
    """One point of the parametric Krawtchouk exponent representation.

    ``omega`` is the parameter value tying ``xi`` to ``exponent_bits``; it
    lies in [beta/(1-beta), sqrt(beta/(1-beta))].
    """

    beta: float
    omega: float
    xi: float
    exponent_bits: float


def _omega_root(beta, xi):
    """Smaller root of (1-beta) w^2 - (1-2 xi) w + beta = 0.

    Clamped into the admissible interval to absorb floating-point drift at
    the endpoints.  Works on floats and numpy arrays.
    """
    b = 1.0 - 2.0 * xi
    disc = b * b - 4.0 * beta * (1.0 - beta)
    if isinstance(disc, np.ndarray):
        if np.any(disc < -1e-9):
            raise DomainError("xi exceeds 1/2 - sqrt(beta(1-beta))")
        disc = np.maximum(disc, 0.0)
        w = (b - np.sqrt(disc)) / (2.0 * (1.0 - beta))
        return np.clip(w, beta / (1.0 - beta), math.sqrt(beta / (1.0 - beta)))
    if disc < 0.0:
        if disc < -1e-9:
            raise DomainError(
                f"xi={xi} exceeds 1/2 - sqrt(beta(1-beta)) for beta={beta}"
            )
        disc = 0.0
    w = (b - math.sqrt(disc)) / (2.0 * (1.0 - beta))
    lo = beta / (1.0 - beta)
    hi = math.sqrt(beta / (1.0 - beta))
    return min(max(w, lo), hi)


def krawtchouk_exponent_value(beta, xi):
    """Exponential growth rate (bits) of the Krawtchouk polynomial along the
    diagonal (beta, xi); ``xi`` may be a float or a numpy array."""
    beta = float(beta)
    if not 0.0 < beta <= 0.5:
        raise DomainError(f"beta must lie in (0, 1/2], got {beta}")
    w = _omega_root(beta, xi)
    if isinstance(xi, np.ndarray):
        if np.any(xi < -1e-15):
            raise DomainError("xi must be nonnegative")
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(xi > 0.0, xi * np.log2(1.0 - w), 0.0)
        return t1 + (1.0 - xi) * np.log2(1.0 + w) - beta * np.log2(w)
    xi = float(xi)
    if xi < -1e-15:
        raise DomainError(f"xi must be nonnegative, got {xi}")
    t1 = xi * math.log2(1.0 - w) if xi > 0.0 else 0.0
    return t1 + (1.0 - xi) * math.log2(1.0 + w) - beta * math.log2(w)


def krawtchouk_exponent(beta: float, xi: float) -> KrawtchoukPoint:
    """Solve the parametric form for omega and return the full point."""
    beta = float(beta)
    if not 0.0 < beta <= 0.5:
        raise DomainError(f"beta must lie in (0, 1/2], got {beta}")
    xi = float(xi)
    if xi < 0.0:
        raise DomainError(f"xi must be nonnegative, got {xi}")
    w = _omega_root(beta, xi)
    return KrawtchoukPoint(
        beta=beta, omega=w, xi=xi, exponent_bits=krawtchouk_exponent_value(beta, xi)
    )


def admissible_j(L: int) -> tuple[int, ...]:
    """Shift-count set entering the outer maximization: {0} and the odd
    integers up to L for odd L, the even integers up to L for even L."""
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    if L % 2 == 1:
        return (0,) + tuple(range(1, L + 1, 2))
    return tuple(range(0, L + 1, 2))


def _validate_nu(nu):
    if isinstance(nu, np.ndarray):
        if np.any(nu < 0.0) or np.any(nu > 1.0):
            raise DomainError("probability argument must lie in [0, 1]")
    elif not 0 <= nu <= 1:
        raise DomainError(f"probability argument must lie in [0, 1], got {nu}")


@functools.lru_cache(maxsize=1024)
def _excess_coeffs(L: int, j: int) -> tuple[int, ...]:
    """Integer coefficients comb(L, w) * (2w - L - j) of the excess terms,
    for w from (L + j) // 2 + 1 up to L."""
    return tuple(comb(L, w) * (2 * w - L - j) for w in range((L + j) // 2 + 1, L + 1))


def _validate_shifts(L: int, js):
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    for j in js:
        if not isinstance(j, int) or not 0 <= j <= L:
            raise DomainError(f"shift count must be an integer in [0, {L}], got {j}")


def avg_radius_polys(L: int, js, nu) -> list:
    """[avg_radius_poly(L, j, nu) for j in js], sharing 1 - nu and the
    powers nu**w, (1 - nu)**(L - w) across j.

    Each j sums its terms in ascending w with the same grouping as a lone
    evaluation, so every value is bit-identical to it (exact for Fraction).
    """
    js = tuple(js)
    _validate_shifts(L, js)
    _validate_nu(nu)
    q = 1 - nu
    terms = [((L + j) // 2 + 1, _excess_coeffs(L, j)) for j in js]
    excess = [0] * len(terms)
    for w in range(min((w0 for w0, _ in terms), default=L + 1), L + 1):
        nu_w, q_w = nu**w, q ** (L - w)
        for i, (w0, coeffs) in enumerate(terms):
            if w >= w0:
                excess[i] = excess[i] + coeffs[w - w0] * nu_w * q_w
    return [(L * nu - e) / (L + j) for j, e in zip(js, excess)]


def avg_radius_evaluator(L: int, j: int):
    """The function nu -> avg_radius_poly(L, j, nu) for scalar nu in [0, 1].

    L and j are validated here, nu not at all: this serves inner loops
    whose arguments are already clipped to [0, 1].  The terms are summed
    in ascending w with the grouping of :func:`avg_radius_polys`, so every
    value is bit-identical to it.
    """
    _validate_shifts(L, (j,))
    w0 = (L + j) // 2 + 1
    terms = tuple(zip(_excess_coeffs(L, j), range(w0, L + 1), range(L - w0, -1, -1)))
    norm = L + j

    def poly(nu):
        q = 1 - nu
        excess = 0
        for c, w, v in terms:
            excess = excess + c * nu**w * q**v
        return (L * nu - excess) / norm

    return poly


def avg_radius_poly(L: int, j: int, nu):
    """Normalized average covering radius of L Bernoulli(nu) rows plus j
    pinned all-zero rows: (L nu - E[max(0, 2W - L - j)]) / (L + j) with
    W ~ Bino(L, nu).

    Degree-L polynomial in nu; exact when nu is a Fraction.
    """
    return avg_radius_polys(L, (j,), nu)[0]


def plotkin_radius(L: int, xi):
    """Zero-rate list-L decoding radius of codes on the sphere of relative
    radius xi: E[min(W, L+1-W)] / (L+1) with W ~ Bino(L+1, xi).

    Exact when xi is a Fraction.
    """
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")
    _validate_nu(xi)
    acc = 0
    for w in range(L + 2):
        acc = acc + comb(L + 1, w) * min(w, L + 1 - w) * xi**w * (1 - xi) ** (
            L + 1 - w
        )
    return acc / (L + 1)


def delta_lp1(R: float) -> float:
    """First linear-programming bound on relative distance at rate R (bits):
    1/2 - sqrt(beta(1-beta)) with h(beta) = R."""
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise DomainError(f"rate must lie in [0, 1], got {R}")
    beta = inverse_entropy(R)
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
