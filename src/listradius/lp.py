"""Linear-programming rate bounds used as comparison baselines.

The second LP bound on the rate of binary codes with a given relative
distance, and the list-size-2 bound obtained from it by an
Elias-Bassalygo style reduction with a sphere-constrained distance bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import binary_entropy, delta_lp1
from .errors import DomainError, NoSolutionError
from .solve import bisect, golden_max

__all__ = [
    "Lp2Witness",
    "abl_branch_point",
    "abl_list2",
    "abl_sphere_param",
    "abl2_tau",
    "lp1_tau",
    "lp2_constraint",
    "lp2_tau",
    "r_lp2",
]

DEFAULT_LP2_GRID = 400

# Width at which the golden section of the list-2 branch point stops.
_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class Lp2Witness:
    """Minimizing point of the second LP bound objective."""

    alpha: float
    beta: float
    rate_bits: float


def lp2_constraint(alpha: float, beta: float) -> float:
    """Left-hand side of the feasibility constraint of the second LP bound:
    2(alpha(1-alpha) - beta(1-beta)) / (1 + 2 sqrt(beta(1-beta)))."""
    return (
        2.0
        * (alpha * (1.0 - alpha) - beta * (1.0 - beta))
        / (1.0 + 2.0 * math.sqrt(beta * (1.0 - beta)))
    )


def _alpha_on_constraint(beta, delta: float):
    """Largest alpha in [beta, 1/2] keeping the constraint at most delta.

    The constraint is alpha(1-alpha) <= c = beta(1-beta) + delta (1/2 +
    sqrt(beta(1-beta))), so the boundary is 2c / (1 + sqrt(1 - 4c)), or
    1/2 once c >= 1/4.  Accepts a float or a numpy array of betas; a float
    takes math.sqrt, which rounds like np.sqrt at a fraction of its call
    cost.
    """
    q = beta * (1.0 - beta)
    if isinstance(q, np.ndarray):
        c = q + delta * (0.5 + np.sqrt(q))
        return np.minimum(2.0 * c / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * c, 0.0))), 0.5)
    c = q + delta * (0.5 + math.sqrt(q))
    return min(2.0 * c / (1.0 + math.sqrt(max(1.0 - 4.0 * c, 0.0))), 0.5)


def r_lp2(delta: float, grid: int = DEFAULT_LP2_GRID):
    """Second LP bound on rate at relative distance delta, minimized over the
    feasible (alpha, beta) region; returns (rate_bits, witness).

    The objective 1 - h(alpha) + h(beta) decreases in alpha, so for each
    beta the minimum sits on the constraint boundary, which has a closed
    form.  The boundary is scanned at ``grid + 1`` betas in [0, 1/2] and
    refined by golden section around the best scan point.  The witness
    alpha is stepped down by ulps until the constraint holds exactly.
    """
    delta = float(delta)
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"relative distance must lie in (0, 1/2], got {delta}")

    def boundary_obj(beta):
        return 1.0 - binary_entropy(_alpha_on_constraint(beta, delta)) + binary_entropy(beta)

    betas = np.linspace(0.0, 0.5, int(grid) + 1)
    k = int(np.argmin(boundary_obj(betas)))
    blo = float(betas[max(k - 1, 0)])
    bhi = float(betas[min(k + 1, len(betas) - 1)])
    beta, _ = golden_max(lambda b: -boundary_obj(b), blo, bhi, 1e-12)
    alpha = float(_alpha_on_constraint(beta, delta))
    while lp2_constraint(alpha, beta) > delta:
        alpha = math.nextafter(alpha, 0.0)
    rate = max(1.0 - binary_entropy(alpha) + binary_entropy(beta), 0.0)
    return rate, Lp2Witness(alpha=alpha, beta=beta, rate_bits=rate)


def abl_sphere_param(tau: float) -> float:
    """Sphere radius parameter of the list-2 bound second branch:
    1/2 - sqrt(1/4 - (sqrt(tau - 3 tau^2) - tau)^2)."""
    tau = float(tau)
    if not 0.0 < tau < 0.25:
        raise DomainError(f"tau must lie in (0, 1/4), got {tau}")
    inner = math.sqrt(tau - 3.0 * tau * tau) - tau
    rad = 0.25 - inner * inner
    if rad < 0.0:
        raise DomainError(f"sphere parameter undefined at tau={tau}")
    return 0.5 - math.sqrt(rad)


def _abl_second_branch(tau: float) -> float:
    return 1.0 - binary_entropy(2.0 * tau) + binary_entropy(abl_sphere_param(tau))


@functools.lru_cache(maxsize=8)
def abl_branch_point(grid: int = DEFAULT_LP2_GRID) -> float:
    """Contact point of the two branches of the list-2 bound.

    With the LP branch evaluated accurately the two expressions osculate
    instead of crossing (the difference peaks at about -1e-7), so the
    switch point is the maximizer of their difference: golden section
    around the best of 45 scanned points.  A positive scanned difference
    (a transversal crossing) or a peak below -1e-6 raises NoSolutionError.
    """

    def gap(tau):
        return r_lp2(2.0 * tau, grid=grid)[0] - _abl_second_branch(tau)

    taus = np.linspace(0.02, 0.24, 45)
    gaps = [gap(t) for t in taus]
    if max(gaps) > 0.0:
        raise NoSolutionError("list-2 bound branches cross instead of touching")
    k = int(np.argmax(gaps))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, len(taus) - 1)]
    tau0, peak = golden_max(gap, float(lo), float(hi), _BRANCH_TOL)
    if peak < -1e-6:
        raise NoSolutionError("list-2 bound branches do not touch within 1e-6")
    return tau0


def abl_list2(tau: float, grid: int = DEFAULT_LP2_GRID) -> float:
    """List-size-2 rate bound: the second LP bound below the branch point,
    the sphere-constrained branch above it."""
    tau = float(tau)
    if not 0.0 < tau < 0.25:
        raise DomainError(f"tau must lie in (0, 1/4), got {tau}")
    if tau <= abl_branch_point(grid=grid):
        return r_lp2(2.0 * tau, grid=grid)[0]
    return _abl_second_branch(tau)


def _invert_decreasing(f, target: float, lo: float, hi: float):
    """Largest x in [lo, hi] with f(x) >= target, f nonincreasing, to within
    1e-12; the returned x always satisfies f(x) >= target."""
    if f(hi) >= target:
        return hi
    if f(lo) < target:
        raise NoSolutionError("target rate out of range")
    return bisect(lambda x: f(x) >= target, lo, hi, 1e-12)[0]


def lp1_tau(R: float) -> float:
    """List-1 radius bound from the first LP bound: delta_lp1(R) / 2."""
    return 0.5 * delta_lp1(R)


def lp2_tau(R: float, grid: int = DEFAULT_LP2_GRID) -> float:
    """List-1 radius bound from the second LP bound: largest tau with
    r_lp2(2 tau) >= R."""
    R = float(R)
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    return _invert_decreasing(lambda t: r_lp2(2.0 * t, grid=grid)[0], R, 1e-9, 0.25)


def abl2_tau(R: float, grid: int = DEFAULT_LP2_GRID) -> float:
    """List-2 radius bound: largest tau with abl_list2(tau) >= R."""
    R = float(R)
    if not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    return _invert_decreasing(lambda t: abl_list2(t, grid=grid), R, 1e-9, 0.25 - 1e-12)
