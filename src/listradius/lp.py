"""Linear-programming rate bounds used as comparison baselines.

The second LP bound on the rate of binary codes with a given relative
distance, and the list-size-2 bound obtained from it by an
Elias-Bassalygo style reduction with a sphere-constrained branch that
touches the LP branch at the root of a closed-form slope.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .core import binary_entropy, delta_lp1
from .errors import DomainError, NoSolutionError, check_rate
from .solve import brent_root, golden_max

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

class Lp2Witness(NamedTuple):
    """Minimizing point of the second LP bound objective."""

    alpha: float
    beta: float


def lp2_constraint(alpha: float, beta: float) -> float:
    """Left-hand side of the feasibility constraint of the second LP bound:
    2(alpha(1-alpha) - beta(1-beta)) / (1 + 2 sqrt(beta(1-beta)))."""
    return (
        2.0
        * (alpha * (1.0 - alpha) - beta * (1.0 - beta))
        / (1.0 + 2.0 * math.sqrt(beta * (1.0 - beta)))
    )


def _alpha_on_constraint(s: float, delta: float) -> float:
    """Largest alpha in [beta, 1/2] keeping the constraint at most delta,
    for s = sqrt(beta(1-beta)).

    The constraint is alpha(1-alpha) <= c = s^2 + delta (1/2 + s), so the
    boundary is 2c / (1 + sqrt(1 - 4c)), or 1/2 once c >= 1/4.
    """
    c = s * s + delta * (0.5 + s)
    return min(2.0 * c / (1.0 + math.sqrt(max(1.0 - 4.0 * c, 0.0))), 0.5)


def _beta_of(s: float) -> float:
    """The beta in [0, 1/2] with sqrt(beta(1-beta)) = s."""
    return 2.0 * s * s / (1.0 + math.sqrt(1.0 - 4.0 * s * s))


def _boundary_obj(s: float, delta: float) -> float:
    """The objective 1 - h(alpha) + h(beta) on the constraint boundary."""
    return 1.0 - binary_entropy(_alpha_on_constraint(s, delta)) + binary_entropy(_beta_of(s))


def r_lp2(delta: float):
    """Second LP bound on rate at relative distance delta, minimized over the
    feasible (alpha, beta) region; returns (rate, witness).

    The objective 1 - h(alpha) + h(beta) decreases in alpha, so for each
    beta the minimum sits on the constraint boundary, which has a closed
    form in s = sqrt(beta(1-beta)).  The boundary alpha reaches 1/2 at
    s = 1/2 - delta, the first LP bound's beta = 1/2 - sqrt(delta(1-delta));
    beyond it the objective is h(beta), which rises.  So one golden section
    over s in [0, 1/2 - delta] finds the minimum, and returns that end
    exactly when the minimum sits there.  The witness alpha is stepped
    down by ulps until the constraint holds exactly at the witness beta.
    """
    delta = float(delta)
    if not 0.0 < delta <= 0.5:
        raise DomainError(f"relative distance must lie in (0, 1/2], got {delta}")
    s, _ = golden_max(lambda s: -_boundary_obj(s, delta), 0.0, 0.5 - delta, 1e-12)
    beta = _beta_of(s)
    alpha = _alpha_on_constraint(s, delta)
    while lp2_constraint(alpha, beta) > delta:
        alpha = math.nextafter(alpha, 0.0)
    rate = max(1.0 - binary_entropy(alpha) + binary_entropy(beta), 0.0)
    return rate, Lp2Witness(alpha=alpha, beta=beta)


def abl_sphere_param(tau: float) -> float:
    """Sphere radius parameter of the list-2 bound second branch:
    1/2 - sqrt(1/4 - (sqrt(tau - 3 tau^2) - tau)^2)."""
    tau = float(tau)
    if not 0.0 < tau < 0.25:
        raise DomainError(f"tau must lie in (0, 1/4), got {tau}")
    inner = math.sqrt(tau - 3.0 * tau * tau) - tau
    return 0.5 - math.sqrt(0.25 - inner * inner)


def _lp2_rate(tau: float) -> float:
    """Second LP bound at relative distance 2 tau."""
    return r_lp2(2.0 * tau)[0]


def _abl_second_branch(tau: float) -> float:
    return 1.0 - binary_entropy(2.0 * tau) + binary_entropy(abl_sphere_param(tau))


@functools.cache
def abl_branch_point() -> float:
    """Contact point of the two branches of the list-2 bound.

    At delta = 2 tau the LP2 constraint boundary alpha(1-alpha) =
    s^2 + delta (1/2 + s) has alpha = delta at s = sqrt(tau - 3 tau^2) - tau,
    where beta(s) is abl_sphere_param(tau).  So the second branch is the LP2
    objective F = 1 - h(alpha(s)) + h(beta(s)) at a feasible point, and
    r_lp2(2 tau) - second = min F - F(s) <= 0: the branches touch exactly
    where dF/ds = h'(beta) 2s/(1 - 2 beta) - h'(alpha)(2s + delta)/(1 - 2 alpha)
    vanishes, h'(x) = log2((1-x)/x); it falls from +0.114 at tau = 0.02 to
    -1.06 at 0.24, and brent_root finds its root to 1e-15.  One r_lp2 solve
    checks the contact: a gap above 1e-6 raises NoSolutionError.  Memoized.
    """
    def slope(tau):
        s, alpha, beta = math.sqrt(tau - 3.0 * tau * tau) - tau, 2.0 * tau, abl_sphere_param(tau)
        return (
            math.log2((1.0 - beta) / beta) * 2.0 * s / (1.0 - 2.0 * beta)
            - math.log2((1.0 - alpha) / alpha) * (2.0 * s + alpha) / (1.0 - 2.0 * alpha)
        )

    tau0 = brent_root(slope, 0.02, 0.24, 1e-15)[0]
    if abs(_lp2_rate(tau0) - _abl_second_branch(tau0)) > 1e-6:
        raise NoSolutionError("list-2 bound branches do not touch within 1e-6")
    return tau0


def abl_list2(tau: float) -> float:
    """List-size-2 rate bound: the second LP bound up to the branch point,
    where the sphere-constrained branch touches it, and that branch above."""
    tau = float(tau)
    if not 0.0 < tau < 0.25:
        raise DomainError(f"tau must lie in (0, 1/4), got {tau}")
    if tau <= abl_branch_point():
        return _lp2_rate(tau)
    return _abl_second_branch(tau)


# Lower end of the tau bracket of both radius inversions.
_TAU_LO = 1e-9


@functools.lru_cache(maxsize=8)
def _end_rates(f, hi: float) -> tuple[float, float]:
    """f at both ends of the tau bracket [_TAU_LO, hi], solved once per
    bound."""
    return f(_TAU_LO), f(hi)


def _invert_decreasing(f, target: float, hi: float) -> float:
    """Largest tau in [_TAU_LO, hi] with f(tau) >= target, f nonincreasing,
    to within 1e-12; the returned tau satisfies f(tau) >= target, except
    for a target above f(_TAU_LO): every such tau lies below _TAU_LO, so
    _TAU_LO is returned as the bound.  Both callers' f(hi) is 0, below
    every target, which check_rate keeps above 0, so hi itself is never
    the answer."""
    f_lo, f_hi = _end_rates(f, hi)
    if f_lo < target:
        return _TAU_LO
    return brent_root(
        lambda t: f(t) - target,
        _TAU_LO,
        hi,
        1e-12,
        g_lo=f_lo - target,
        g_hi=f_hi - target,
    )[0]


def lp1_tau(R: float) -> float:
    """List-1 radius bound from the first LP bound: delta_lp1(R) / 2."""
    return 0.5 * delta_lp1(R)


def lp2_tau(R: float) -> float:
    """List-1 radius bound from the second LP bound: largest tau with
    r_lp2(2 tau) >= R."""
    return _invert_decreasing(_lp2_rate, check_rate(R), 0.25)


def abl2_tau(R: float) -> float:
    """List-2 radius bound: largest tau with abl_list2(tau) >= R."""
    return _invert_decreasing(abl_list2, check_rate(R), 0.25 - 1e-12)
