"""Linear-programming rate bounds used as comparison baselines.

The second LP bound on the rate of binary codes with a given relative
distance, and the list-size-2 bound obtained from it by an
Elias-Bassalygo style reduction with a sphere-constrained distance bound.
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

# Taus of the list-2 branch point scan, formed as np.linspace(0.02, 0.24, 45)
# forms them (i * step + start), and the width at which the golden section
# after it stops.
_BRANCH_TAUS = tuple(i * (0.22 / 44) + 0.02 for i in range(45))
_BRANCH_TOL = 1e-9


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

    With the LP branch evaluated accurately the two expressions osculate
    instead of crossing (the difference peaks at about -1e-7), so the
    switch point is the maximizer of their difference: golden section
    around the best of 45 scanned points.  A positive scanned difference
    (a transversal crossing) or a peak below -1e-6 raises NoSolutionError.
    Memoized.
    """
    # cached: golden_max evaluates the scanned bracket ends again
    @functools.cache
    def gap(tau):
        return _lp2_rate(tau) - _abl_second_branch(tau)

    taus = _BRANCH_TAUS
    gaps = [gap(t) for t in taus]
    if max(gaps) > 0.0:
        raise NoSolutionError("list-2 bound branches cross instead of touching")
    k = max(range(len(gaps)), key=gaps.__getitem__)
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, len(taus) - 1)]
    tau0, peak = golden_max(gap, lo, hi, _BRANCH_TOL)
    if peak < -1e-6:
        raise NoSolutionError("list-2 bound branches do not touch within 1e-6")
    return tau0


def abl_list2(tau: float) -> float:
    """List-size-2 rate bound: the second LP bound below the branch point,
    the sphere-constrained branch above it."""
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
    _TAU_LO is returned as the bound."""
    f_lo, f_hi = _end_rates(f, hi)
    if f_hi >= target:
        return hi
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
