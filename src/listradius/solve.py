"""One-dimensional solvers shared by the bounds: bisection on a one-sided
predicate and golden-section maximization."""
from __future__ import annotations

import math

__all__ = ["bisect", "golden_max"]

_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracket [lo, hi] of the switch of pred, by halving.

    Requires pred(lo) true and pred(hi) false, and evaluates pred only
    strictly inside; the returned ends keep those values.  Halves while
    hi - lo > tol, and stops early once the midpoint rounds to an end, so
    a tolerance below the float spacing returns two adjacent floats.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [lo, hi]; returns (x, f(x)).

    Also compares against both interval endpoints, so boundary maxima are
    returned exactly.
    """
    a, b = lo, hi
    x1 = b - _PHI * (b - a)
    x2 = a + _PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _PHI * (b - a)
            f2 = f(x2)
    candidates = [(f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2)]
    fbest, xbest = max(candidates, key=lambda t: t[0])
    return xbest, fbest
