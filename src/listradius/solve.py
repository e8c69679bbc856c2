"""One-dimensional solvers shared by the bounds: bisection on a one-sided
predicate, Brent-Dekker root bracketing and maximization by golden
section."""
from __future__ import annotations

import math

__all__ = ["bisect", "brent_root", "golden_max"]

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


def brent_root(
    g, lo: float, hi: float, tol: float, g_lo: float | None = None, g_hi: float | None = None
) -> tuple[float, float]:
    """Bracket (a, b) of the sign change of g, by Brent-Dekker zeroin
    (Brent 1973, Algorithms for Minimization without Derivatives, ch. 4).

    Same contract as bisect with pred = g >= 0: requires g(lo) >= 0 > g(hi),
    with lo on either side of hi, and returns evaluated points with
    g(a) >= 0 > g(b) and |b - a| <= tol.  End values passed as g_lo / g_hi
    are not evaluated again.  Each step takes an inverse quadratic or
    secant step, or halves when that step would not shrink the bracket
    fast enough.  It stops on the bracket width alone, never at g == 0, and
    a tolerance below the float spacing ends within four ulps.
    """
    a, fa = lo, g(lo) if g_lo is None else g_lo
    b, fb = hi, g(hi) if g_hi is None else g_hi
    # b is the best point so far, c the bracket end across the sign
    # change from it, a the previous b
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * max(tol, 4.0 * math.ulp(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1:
            break
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = g(b)
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a
    return (b, c) if fb >= 0.0 else (c, b)


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

