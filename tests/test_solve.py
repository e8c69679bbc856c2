import math
import time

import pytest

from listradius.solve import bisect, brent_root, golden_max


class TestBisect:
    @pytest.mark.parametrize("root", [0.1234567, 0.3, 0.75])
    def test_bracket_contract(self, root):
        seen = []

        def pred(x):
            seen.append(x)
            return x < root

        lo, hi = bisect(pred, 0.0, 1.0, 1e-9)
        assert all(0.0 < x < 1.0 for x in seen)  # never at the ends
        assert pred(lo) and not pred(hi)
        assert hi - lo <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, 1e-300])
    def test_tolerance_below_float_spacing(self, tol):
        start = time.perf_counter()
        lo, hi = bisect(lambda x: x * x < 0.02, 0.1, 0.2, tol)
        assert time.perf_counter() - start < 1.0
        assert math.nextafter(lo, 1.0) == hi
        assert lo * lo < 0.02 <= hi * hi

    def test_wide_tolerance_takes_no_step(self):
        def pred(x):
            raise AssertionError("pred evaluated")

        assert bisect(pred, 0.0, 1.0, 2.0) == (0.0, 1.0)


def _counted(g):
    seen = []

    def wrapped(x):
        seen.append(x)
        return g(x)

    return wrapped, seen


class TestBrentRoot:
    @pytest.mark.parametrize(
        "g, lo, hi",
        [
            (lambda x: math.exp(-5.0 * x) - 0.3, 0.0, 1.0),  # decreasing
            (lambda x: x**3 - 0.2, 1.0, 0.0),  # increasing, ends swapped
        ],
    )
    def test_bracket_contract(self, g, lo, hi):
        a, b = brent_root(g, lo, hi, 1e-9)
        assert g(a) >= 0.0 > g(b)
        assert abs(b - a) <= 1e-9

    def test_passed_end_values_not_evaluated(self):
        g, seen = _counted(lambda x: math.cos(x) - x)
        a, b = brent_root(g, 0.0, 1.0, 1e-12, g_lo=1.0, g_hi=math.cos(1.0) - 1.0)
        assert all(0.0 < x < 1.0 for x in seen)
        assert a in seen and b in seen  # returned ends were evaluated

    @pytest.mark.parametrize("tol", [0.0, 1e-300])
    def test_tolerance_below_float_spacing(self, tol):
        start = time.perf_counter()
        a, b = brent_root(lambda x: 0.02 - x * x, 0.1, 0.2, tol)
        assert time.perf_counter() - start < 1.0
        assert abs(b - a) <= 4 * math.ulp(max(abs(a), abs(b)))
        assert a * a <= 0.02 < b * b

    def test_smooth_root_in_few_evaluations(self):
        g, seen = _counted(lambda x: math.cos(x) - x)
        a, b = brent_root(g, 0.0, 1.0, 1e-12)
        assert abs(b - a) <= 1e-12
        assert len(seen) <= 12  # bisect takes 40 halvings here

    def test_step_function_within_twice_bisect(self):
        # interpolation gains nothing on a step; halving must still finish
        g, seen = _counted(lambda x: 1.0 if x < 0.3 else -1.0)
        a, b = brent_root(g, 0.0, 1.0, 1e-12)
        assert a < 0.3 <= b and b - a <= 1e-12
        halvings = math.ceil(math.log2(1.0 / 1e-12))
        assert len(seen) <= 2 * halvings

    def test_zero_value_does_not_stop_early(self):
        a, b = brent_root(lambda x: 0.5 - x, 0.0, 1.0, 1e-9)
        assert 0.5 - a >= 0.0 > 0.5 - b
        assert b - a <= 1e-9


class TestGoldenMax:
    def test_increasing_returns_upper_end(self):
        assert golden_max(lambda x: x**3, 0.1, 0.7, 1e-10) == (0.7, 0.7**3)

    def test_decreasing_returns_lower_end(self):
        assert golden_max(lambda x: -x, 0.1, 0.7, 1e-10) == (0.1, -0.1)

    def test_interior_maximum_of_concave_quadratic(self):
        x, v = golden_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0, 1e-8)
        assert abs(x - 0.3) <= 1e-8
        assert v == -((x - 0.3) ** 2)

