import math
import time

import pytest

from listradius.solve import bisect, brent_max, brent_root, golden_max


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


def _grid_values(f, xs):
    return [f(x) for x in xs]


class TestBrentMax:
    def test_increasing_returns_upper_end(self):
        xs = (0.1, 0.4, 0.7)
        f, seen = _counted(lambda x: x**3)
        assert brent_max(f, xs, [x**3 for x in xs], 1e-10) == (0.7, 0.7**3)
        assert seen == [0.7 - 1e-10]  # the shortcut's probe alone

    def test_decreasing_returns_lower_end(self):
        xs = (0.1, 0.4, 0.7)
        assert brent_max(lambda x: -x, xs, [-x for x in xs], 1e-10) == (0.1, -0.1)

    @pytest.mark.parametrize(
        "f",
        [lambda t: -((t - 0.3) ** 2), lambda t: -((t - 0.3) ** 2) * (2.0 - t)],
        ids=["quadratic", "cubic"],
    )
    def test_interior_maximum_within_tol(self, f):
        # both peak at 0.3 with value 0, so no rounding flattens the top
        xs = (0.0, 0.5, 1.0)
        x, v = brent_max(f, xs, _grid_values(f, xs), 1e-8)
        assert abs(x - 0.3) <= 1e-8
        assert v == f(x)

    def test_passed_end_values_not_evaluated(self):
        # no grid value is evaluated again, the bracket ends included
        def g(t):
            return math.sin(3.0 * t) * math.exp(-t)

        f, seen = _counted(g)
        xs = (0.0, 0.5, 1.0)
        x, _ = brent_max(f, xs, _grid_values(g, xs), 1e-10)
        assert all(0.0 < t < 1.0 for t in seen)
        assert not set(seen) & set(xs)
        assert x in seen

    def test_upper_end_shortcut_below_grid_spacing(self):
        # the probe tol below xs[-1] lies beyond its neighbour: that
        # neighbour's value decides, and nothing is evaluated
        def f(x):
            raise AssertionError("f evaluated")

        xs = (0.0, 1e-11, 2e-11)
        assert brent_max(f, xs, [0.0, 1.0, 2.0], 1e-10) == (2e-11, 2.0)

    @pytest.mark.parametrize(
        "g",
        [lambda t: math.sin(40.0 * t), lambda t: -abs(t - 0.5), lambda t: 1.0 if t == 0.5 else 0.0],
        ids=["multimodal", "kink", "spike"],
    )
    def test_never_below_grid_maximum(self, g):
        xs = tuple(k / 8 for k in range(9))
        values = _grid_values(g, xs)
        x, v = brent_max(g, xs, values, 1e-10)
        assert v >= max(values)
        assert v == g(x)

    def test_fewer_evaluations_than_golden_section(self):
        def cubic(t):
            return -((t - 0.3) ** 2) * (2.0 - t)

        f_golden, seen_golden = _counted(cubic)
        f_brent, seen_brent = _counted(cubic)
        golden_max(f_golden, 0.2, 0.6, 1e-10)
        xs = (0.2, 0.4, 0.6)
        x, _ = brent_max(f_brent, xs, _grid_values(cubic, xs), 1e-10)
        assert abs(x - 0.3) <= 1e-10
        assert 2 * len(seen_brent) <= len(seen_golden)
