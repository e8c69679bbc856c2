import math
import time

import pytest

from listradius.solve import bisect, golden_max


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


class TestGoldenMax:
    def test_increasing_returns_upper_end(self):
        assert golden_max(lambda x: x**3, 0.1, 0.7, 1e-10) == (0.7, 0.7**3)

    def test_decreasing_returns_lower_end(self):
        assert golden_max(lambda x: -x, 0.1, 0.7, 1e-10) == (0.1, -0.1)

    def test_interior_maximum_of_concave_quadratic(self):
        x, v = golden_max(lambda t: -((t - 0.3) ** 2), 0.0, 1.0, 1e-8)
        assert abs(x - 0.3) <= 1e-8
        assert v == -((x - 0.3) ** 2)
