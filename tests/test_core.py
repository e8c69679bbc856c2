import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from listradius.core import (
    _omega_root,
    admissible_j,
    avg_radius_evaluator,
    avg_radius_poly,
    avg_radius_slope_evaluator,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    krawtchouk_exponent_value,
)
from listradius.bounds import MAX_POLY_L
from listradius.errors import DomainError


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.49991, abs=1e-4)

    def test_symmetry(self):
        for p in np.arange(0.05, 0.5, 0.05):
            assert binary_entropy(float(p)) == pytest.approx(
                binary_entropy(1.0 - float(p)), abs=1e-15
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)


class TestInverseEntropy:
    def test_endpoints(self):
        assert inverse_entropy(1.0) == 0.5
        assert inverse_entropy(0.0) == 0.0

    def test_reference_roundtrip(self):
        assert inverse_entropy(0.49991) == pytest.approx(0.11, abs=1e-4)
        assert inverse_entropy(binary_entropy(0.11)) == pytest.approx(0.11, abs=1e-6)

    def test_roundtrip_grid(self):
        for y in np.arange(0.05, 1.0, 0.05):
            p = inverse_entropy(float(y))
            assert binary_entropy(p) == pytest.approx(float(y), abs=1e-10)

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            inverse_entropy(bad)

    @pytest.mark.parametrize("y", [1e-9, 1e-12, 1e-20, 1e-100, 1e-300])
    def test_relative_precision_at_tiny_values(self, y):
        # a bracket width of 1e-12 in p alone left h(p)/y at 19.3 for y = 1e-12
        assert abs(binary_entropy(inverse_entropy(y)) / y - 1.0) <= 1e-6

    # values of the absolute-width bisection alone, which the relative
    # refinement leaves untouched from y ~ 2.14e-5 = h(1e-6) up
    @pytest.mark.parametrize("y, p", [
        (2.5e-5, 1.1830538824142423e-06),
        (0.01, 0.0008602075054113811),
        (0.1, 0.012986862055640813),
        (0.361, 0.06868578275452819),
        (0.5, 0.1100278644385071),
        (0.9, 0.3160193463231735),
        (0.999, 0.48138566392890425),
    ])
    def test_pinned_values(self, y, p):
        assert inverse_entropy(y) == p

    @pytest.mark.parametrize("y", [5e-324, 1e-323])
    def test_subnormal_values(self, y):
        # the midpoint of the last bracket (0, 5e-324) rounds to 0
        assert inverse_entropy(y) == 5e-324


class TestKrawtchoukExponent:
    def test_left_endpoint_is_entropy(self):
        # at xi = 0 the parameter sits at beta/(1-beta) and the formula
        # collapses to h(beta)
        value = krawtchouk_exponent_value(0.1, 0.0)
        assert value == pytest.approx(binary_entropy(0.1), abs=1e-12)
        assert _omega_root(0.1, 0.0) == pytest.approx(0.1 / 0.9, abs=1e-12)

    def test_right_endpoint_closed_form(self):
        # frozen from (1 - h(0.2) + h(0.1)) / 2 = 0.3735337...
        value = krawtchouk_exponent_value(0.1, 0.2)
        assert value == pytest.approx(0.37353, abs=1e-5)
        closed = 0.5 * (1.0 - binary_entropy(0.2) + binary_entropy(0.1))
        assert value == pytest.approx(closed, abs=1e-12)

    def test_degenerate_half(self):
        assert krawtchouk_exponent_value(0.5, 0.0) == pytest.approx(1.0)

    def test_omega_interval_and_xi_reconstruction(self):
        for beta in (0.05, 0.2, 0.4):
            top = 0.5 - math.sqrt(beta * (1 - beta))
            for xi in np.linspace(0.0, top, 20):
                omega = _omega_root(beta, float(xi))
                lo = beta / (1 - beta)
                hi = math.sqrt(beta / (1 - beta))
                assert lo - 1e-12 <= omega <= hi + 1e-12
                rebuilt = 0.5 * (1 - (1 - beta) * omega - beta / omega)
                assert rebuilt == pytest.approx(float(xi), abs=1e-9)

    def test_strictly_decreasing(self):
        for beta in (0.1, 0.3):
            top = 0.5 - math.sqrt(beta * (1 - beta))
            es = [krawtchouk_exponent_value(beta, x) for x in np.linspace(0.0, top, 100).tolist()]
            assert all(b < a for a, b in zip(es, es[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            krawtchouk_exponent_value(0.1, 0.21)  # past the right endpoint
        with pytest.raises(DomainError):
            krawtchouk_exponent_value(0.0, 0.0)
        with pytest.raises(DomainError):
            krawtchouk_exponent_value(0.1, -0.05)
        with pytest.raises(DomainError):
            krawtchouk_exponent_value(0.1, math.nan)


def _lone_poly(L, j, nu):
    """One j, every term built from scratch, summed in ascending w."""
    excess = 0
    for w in range((L + j) // 2 + 1, L + 1):
        excess = excess + comb(L, w) * (2 * w - L - j) * nu**w * (1 - nu) ** (L - w)
    return (L * nu - excess) / (L + j)


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return type(value), value


POLY_NUS = [0.0, 1.0, 1e-9, 0.3, 0.5, 0.77, 1.0 - 1e-9]


class TestAvgRadiusPoly:
    def test_list3_closed_forms(self):
        # for L = 3: j=0 -> nu(1-nu), j=1 -> 3nu/4 - nu^3/2, j=3 -> nu/2
        for nu in np.arange(0.0, 1.0001, 0.05):
            nu = float(nu)
            assert avg_radius_poly(3, 0, nu) == pytest.approx(nu * (1 - nu), abs=1e-14)
            assert avg_radius_poly(3, 1, nu) == pytest.approx(
                0.75 * nu - 0.5 * nu**3, abs=1e-14
            )
            assert avg_radius_poly(3, 3, nu) == pytest.approx(0.5 * nu, abs=1e-14)

    def test_midpoint_value(self):
        assert avg_radius_poly(3, 1, 0.5) == pytest.approx(0.3125)
        assert avg_radius_poly(3, 0, 0.3) == pytest.approx(0.21)

    def test_zero(self):
        for L in (1, 4, 9):
            for j in range(L + 1):
                assert avg_radius_poly(L, j, 0.0) == 0.0

    def test_exact_fraction(self):
        assert avg_radius_poly(3, 1, Fraction(1, 2)) == Fraction(5, 16)
        nu = Fraction(2, 7)
        for L in (3, 8, 16):
            for j in range(L + 1):
                value = avg_radius_poly(L, j, nu)
                assert type(value) is Fraction
                assert value == _lone_poly(L, j, nu)

    @pytest.mark.parametrize(
        "L, js",
        [(L, tuple(range(L + 1))) for L in range(1, 17)]
        + [(MAX_POLY_L, (0, 1, 3, 511, 513, 1023, 1025))],
    )
    def test_shared_powers_bit_identical(self, L, js):
        # avg_radius_poly, built from the coefficients cached per (L, j),
        # equals a term-by-term sum from scratch to the last bit, on
        # scalars; the evaluator does on an array with 0, 1 and interior
        # points, as the checks hand it one
        nus = np.array(POLY_NUS)
        for j in js:
            for nu in POLY_NUS:
                assert _bits(avg_radius_poly(L, j, nu)) == _bits(_lone_poly(L, j, nu))
            assert _bits(avg_radius_evaluator(L, j)(nus)) == _bits(_lone_poly(L, j, nus))

    @pytest.mark.parametrize(
        "L, js",
        [(L, tuple(range(L + 1))) for L in range(1, 17)]
        + [(MAX_POLY_L, (0, 1, 3, 511, 513, 1023, 1025))],
    )
    def test_evaluator_bit_identical(self, L, js):
        # the unvalidated scalar form used inside list_radius_bound
        for j in js:
            poly = avg_radius_evaluator(L, j)
            for nu in POLY_NUS:
                assert _bits(poly(nu)) == _bits(avg_radius_poly(L, j, nu))

    def test_validation(self):
        with pytest.raises(DomainError):
            avg_radius_poly(3, 4, 0.5)
        with pytest.raises(DomainError):
            avg_radius_poly(0, 0, 0.5)
        with pytest.raises(DomainError):
            avg_radius_poly(3, 1, 1.5)
        with pytest.raises(DomainError):
            avg_radius_evaluator(3, 4)
        with pytest.raises(DomainError):
            avg_radius_evaluator(0, 0)


def _plotkin_sum(L, xi):
    """E[min(W, L+1-W)] / (L+1), W ~ Bino(L+1, xi), summed term by term."""
    acc = 0
    for w in range(L + 2):
        acc = acc + comb(L + 1, w) * min(w, L + 1 - w) * xi**w * (1 - xi) ** (L + 1 - w)
    return acc / (L + 1)


def _exact_tail(n, nu, k):
    """P[V >= k] for V ~ Bino(n, nu), exact for a Fraction nu."""
    return sum(comb(n, v) * nu**v * (1 - nu) ** (n - v) for v in range(max(k, 0), n + 1))


class TestAvgRadiusSlope:
    NUS = [1e-9, 0.1, 0.3, 0.5, 0.77, 0.95, 1.0 - 1e-9]

    @pytest.mark.parametrize("L", range(2, 26))
    def test_matches_tail_form(self, L):
        # the excess-derivative identity (check c07) with V ~ Bino(L - 1, nu):
        # (L + j) P' = L (1 - 2 P[V >= k]) for L + j even, k = (L + j)/2,
        # and P' = 1 - P[V >= k] - P[V >= k + 1] for j = 0 at odd L,
        # k = (L - 1)/2; the value is the evaluator's to the last bit
        for j in admissible_j(L):
            poly, poly_slope = avg_radius_evaluator(L, j), avg_radius_slope_evaluator(L, j)
            for nu in self.NUS:
                x = Fraction(nu)
                if (L + j) % 2 == 0:
                    want = L * (1 - 2 * _exact_tail(L - 1, x, (L + j) // 2)) / (L + j)
                else:
                    k = (L - 1) // 2
                    want = 1 - _exact_tail(L - 1, x, k) - _exact_tail(L - 1, x, k + 1)
                value, slope = poly_slope(nu)
                assert _bits(value) == _bits(poly(nu))
                assert abs(slope - want) <= 1e-12, (j, nu)


class TestPlotkinRadius:
    # the list-L Plotkin radius is avg_radius_poly(L + 1, 0, .)
    def test_reference_value(self):
        # Bino(4, 1/2): (4*1 + 6*2 + 4*1) / 16 / 4
        assert avg_radius_poly(4, 0, 0.5) == pytest.approx(0.3125)

    def test_zero(self):
        for L in (1, 2, 5):
            assert avg_radius_poly(L + 1, 0, 0.0) == 0.0

    def test_even_equals_preceding_odd(self):
        for xi in np.arange(0.0, 1.0001, 0.05):
            assert avg_radius_poly(3, 0, float(xi)) == pytest.approx(
                avg_radius_poly(2, 0, float(xi)), abs=1e-14
            )

    def test_equals_binomial_sum(self):
        # exactly the sum on fractions, within rounding on floats
        for L in range(1, 13):
            for k in range(38):
                xi = Fraction(k, 37)
                assert avg_radius_poly(L + 1, 0, xi) == _plotkin_sum(L, xi)
            for k in range(101):
                xi = k / 100
                assert abs(avg_radius_poly(L + 1, 0, xi) - _plotkin_sum(L, xi)) <= 1e-15


class TestDeltaLp1:
    def test_endpoints(self):
        assert delta_lp1(0.0) == 0.5
        assert delta_lp1(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_reference_value(self):
        # beta = hinv(0.305) = 0.054465..., then 1/2 - sqrt(beta(1-beta))
        assert delta_lp1(0.305) == pytest.approx(0.27310, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_lp1(1.2)


class TestAdmissibleJ:
    def test_odd(self):
        assert admissible_j(3) == (0, 1, 3)
        assert admissible_j(9) == (0, 1, 3, 5, 7, 9)

    def test_even(self):
        assert admissible_j(4) == (0, 2, 4)
        assert admissible_j(2) == (0, 2)
