import math
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from listradius.bounds import (
    MAX_CATALAN_L,
    MAX_POLY_L,
    _solve_xi1_vec,
    _subcode_rate,
    best_upper_bound,
    blinovsky_bound,
    crossover_rate,
    list3_closed_form,
    list3_parameters,
    list_radius_bound,
    sample_curve,
    slope_relaxation_bound,
    solve_xi1,
    split_avg_radius,
    zero_rate_radius,
)
from listradius.core import (
    admissible_j,
    avg_radius_poly,
    binary_entropy,
    inverse_entropy,
    krawtchouk_exponent_value,
)
from listradius.errors import DomainError, NoSolutionError


class TestBlinovsky:
    def test_zero_rate_values(self):
        assert blinovsky_bound(3, 0.0) == pytest.approx(5 / 16)
        assert blinovsky_bound(5, 0.0) == pytest.approx(11 / 32)

    def test_full_rate(self):
        assert blinovsky_bound(3, 1.0) == 0.0

    def test_float_cap_is_tight(self):
        # the cap sits at the last L whose Catalan coefficients fit a float
        assert 0.0 < blinovsky_bound(MAX_CATALAN_L, 0.15) < 0.5
        assert comb(2 * 520, 520) // 521 > sys.float_info.max  # L = 1041
        with pytest.raises(DomainError):
            blinovsky_bound(MAX_CATALAN_L + 1, 0.15)

    def test_zero_rate_matches_exact_radius(self):
        # Catalan partial sums at lam = 1/2 telescope to the closed form
        for L in (1, 3, 5, 7, 9, 11):
            exact = sum(
                Fraction(comb(2 * i - 2, i - 1), i) * Fraction(1, 4) ** i
                for i in range(1, (L + 1) // 2 + 1)
            )
            assert exact == zero_rate_radius(L)
            assert blinovsky_bound(L, 0.0) == pytest.approx(float(exact), abs=1e-12)

    def test_nonincreasing(self):
        for L in (2, 3, 6):
            vals = [blinovsky_bound(L, float(r)) for r in np.arange(0.0, 1.0001, 0.05)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestZeroRateRadius:
    def test_values(self):
        assert zero_rate_radius(3) == Fraction(5, 16)
        assert zero_rate_radius(1) == Fraction(1, 4)
        assert zero_rate_radius(5) == Fraction(11, 32)
        assert zero_rate_radius(11) == Fraction(793, 2048)

    def test_parity_error(self):
        with pytest.raises(DomainError):
            zero_rate_radius(4)


class TestSolveXi1:
    def test_full_rate_endpoint(self):
        for xi0 in (0.1, 0.3, 0.45):
            assert solve_xi1(xi0, binary_entropy(xi0)) == pytest.approx(0.0, abs=1e-11)

    def test_zero_rate_endpoint(self):
        # the defining equation has a quadratic fold at the upper endpoint,
        # so the root there is only sqrt-accurate in the argument
        for xi0 in (0.1, 0.3, 0.45):
            assert solve_xi1(xi0, 0.0) == pytest.approx(
                2 * xi0 * (1 - xi0), abs=1e-8
            )

    def test_solves_the_equation(self):
        xi0, rp = 0.3, 0.4
        x = solve_xi1(xi0, rp)
        rhs = (
            binary_entropy(xi0)
            - xi0 * binary_entropy(x / (2 * xi0))
            - (1 - xi0) * binary_entropy(x / (2 * (1 - xi0)))
        )
        assert rhs == pytest.approx(rp, abs=1e-9)

    def test_matches_list3_parameters(self):
        # at the xi0 endpoint the defining equations coincide
        delta, xi1 = list3_parameters(0.5)
        assert delta == pytest.approx(0.18708, abs=1e-4)
        for R in (0.05, 0.5, 0.9):
            delta, xi1 = list3_parameters(R)
            assert solve_xi1(delta, R - 1.0 + binary_entropy(delta)) == xi1

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_xi1(0.3, binary_entropy(0.3) + 0.1)
        with pytest.raises(NoSolutionError):
            solve_xi1(0.3, -0.1)

    def test_nan_rejected(self):
        with pytest.raises(NoSolutionError):
            solve_xi1(0.3, float("nan"))

    @staticmethod
    def reference_xi1(xi0, r_prime, tol=1e-13):
        """Plain bisection on the defining equation."""
        h0 = binary_entropy(xi0)
        lo, hi = 0.0, 2 * xi0 * (1 - xi0)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            rhs = (
                h0
                - xi0 * binary_entropy(mid / (2 * xi0))
                - (1 - xi0) * binary_entropy(mid / (2 * (1 - xi0)))
            )
            if rhs >= r_prime:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    FRACTIONS = (0.0, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-6, 1.0)

    def test_matches_reference_bisection(self):
        for xi0 in np.linspace(0.01, 0.49, 13):
            xi0 = float(xi0)
            for frac in self.FRACTIONS:
                rp = frac * binary_entropy(xi0)
                # the r_prime = 0 fold is only sqrt-accurate (see above)
                tol = 1e-8 if frac == 0.0 else 1e-11
                assert solve_xi1(xi0, rp) == pytest.approx(
                    self.reference_xi1(xi0, rp), abs=tol
                )

    def test_array_form_matches_scalar(self):
        xi0 = np.repeat(np.linspace(0.01, 0.49, 13), len(self.FRACTIONS))
        frac = np.tile(self.FRACTIONS, 13)
        rp = frac * binary_entropy(xi0)
        got = _solve_xi1_vec(xi0, rp)
        want = [solve_xi1(float(x), float(r)) for x, r in zip(xi0, rp)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)
        # out-of-range subcode rates clamp to the endpoint roots
        np.testing.assert_array_equal(
            _solve_xi1_vec(xi0, rp - 1.0), 2 * xi0 * (1 - xi0)
        )
        np.testing.assert_array_equal(_solve_xi1_vec(xi0, rp + 1.0), 0.0)


def reference_solve_xi1_vec(xi0, r_prime, tol=1e-12):
    """The grid solve before its active set: every Newton pass runs on the
    whole grid, and finished points iterate on frozen values."""
    h0 = binary_entropy(xi0)
    top = 2.0 * xi0 * (1.0 - xi0)
    lo, hi = np.zeros_like(xi0), top.copy()
    x = 0.5 * top
    active = (r_prime > 0.0) & (r_prime < h0)
    for _ in range(100):
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            p, q = x / (2.0 * xi0), x / (2.0 * (1.0 - xi0))
            lp, lq = np.log2(p), np.log2(q)
            lp1, lq1 = np.log2(1.0 - p), np.log2(1.0 - q)
            g = (
                h0
                + xi0 * (p * lp + (1.0 - p) * lp1)
                + (1.0 - xi0) * (q * lq + (1.0 - q) * lq1)
                - r_prime
            )
            slope = 0.5 * (lp + lq - lp1 - lq1)
            step = np.where(slope < 0.0, g / slope, np.inf)
        up = g >= 0.0
        lo = np.where(up, x, lo)
        hi = np.where(up, hi, x)
        small = np.abs(step) <= tol
        x_new = x - step
        x_new = np.where(
            small,
            np.clip(x_new, lo, hi),
            np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi)),
        )
        x = np.where(active, x_new, x)
        active &= ~(small | (hi - lo <= tol))
    return np.where(r_prime >= h0, 0.0, np.where(r_prime <= 0.0, top, x))


class TestSolveXi1Grid:
    @staticmethod
    def grid(R, exponent, n=2000):
        """The xi0 grid and subcode rates of list_radius_bound; neither
        depends on L."""
        beta = inverse_entropy(R)
        xi_max = 0.5 - math.sqrt(beta * (1.0 - beta))
        xs = np.linspace(xi_max / n, xi_max, n)
        return xs, _subcode_rate(R, beta, binary_entropy(beta), xs, exponent)

    @pytest.mark.parametrize("exponent", ["parametric", "binomial"])
    @pytest.mark.parametrize("R", [0.01, 0.1, 0.3, 0.5, 0.8, 0.99])
    def test_bit_identical_to_full_grid_loop(self, R, exponent):
        xs, rp = self.grid(R, exponent)
        if exponent == "binomial" and R < 0.9:
            assert np.any(rp < 0.0)  # infeasible points present
        for tol in (1e-12, 1e-300):  # 1e-300 runs into the iteration cap
            np.testing.assert_array_equal(
                _solve_xi1_vec(xs, rp, tol), reference_solve_xi1_vec(xs, rp, tol)
            )

    def test_bit_identical_at_endpoint_roots(self):
        xs, _ = self.grid(0.2, "parametric", n=300)
        h = binary_entropy(xs)
        frac = np.resize([0.0, 1.0, 0.5, -0.1, 1.1, 1e-9, 1.0 - 1e-9], xs.size)
        rp = frac * h  # exactly 0 and exactly h(xi0) at frac 0 and 1
        for tol in (1e-12, 1e-300):
            got = _solve_xi1_vec(xs, rp, tol)
            np.testing.assert_array_equal(got, reference_solve_xi1_vec(xs, rp, tol))
        assert np.all(got[frac == 1.0] == 0.0)
        np.testing.assert_array_equal(got[frac == 0.0], (2 * xs * (1 - xs))[frac == 0.0])


class TestSplitAvgRadius:
    def test_xi1_zero_collapse(self):
        for L in (2, 3, 5, 9):
            for j in admissible_j(L):
                for xi0 in (0.1, 0.3, 0.45):
                    assert split_avg_radius(L, j, xi0, 0.0) == pytest.approx(
                        xi0 * j / (L + j), abs=1e-13
                    )

    def test_xi1_top_collapse(self):
        for L in (2, 3, 5, 9):
            for j in admissible_j(L):
                for xi0 in (0.1, 0.3, 0.45):
                    top = 2 * xi0 * (1 - xi0)
                    assert split_avg_radius(L, j, xi0, top) == pytest.approx(
                        avg_radius_poly(L, j, xi0), abs=1e-13
                    )


# (L, R, exponent, tau, j) as computed with a plain bisection xi1 solver;
# a change of root finder must reproduce them
PINNED_TAU = [
    (2, 0.1, "parametric", 0.21654143346589566, 0),
    (2, 0.6, "binomial", 0.07765209928318546, 0),
    (3, 0.05, "parametric", 0.27304042193653866, 1),
    (3, 0.3, "binomial", 0.1734194749217764, 1),
    (3, 0.8, "parametric", 0.04009676441146817, 1),
    (4, 0.2, "parametric", 0.22102022300311874, 0),
    (4, 0.45, "binomial", 0.13189473321398204, 0),
    (5, 0.15, "binomial", 0.2490216619410412, 1),
    (5, 0.5, "parametric", 0.12120286966192206, 1),
    (6, 0.35, "parametric", 0.17312644919872855, 0),
    (7, 0.1, "parametric", 0.28770129030794944, 1),
    (7, 0.25, "binomial", 0.215306680812536, 1),
    (8, 0.7, "binomial", 0.0684705493649582, 2),
    (9, 0.12, "parametric", 0.2851675798143507, 0),
    (9, 0.14, "binomial", 0.2747534154377186, 0),
    (10, 0.9, "parametric", 0.02086328511109112, 4),
    (11, 0.08, "parametric", 0.31709145452523047, 0),
    (11, 0.1, "binomial", 0.30482270218608387, 0),
    (13, 0.3, "parametric", 0.204528516869662, 1),
    (15, 0.02, "binomial", 0.3762439211172396, 1),
]

# Exact outputs (tau, xi0, xi1, j) of list_radius_bound, recorded before the
# endpoint shortcut of the refinement: an interior maximizer comes from
# golden section, an endpoint one (xi0 = 1/2 - sqrt(beta(1-beta))) from the
# shortcut.  At the near-unit rates xi_max is below the refinement
# tolerance bounds._REFINE_TOL.
WITNESS_PINS = [
    # interior
    (2, 0.1, "parametric", 0.2165414334658041, 0.38676267584802193, 0.3344351931934144, 0),
    (2, 0.6, "binomial", 0.07765209928298707, 0.12878355769809413, 0.0998811203316244, 0),
    (4, 0.2, "parametric", 0.22102022300301466, 0.326144737942275, 0.2652081974708382, 0),
    (4, 0.45, "binomial", 0.1318947332139182, 0.181753753117018, 0.1556738049435017, 0),
    (6, 0.35, "parametric", 0.1731264491985242, 0.25137981010553484, 0.18919261464458106, 0),
    (9, 0.12, "parametric", 0.2851675798141723, 0.3730678481900424, 0.3186294825544488, 0),
    (9, 0.14, "binomial", 0.27475341543755255, 0.3317332594269466, 0.31765685633019763, 0),
    (11, 0.08, "parametric", 0.3170914545250484, 0.40077223079600083, 0.35212859856486023, 0),
    (11, 0.1, "binomial", 0.304822702185922, 0.3593792907159594, 0.34845735944013656, 0),
    # endpoint
    (3, 0.05, "parametric", 0.27304042193657657, 0.42532919113016965, 0.3830834790158536, 1),
    (3, 0.3, "binomial", 0.17341947492183613, 0.2754902110958689, 0.21204906340227334, 1),
    (3, 0.8, "parametric", 0.0400967644114716, 0.07110259869867164, 0.039930435914885994, 1),
    (5, 0.15, "binomial", 0.2490216619411717, 0.3548253597013539, 0.2968721618532065, 1),
    (5, 0.5, "parametric", 0.12120286966189067, 0.18707551472342626, 0.1294895105695933, 1),
    (7, 0.1, "parametric", 0.2877012903079902, 0.38678249486237315, 0.3344275389084732, 1),
    (7, 0.25, "binomial", 0.21530668081270907, 0.3001140078652475, 0.23721657968157686, 1),
    (8, 0.7, "binomial", 0.06847054936501526, 0.10825507774555115, 0.066100719082477, 2),
    (10, 0.9, "parametric", 0.02086328511120881, 0.035079448644558586, 0.017413390341570894, 4),
    (13, 0.3, "parametric", 0.20452851686980783, 0.2754902110958689, 0.21204906340227328, 1),
    (15, 0.02, "binomial", 0.3762439211170906, 0.45634381802989116, 0.42592776209622596, 1),
    # endpoint, xi_max < bounds._REFINE_TOL
    (3, 0.9999999999, "parametric", 1.7328721790832443e-11, 3.465744358166489e-11, 4.3909677742729245e-12, 3),
    (3, 0.999999999999, "parametric", 1.7330581414398694e-13, 3.4661162828797387e-13, 1.9029761324820036e-14, 3),
    (9, 0.999999999999, "binomial", 1.7330581414398696e-13, 3.4661162828797387e-13, 1.9029761324820036e-14, 9),
    (12, 0.9999999999, "binomial", 1.7467438671233486e-11, 3.465744358166489e-11, 4.3909677742729245e-12, 10),
]


class TestListRadiusBound:
    @pytest.mark.parametrize("L, R, exponent, tau, j", PINNED_TAU)
    def test_pinned_values(self, L, R, exponent, tau, j):
        got, w = list_radius_bound(L, R, exponent=exponent)
        assert got == pytest.approx(tau, abs=1e-12)
        assert w.j == j

    @pytest.mark.parametrize("L, R, exponent, tau, xi0, xi1, j", WITNESS_PINS)
    def test_exact_witness_pins(self, L, R, exponent, tau, xi0, xi1, j):
        got, w = list_radius_bound(L, R, exponent=exponent)
        assert (got, w.xi0, w.xi1, w.j) == (tau, xi0, xi1, j)
        xi_max = 0.5 - math.sqrt(w.beta * (1.0 - w.beta))
        assert w.xi0 <= xi_max

    def test_below_catalan_at_published_edge(self):
        tau, _ = list_radius_bound(3, 0.361)
        assert tau == pytest.approx(blinovsky_bound(3, 0.361), abs=2e-3)

    def test_zero_rate_approach(self):
        assert list_radius_bound(3, 1e-3)[0] == pytest.approx(5 / 16, abs=5e-3)
        assert list_radius_bound(3, 1e-3)[0] < 5 / 16

    def test_dominated_by_relaxation(self):
        for L in (3, 4, 5):
            for R in (0.1, 0.4, 0.7):
                assert (
                    list_radius_bound(L, R)[0]
                    <= slope_relaxation_bound(L, R).tau + 1e-10
                )

    def test_witness_invariants(self):
        for L in (3, 4, 9):
            for R in (0.1, 0.3, 0.6):
                tau, w = list_radius_bound(L, R)
                ximax = 0.5 - math.sqrt(w.beta * (1 - w.beta))
                assert -1e-8 <= w.xi0 <= ximax + 1e-8
                assert -1e-8 <= w.xi1 <= 2 * w.xi0 * (1 - w.xi0) + 1e-8
                assert w.j in admissible_j(L)
                assert w.theta == pytest.approx(tau, abs=1e-12)
                assert split_avg_radius(L, w.j, w.xi0, w.xi1) == pytest.approx(
                    w.theta, abs=1e-8
                )
                rp = (
                    R
                    + binary_entropy(w.beta)
                    - 2 * krawtchouk_exponent_value(w.beta, w.xi0)
                )
                assert rp == pytest.approx(w.r_prime, abs=1e-8)

    def test_endpoint_maximizer_small_list(self):
        # for L=3 the maximizer is j=1 at the xi0 endpoint (that is what
        # makes the explicit closed form exact)
        _, w = list_radius_bound(3, 0.2)
        ximax = 0.5 - math.sqrt(w.beta * (1 - w.beta))
        assert w.j == 1
        assert w.xi0 == pytest.approx(ximax, abs=1e-8)

    def test_explicit_beta(self):
        R = 0.4
        beta = inverse_entropy(0.3)  # h(beta) < R is allowed
        tau, w = list_radius_bound(3, R, beta=beta)
        assert w.beta == beta
        assert 0.0 < tau < 0.5
        with pytest.raises(DomainError):
            list_radius_bound(3, 0.2, beta=inverse_entropy(0.3))

    def test_exponent_modes_agree_at_endpoint_regime(self):
        # for L=3 the maximizer sits at the endpoint where the binomial
        # estimate is exact, so the two treatments coincide
        for R in (0.1, 0.3, 0.5):
            a = list_radius_bound(3, R, exponent="parametric")[0]
            b = list_radius_bound(3, R, exponent="binomial")[0]
            assert a == pytest.approx(b, abs=1e-9)

    def test_binomial_mode_never_stronger(self):
        for L in (3, 9):
            for R in (0.1, 0.2, 0.3):
                a = list_radius_bound(L, R, exponent="parametric")[0]
                b = list_radius_bound(L, R, exponent="binomial")[0]
                assert b >= a - 1e-12

    def test_even_list_size(self):
        tau, w = list_radius_bound(2, 0.3)
        assert 0.0 < tau < 0.5
        assert w.j in (0, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            list_radius_bound(1, 0.3)
        with pytest.raises(DomainError):
            list_radius_bound(3, 0.0)
        with pytest.raises(DomainError):
            list_radius_bound(3, 0.3, exponent="bogus")
        with pytest.raises(DomainError):
            list_radius_bound(MAX_POLY_L + 1, 0.3)

    def test_float_cap_is_tight(self):
        # the cap sits at the last L whose polynomial coefficients fit a
        # float; the next one overflows inside avg_radius_poly
        assert avg_radius_poly(MAX_POLY_L, 0, 0.3) == pytest.approx(0.3)
        with pytest.raises(OverflowError):
            avg_radius_poly(MAX_POLY_L + 1, 0, 0.3)


class TestList3ClosedForm:
    def test_zero_rate_limit(self):
        assert list3_closed_form(1e-4) == pytest.approx(5 / 16, abs=1e-3)

    def test_distance_at_half_rate(self):
        delta, _ = list3_parameters(0.5)
        assert delta == pytest.approx(0.18708, abs=1e-4)

    def test_xi1_interval(self):
        for R in (0.1, 0.5, 0.9):
            delta, xi1 = list3_parameters(R)
            assert 0.0 <= xi1 <= 2 * delta * (1 - delta) + 1e-12


class TestSlopeRelaxation:
    def test_zero_rate(self):
        sb = slope_relaxation_bound(3, 0.0)
        assert sb.tau == pytest.approx(5 / 16, abs=1e-12)
        assert sb.max_at_j1

    def test_reference_point(self):
        # delta_lp1(0.1) = 0.386782...; frozen from the involution chain
        sb = slope_relaxation_bound(3, 0.1)
        d = 0.386782
        assert sb.tau_j1 == pytest.approx(0.75 * d - 0.5 * d**3, abs=1e-5)
        assert sb.max_at_j1

    def test_float_cap(self):
        with pytest.raises(DomainError):
            slope_relaxation_bound(MAX_POLY_L + 1, 0.2)

    def test_even_list_size_max_at_zero(self):
        sb = slope_relaxation_bound(4, 0.01)
        assert sb.j_star == 0
        assert sb.tau_j1 is None


class TestCrossover:
    def test_list3(self):
        res = crossover_rate(3)
        assert res.r_cross == pytest.approx(0.361, abs=0.002)
        # at the crossover the two bounds agree to solver tolerance
        assert res.tau_at_cross == pytest.approx(
            blinovsky_bound(3, res.r_cross), abs=1e-4
        )

    def test_parity_error(self):
        with pytest.raises(DomainError):
            crossover_rate(4)

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
    def test_crossover_on_central_side(self, L):
        # the bisection returns the end of its bracket where the central
        # bound is at most the Catalan sum, and tau_at_cross is that value
        res = crossover_rate(L)
        assert res.tau_at_cross <= blinovsky_bound(L, res.r_cross)

    def test_memo_shared_across_spellings(self):
        assert crossover_rate(3) is crossover_rate(3, grid=2000)


class TestBestUpperBound:
    def test_list3_winner_flips(self):
        tau_low, label_low = best_upper_bound(3, 0.2)
        assert label_low == "theorem1"
        assert tau_low == pytest.approx(list_radius_bound(3, 0.2)[0], abs=1e-12)
        tau_high, label_high = best_upper_bound(3, 0.45)
        assert label_high == "blinovsky"
        assert tau_high == pytest.approx(blinovsky_bound(3, 0.45), abs=1e-12)

    def test_list1_labels(self):
        tau, label = best_upper_bound(1, 0.2)
        assert label == "lp1"  # agreement regime: tie goes to the simpler bound
        tau2, label2 = best_upper_bound(1, 0.5)
        assert label2 == "lp2"
        assert tau2 < tau

    def test_list2_includes_abl(self):
        tau, label = best_upper_bound(2, 0.3)
        assert label in ("theorem1", "blinovsky", "abl2")


class TestSampleCurve:
    def test_blinovsky_grid(self):
        rates = [0.01 * k for k in range(1, 100)]
        curve = sample_curve("blinovsky", 3, rates)
        assert len(curve.points) == 99
        assert curve.points[0].tau == pytest.approx(5 / 16, abs=6e-3)

    def test_witness_attached_only_for_central(self):
        curve = sample_curve("theorem1", 3, [0.2, 0.4])
        assert all(p.witness is not None for p in curve.points)
        curve2 = sample_curve("blinovsky", 3, [0.2])
        assert curve2.points[0].witness is None

    def test_bound_compat_errors(self):
        with pytest.raises(DomainError):
            sample_curve("abl2", 3, [0.2])
        with pytest.raises(DomainError):
            sample_curve("lp1", 2, [0.2])

    def test_infeasible_row_noted(self):
        # explicit beta with h(beta) > rate fails per-row, not globally
        beta = inverse_entropy(0.5)
        curve = sample_curve("theorem1", 3, [0.3, 0.7], beta=beta)
        assert curve.points[0].tau is None
        assert curve.points[0].note
        assert curve.points[1].tau is not None
