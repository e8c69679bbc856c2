import math
import random
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listradius import bounds, checks
from listradius.bounds import (
    BOUNDS,
    EXPONENT_MODES,
    MAX_CATALAN_L,
    MAX_POLY_L,
    _CROSSOVER_SCAN,
    _REFINE_TOL,
    RadiusWitness,
    _objective,
    _rate_geometry,
    _refine,
    _split_args,
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
from listradius.cli import _rate_grid
from listradius.core import (
    admissible_j,
    avg_radius_evaluator,
    avg_radius_poly,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    krawtchouk_exponent_value,
)
from listradius.errors import DomainError, NoSolutionError
from listradius.lp import abl2_tau, lp1_tau, lp2_tau, r_lp2
from listradius.solve import golden_max

# Claims over random (L, R): L in 2..15 (1..15 for best) and R in
# [0.005, 0.995], at the tolerances of the fixed-point tests.
_property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_rates = st.floats(0.005, 0.995)


class TestBlinovsky:
    def test_full_rate(self):
        assert blinovsky_bound(3, 1.0) == 0.0

    def test_float_cap_is_tight(self):
        # the cap sits at the last L whose Catalan coefficients fit a float
        assert 0.0 < blinovsky_bound(MAX_CATALAN_L, 0.15) < 0.5
        assert comb(2 * 520, 520) // 521 > sys.float_info.max  # L = 1041
        with pytest.raises(DomainError):
            blinovsky_bound(MAX_CATALAN_L + 1, 0.15)

    def test_zero_rate_matches_exact_radius(self):
        # the float Catalan sum at lam = 1/2; check_blinovsky_zero_exact
        # telescopes the exact sum
        for L in (1, 3, 5, 7, 9, 11):
            assert blinovsky_bound(L, 0.0) == pytest.approx(float(zero_rate_radius(L)), abs=1e-12)

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

    def test_tolerance_below_float_spacing_terminates(self, monkeypatch):
        # 1e-300 is never reached, so the iteration cap ends the solve
        cases = [
            (xi0, frac * binary_entropy(xi0))
            for xi0 in np.linspace(0.01, 0.49, 13).tolist()
            for frac in self.FRACTIONS
        ]
        expected = [solve_xi1(xi0, rp) for xi0, rp in cases]
        monkeypatch.setattr(bounds, "_XI1_TOL", 1e-300)
        for (xi0, rp), want in zip(cases, expected):
            assert solve_xi1(xi0, rp) == pytest.approx(want, abs=1e-12)


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

# Exact outputs (tau, xi0, xi1, j) of list_radius_bound: an interior
# maximizer comes from the root of the objective's slope, an endpoint one
# (xi0 = 1/2 - sqrt(beta(1-beta))) from the slope's sign there.  The
# endpoint rows were recorded before either, the interior rows with one
# root search over the searched xi0 interval.  At the near-unit rates
# xi_max is below the refinement tolerance bounds._REFINE_TOL.
# dense_xi0 is the xi0 of an interior row as a 2000-point grid over
# (0, xi_max] bracketed it, which a refinement from another bracket must
# find to 1e-7; None on the endpoint rows.  ref_xi0 is the row's true
# maximizer to 40 digits, for the float beta and rate of the row: mpmath
# at 60 digits, xi1 by a bracketed root of its equation, the polynomial
# summed exactly, and the maximizer as the root of mpmath's numerical
# derivative of theta_j near the witness xi0, independent of the closed-
# form slope; the refinement must find it to 2e-10.
WITNESS_PINS = [
    # interior
    (2, 0.1, "parametric", 0.216541433465804, 0.386762676575478, 0.3344351929157824, 0,
     0.38676267584802193, "0.3867626765262884551455971353037764959663"),
    (2, 0.6, "binomial", 0.07765209928298702, 0.12878355641508327, 0.0998811206717302, 0,
     0.12878355769809413, "0.1287835564079402733718179789497480068777"),
    (4, 0.2, "parametric", 0.2210202230030146, 0.32614473956137957, 0.26520819698627807, 0,
     0.326144737942275, "0.3261447395113800821208907568887294852661"),
    (4, 0.45, "binomial", 0.13189473321391817, 0.18175375296831325, 0.15567380499722494, 0,
     0.181753753117018, "0.181753752968309602737678366904404731412"),
    (6, 0.35, "parametric", 0.17312644919852416, 0.25137980934758025, 0.18919261480022337, 0,
     0.25137981010553484, "0.2513798093496596259001150954585729048431"),
    (9, 0.12, "parametric", 0.2851675798141722, 0.37306784805982235, 0.31862948259676444, 0,
     0.3730678481900424, "0.3730678480598308439721417209224095009771"),
    (9, 0.14, "binomial", 0.27475341543755244, 0.3317332658706965, 0.3176568524114769, 0,
     0.3317332594269466, "0.3317332658227942858020390500028016290599"),
    (11, 0.08, "parametric", 0.31709145452504817, 0.4007722311179229, 0.35212859845098105, 0,
     0.40077223079600083, "0.4007722310679291490244007383449951230841"),
    (11, 0.1, "binomial", 0.30482270218592206, 0.359379283582822, 0.3484573641588744, 0,
     0.3593792907159594, "0.3593792835840314340044454346490274144542"),
    # endpoint
    (3, 0.05, "parametric", 0.27304042193657657, 0.42532919113016965, 0.3830834790158536, 1, None, None),
    (3, 0.3, "binomial", 0.17341947492183613, 0.2754902110958689, 0.21204906340227334, 1, None, None),
    (3, 0.8, "parametric", 0.0400967644114716, 0.07110259869867164, 0.039930435914885994, 1, None, None),
    (5, 0.15, "binomial", 0.2490216619411717, 0.3548253597013539, 0.2968721618532065, 1, None, None),
    (5, 0.5, "parametric", 0.12120286966189067, 0.18707551472342626, 0.1294895105695933, 1, None, None),
    (7, 0.1, "parametric", 0.2877012903079902, 0.38678249486237315, 0.3344275389084732, 1, None, None),
    (7, 0.25, "binomial", 0.21530668081270907, 0.3001140078652475, 0.23721657968157686, 1, None, None),
    (8, 0.7, "binomial", 0.06847054936501526, 0.10825507774555115, 0.066100719082477, 2, None, None),
    (10, 0.9, "parametric", 0.02086328511120881, 0.035079448644558586, 0.017413390341570894, 4, None, None),
    (13, 0.3, "parametric", 0.20452851686980783, 0.2754902110958689, 0.21204906340227328, 1, None, None),
    (15, 0.02, "binomial", 0.3762439211170906, 0.45634381802989116, 0.42592776209622596, 1, None, None),
    # endpoint, xi_max < bounds._REFINE_TOL
    (3, 0.9999999999, "parametric", 1.7328721790832443e-11, 3.465744358166489e-11, 4.3909677742729245e-12, 3, None, None),
    (3, 0.999999999999, "parametric", 1.7330581414398694e-13, 3.4661162828797387e-13, 1.9029761324820036e-14, 3, None, None),
    (9, 0.999999999999, "binomial", 1.7330581414398696e-13, 3.4661162828797387e-13, 1.9029761324820036e-14, 9, None, None),
    (12, 0.9999999999, "binomial", 1.7467438671233486e-11, 3.465744358166489e-11, 4.3909677742729245e-12, 10, None, None),
]


def _search_j(L, j, solve, lo, hi):
    """(xi0, theta) of one j's search over [lo, hi]."""
    return _refine(_objective(solve, L, j), lo, hi)


def _full_search(L, solve, lo, hi):
    """(tau, xi0, j) of the search without the concavity cap: every
    admissible j over [lo, hi], ties going to the smallest j."""
    best = None
    for j in admissible_j(L):
        xi0, t = _search_j(L, j, solve, lo, hi)
        if best is None or t > best[0]:
            best = (t, xi0, j)
    return best


def _check_at_least_dense_scan(L, R, exponent, points=512):
    """tau is at least, less rounding, every theta_j of every admissible j
    at points xi0 spread evenly over the searched [lo, hi]."""
    tau = list_radius_bound(L, R, exponent=exponent)[0]
    _, lo, hi, solve = _rate_geometry(R, None, exponent)
    step = (hi - lo) / (points - 1)
    xs = [lo + k * step for k in range(points - 1)] + [hi]
    for j in admissible_j(L):
        f = _objective(solve, L, j)
        assert tau >= max(f(x)[0] for x in xs) - 1e-14, j


# Seeded cases of the dense-grid audit, L <= 31 and R in [0.005, 0.995]
_audit_rng = random.Random(29)
DENSE_AUDIT = [
    (
        _audit_rng.randint(2, 31),
        round(_audit_rng.uniform(0.005, 0.995), 4),
        _audit_rng.choice(EXPONENT_MODES),
    )
    for _ in range(20)
]


class TestListRadiusBound:
    @pytest.mark.parametrize(
        "L, R, exponent, tau, j", PINNED_TAU,
        ids=[f"L{L}-R{R}-{exponent}" for L, R, exponent, *_ in PINNED_TAU],
    )
    def test_pinned_values(self, L, R, exponent, tau, j):
        got, w = list_radius_bound(L, R, exponent=exponent)
        assert got == pytest.approx(tau, abs=1e-12)
        assert w.j == j

    @pytest.mark.parametrize(
        "L, R, exponent, tau, xi0, xi1, j, dense_xi0, ref_xi0", WITNESS_PINS,
        ids=[f"L{L}-R{R}-{exponent}" for L, R, exponent, *_ in WITNESS_PINS],
    )
    def test_exact_witness_pins(self, L, R, exponent, tau, xi0, xi1, j, dense_xi0, ref_xi0):
        got, w = list_radius_bound(L, R, exponent=exponent)
        if ref_xi0 is not None:
            assert abs(w.xi0 - float(ref_xi0)) <= 2e-10
            assert w.xi0 == pytest.approx(dense_xi0, abs=1e-7)
        assert (got, w.xi0, w.xi1, w.j) == (tau, xi0, xi1, j)
        xi_max = 0.5 - math.sqrt(w.beta * (1.0 - w.beta))
        assert w.xi0 <= xi_max

    @pytest.mark.parametrize("L, R, exponent", DENSE_AUDIT)
    def test_grid_agrees_with_dense_grid(self, L, R, exponent):
        # the search takes each j's maximum from the slope's signs at the
        # two ends of [lo, hi] and one root search, which assumes theta_j
        # rises and then falls there: no j's 512-point scan may exceed tau
        _check_at_least_dense_scan(L, R, exponent)

    @settings(derandomize=True, database=None, deadline=None, max_examples=10)
    @given(st.integers(2, 31), _rates, st.sampled_from(EXPONENT_MODES))
    def test_at_least_dense_scan(self, L, R, exponent):
        _check_at_least_dense_scan(L, R, exponent)

    def test_grid_starts_at_feasible_end(self):
        # the binomial subcode rate is negative below h^-1(1 - R), here on
        # all but the top 2% of (0, xi_max]: a grid spanning all of it
        # brackets the wrong cell and returns a tau 7.4e-6 too low, which
        # is no upper bound
        tau, w = list_radius_bound(75, 0.001, exponent="binomial")
        assert tau == pytest.approx(0.4514483035444498, abs=1e-12)
        assert w.j == 0

    def test_below_catalan_at_published_edge(self):
        tau, _ = list_radius_bound(3, 0.361)
        assert tau == pytest.approx(blinovsky_bound(3, 0.361), abs=2e-3)

    def test_zero_rate_approach(self):
        assert list_radius_bound(3, 1e-3)[0] < 5 / 16

    def test_tiny_rates(self):
        # beta = h^-1(R) to within 1e-12 in beta alone gave both rates one
        # beta, with h(beta) 19 times the smaller rate, and a tau that was
        # not an upper bound there
        tau_12, w_12 = list_radius_bound(3, 1e-12)
        tau_11, _ = list_radius_bound(3, 1e-11)
        assert tau_12 > tau_11
        assert binary_entropy(w_12.beta) == pytest.approx(1e-12, rel=1e-6)

    @_property_settings
    @given(st.integers(2, 15), _rates, st.sampled_from(EXPONENT_MODES))
    @example(3, 0.1, "parametric")
    @example(3, 0.3, "parametric")
    @example(3, 0.6, "parametric")
    @example(4, 0.1, "parametric")
    @example(4, 0.3, "parametric")
    @example(4, 0.6, "parametric")
    @example(9, 0.1, "parametric")
    @example(9, 0.3, "parametric")
    @example(9, 0.6, "parametric")
    def test_witness_invariants(self, L, R, exponent):
        tau, w = list_radius_bound(L, R, exponent=exponent)
        ximax = 0.5 - math.sqrt(w.beta * (1 - w.beta))
        assert -1e-8 <= w.xi0 <= ximax + 1e-8
        assert -1e-8 <= w.xi1 <= 2 * w.xi0 * (1 - w.xi0) + 1e-8
        assert w.j in admissible_j(L)
        assert split_avg_radius(L, w.j, w.xi0, w.xi1) == pytest.approx(tau, abs=1e-8)
        if exponent == "parametric":
            rp = R + binary_entropy(w.beta) - 2 * krawtchouk_exponent_value(w.beta, w.xi0)
        else:
            rp = R + binary_entropy(w.xi0) - 1
        assert rp == pytest.approx(w.r_prime, abs=1e-8)

    def test_records_are_read_only(self):
        point = sample_curve("theorem1", 3, [0.2])[0]
        records = [
            (point, "columns"),
            (slope_relaxation_bound(3, 0.2), "tau"),
            (point, "tau"),
            (r_lp2(0.1)[1], "alpha"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)

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


def _unpruned_bound(L, R, exponent):
    """list_radius_bound's (tau, witness) by the search without the
    concavity cap."""
    beta, lo, hi, solve = _rate_geometry(R, None, exponent)
    tau, xi0, j = _full_search(L, solve, lo, hi)
    xi1, r_prime = solve(xi0)[:2]
    return tau, RadiusWitness(xi0=xi0, xi1=xi1, j=j, beta=beta, r_prime=r_prime)


def _differs_from_unpruned(L, R, exponent):
    return repr(list_radius_bound(L, R, exponent=exponent)) != repr(_unpruned_bound(L, R, exponent))


class TestConcavityCap:
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(st.integers(2, 301), _rates, st.sampled_from(EXPONENT_MODES))
    @example(101, 0.05, "parametric")
    @example(101, 0.3, "binomial")
    @example(301, 0.01, "binomial")
    @example(301, 0.4, "parametric")
    @example(101, 0.9999999999, "parametric")
    @example(12, 0.9999999999, "binomial")
    @example(301, 0.999999999999, "binomial")
    def test_equals_unpruned_search(self, L, R, exponent):
        assert not _differs_from_unpruned(L, R, exponent)

    @pytest.mark.parametrize("L, R", [(3, 0.2), (12, 0.05), (51, 0.5), (101, 0.3), (301, 0.01)])
    @pytest.mark.parametrize("exponent", EXPONENT_MODES)
    def test_cap_bounds_each_searched_max(self, L, R, exponent):
        # theta_j(xi0) <= P_j(xi0) <= P_j(xi_max) for every admissible j
        _, lo, hi, solve = _rate_geometry(R, None, exponent)
        for j in admissible_j(L):
            t = _search_j(L, j, solve, lo, hi)[1]
            assert avg_radius_poly(L, j, hi) >= t - 1e-12, j

    def test_planted_low_cap_is_caught(self, monkeypatch):
        # a negative slack prunes as if every cap were that fraction too
        # low.  At 4% the comparison catches it at an ordinary rate, at
        # 10% at a near-unit rate too
        monkeypatch.setattr(bounds, "_CAP_SLACK", -0.04)
        assert any(_differs_from_unpruned(L, R, e) for L, R, e, *_ in PINNED_TAU + WITNESS_PINS)
        monkeypatch.setattr(bounds, "_CAP_SLACK", -0.1)
        assert _differs_from_unpruned(9, 0.999999999999, "binomial")

    @pytest.mark.parametrize(
        "L, R, exponent, searched",
        [(101, 0.9999999999, "parametric", 47), (12, 0.9999999999, "binomial", 6)],
    )
    def test_prunes_at_near_unit_rates(self, monkeypatch, L, R, exponent, searched):
        # every value and cap there lies below 1e-10, so the slack is
        # relative to the best value; an absolute one pruned no shift count
        calls = []

        def counted(*args):
            calls.append(args)
            return _objective(*args)

        monkeypatch.setattr(bounds, "_objective", counted)
        list_radius_bound(L, R, exponent=exponent)
        assert len(calls) == searched < len(admissible_j(L))


# Seeded interior points of the slope test: L, R, j and the fraction u of
# the way up the searched xi0 interval
_slope_rng = random.Random(3)
SLOPE_CASES = [
    (L, round(_slope_rng.uniform(0.02, 0.98), 4), _slope_rng.choice(admissible_j(L)), _slope_rng.random())
    for L in (_slope_rng.randint(2, 15) for _ in range(20))
]


def _central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestObjectiveSlope:
    @pytest.mark.parametrize("exponent", EXPONENT_MODES)
    def test_matches_central_differences(self, exponent):
        # a step of 1e-6 xi_max leaves the difference quotient about
        # 1e-16/h off, at most 5e-9 on these cases.  theta, taken from the
        # slope pass, is bit for bit the value kernel's
        for L, R, j, u in SLOPE_CASES:
            _, lo, hi, solve = _rate_geometry(R, None, exponent)
            x = lo + u * (hi - lo)
            xi1, _, a1, a2, _ = solve(x)
            assert 0.0 < xi1 < 2.0 * x * (1.0 - x)
            f = _objective(solve, L, j)
            theta, slope = f(x)
            poly = avg_radius_evaluator(L, j)
            assert theta == x * poly(a1) + (1.0 - x) * poly(a2)
            fd = _central_difference(lambda t: f(t)[0], x, 1e-6 * hi)
            assert slope == pytest.approx(fd, abs=1e-7), (L, R, j, x)

    def test_clamp_branches(self):
        # xi1 = 0 where the subcode rate exceeds h(xi0), here from a beta
        # with h(beta) = 0.2 < R: theta = xi0 j/(L+j)
        *_, solve = _rate_geometry(0.5, inverse_entropy(0.2), "parametric")
        for L, j in ((5, 3), (4, 0), (9, 1)):
            f = _objective(solve, L, j)
            for x in (0.015, 0.03, 0.04):
                assert solve(x)[0] == 0.0
                fd = _central_difference(lambda t: f(t)[0], x, 1e-6)
                assert f(x)[1] == j / (L + j) == pytest.approx(fd)

        # xi1 = 2 xi0 (1 - xi0) at a zero subcode rate: theta = P(xi0)
        def top(x):
            xi1 = 2.0 * x * (1.0 - x)
            return (xi1, 0.0, *_split_args(x, xi1), 0.0)

        for L, j in ((5, 3), (4, 0), (9, 1)):
            f = _objective(top, L, j)
            for x in (0.05, 0.2, 0.35):
                fd = _central_difference(lambda t: f(t)[0], x, 1e-6)
                assert f(x)[1] == pytest.approx(fd, abs=1e-8)
            # below 1.1e-16 a1 rounds to 0, where the slope kernel would
            # divide by nu; theta = (1 - xi0) P(xi0) there
            assert top(1e-17)[2] == 0.0
            assert f(1e-17)[0] == pytest.approx(avg_radius_poly(L, j, 1e-17), rel=1e-12)


def _counted(g):
    seen = []

    def wrapped(x):
        seen.append(x)
        return g(x)

    return wrapped, seen


def _quadratic(t):
    return -((t - 0.3) ** 2), -2.0 * (t - 0.3)


def _cubic(t):
    return -((t - 0.3) ** 2) * (2.0 - t), (t - 0.3) * (3.0 * t - 4.3)


class TestRefine:
    # _refine on functions t -> (value, slope), apart from the central
    # objective
    @staticmethod
    def _run(f, lo, hi):
        counted, seen = _counted(f)
        return _refine(counted, lo, hi), seen

    def test_increasing_returns_upper_end(self):
        # the slope's sign at hi alone decides
        got, seen = self._run(lambda t: (t**3, 3.0 * t * t), 0.1, 0.7)
        assert got == (0.7, 0.7**3)
        assert seen == [0.7]

    def test_decreasing_returns_lower_end(self):
        got, seen = self._run(lambda t: (-t, -1.0), 0.1, 0.7)
        assert got == (0.1, -0.1)
        assert seen == [0.7, 0.1]

    @pytest.mark.parametrize("f", [_quadratic, _cubic], ids=["quadratic", "cubic"])
    def test_interior_maximum_within_tol(self, f):
        # both peak at 0.3 with value 0, so no rounding flattens the top
        (x, v), _ = self._run(f, 0.0, 1.0)
        assert abs(x - 0.3) <= _REFINE_TOL
        assert v == f(x)[0]

    def test_passed_end_values_not_evaluated(self):
        # each end once, hi first, and the value at the returned point is
        # the one its slope came with
        def f(t):
            s, c, e = math.sin(3.0 * t), math.cos(3.0 * t), math.exp(-t)
            return s * e, (3.0 * c - s) * e

        (x, v), seen = self._run(f, 0.0, 1.0)
        assert seen[:2] == [1.0, 0.0]
        assert x in seen[2:] and v == f(x)[0]

    @pytest.mark.parametrize("f", [_quadratic, _cubic], ids=["quadratic", "cubic"])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.2, 0.6), (0.25, 0.3000001)])
    def test_evaluates_once_per_point(self, f, lo, hi):
        # the value at the bracket ends comes from the evaluation that gave
        # their slope, never from a second one
        _, seen = self._run(f, lo, hi)
        assert len(seen) == len(set(seen)) > 2

    def test_infeasible_low_end(self):
        # theta is -inf, and its slope +inf, below 0.2; the maximum sits at
        # that edge
        def f(t):
            return (-math.inf, math.inf) if t < 0.2 else (-((t - 0.1) ** 2), -2.0 * (t - 0.1))

        (x, v), _ = self._run(f, 0.05, 0.5)
        assert 0.2 <= x <= 0.2 + _REFINE_TOL
        assert v == f(x)[0]

    def test_fewer_evaluations_than_golden_section(self):
        golden, seen_golden = _counted(lambda t: _cubic(t)[0])
        golden_max(golden, 0.2, 0.6, _REFINE_TOL)
        (x, _), seen = self._run(_cubic, 0.2, 0.6)
        assert abs(x - 0.3) <= _REFINE_TOL
        assert 5 * len(seen) <= len(seen_golden)


@st.composite
def rate_sequences(draw):
    """Every (L, R, exponent) of one or two list sizes, two or three rates
    and one or both exponent treatments: each list size is evaluated at
    more than one rate."""
    Ls = draw(st.lists(st.integers(2, 15), min_size=1, max_size=2, unique=True))
    rates = draw(st.lists(
        st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
        min_size=2, max_size=3, unique=True,
    ))
    modes = draw(st.lists(st.sampled_from(EXPONENT_MODES), min_size=1, max_size=2, unique=True))
    return [(L, R, e) for L in Ls for R in rates for e in modes]


class TestRateGeometryCache:
    def test_work_depends_only_on_arguments(self, monkeypatch):
        # each call solves xi1 afresh, whatever ran before it
        solve, calls = bounds._solve_xi1, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(bounds, "_solve_xi1", counted)
        counts = []
        for L in (5, 3, 5, 5):
            calls.clear()
            list_radius_bound(L, 0.2)
            counts.append(len(calls))
        assert counts[0] == counts[2] == counts[3] == 10

    def test_xi1_solve_count_of_a_curve(self, monkeypatch):
        # curve --bound theorem1 --L 3 --rmin 0.01 --rmax 0.99 --step 0.01
        # solves xi1 779 times with one root search of the slope per shift
        # count, 1 203 times with a 16-point grid bracketing that root,
        # 2 654 times with Brent's minimizer in its place, 4 003 times with
        # that and without the concavity cap, and 5 698 with golden section
        solve_at, calls = bounds._solve_at, []

        def counted(*args):
            calls.append(args)
            return solve_at(*args)

        monkeypatch.setattr(bounds, "_solve_at", counted)
        sample_curve("theorem1", 3, _rate_grid(0.01, 0.99, 0.01))
        assert len(calls) <= 800

    def test_one_entropy_per_searched_point(self, monkeypatch):
        # h(xi0) once per solved xi0, and h(beta) once per call; the
        # binomial estimate took h(xi0) twice, 21 entropies for 10 solves.
        # The exact exponent's omega root, behind the subcode rate's slope,
        # is also taken once per solved xi0, not once per shift count: 22
        # roots for 18 solves at L = 31
        calls = {"binary_entropy": 0, "_solve_at": 0, "_omega_root": 0}
        for name in calls:
            real = getattr(bounds, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(bounds, name, counted)
        for L, R, exponent, counts in (
            (3, 0.3, "binomial", (11, 10, 0)),
            (11, 0.1, "parametric", (11, 10, 10)),
            (31, 0.1, "parametric", (19, 18, 18)),
        ):
            calls.update(binary_entropy=0, _solve_at=0, _omega_root=0)
            list_radius_bound(L, R, exponent=exponent)
            assert tuple(calls.values()) == counts, (L, R, exponent)

    def test_kernel_passes_of_the_bounds_suite(self, monkeypatch):
        # verify --suite bounds, cold: each searched xi0 costs one pass of
        # the slope kernel per polynomial argument, and the value kernel
        # runs only for the caps and on the clamped xi1 branches.  Reading
        # theta by a value pass apart from the slope pass took 3 014 value
        # passes
        passes = {"value": 0, "slope": 0, "xi1": 0}

        def counting(key, real):
            def wrapped(*args):
                passes[key] += 1
                return real(*args)

            return wrapped

        for name, key in (("avg_radius_evaluator", "value"), ("avg_radius_slope_evaluator", "slope")):
            make = getattr(bounds, name)
            monkeypatch.setattr(
                bounds, name, lambda L, j, make=make, key=key: counting(key, make(L, j))
            )
        monkeypatch.setattr(bounds, "_solve_xi1", counting("xi1", bounds._solve_xi1))
        checks.run_suite("bounds", seed=7)
        assert passes["value"] <= 1224
        assert (passes["slope"], passes["xi1"]) == (5902, 2593)

    def test_beta_above_rate_refused(self):
        # beta near 1/2 with h(beta) 9e-10 above R, where the subcode rate
        # would be negative over the low end of the searched interval
        beta = 0.49999
        R = binary_entropy(beta) - 9e-10
        with pytest.raises(DomainError) as info:
            list_radius_bound(3, R, beta=beta)
        assert str(info.value) == "h(beta)=0.999999999711461 exceeds rate 0.9999999988114611"

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        st.integers(2, 31),
        st.one_of(
            st.floats(1e-300, 1.0 - 1e-9),
            st.floats(-300.0, -9.0).map(lambda e: 10.0**e),
        ),
        st.sampled_from(EXPONENT_MODES),
        st.sampled_from([None, 1.0, 0.5, 0.01]),
    )
    def test_subcode_rates_nonnegative(self, L, R, exponent, scale):
        # with h(beta) <= R the subcode rate is at least R - h(beta) >= 0 at
        # xi_max and rises in xi0, so every evaluated rate is 0 up to
        # rounding; an explicit beta is h^-1(R) scaled, then stepped down
        # until h(beta) <= R holds in floats
        beta = None
        if scale is not None:
            beta = scale * inverse_entropy(R)
            step = math.ulp(beta)
            while binary_entropy(beta) > R:
                beta, step = beta - step, 2.0 * step
        solve_at, rates = bounds._solve_at, []

        def recorded(*args):
            result = solve_at(*args)
            rates.append(result[1])
            return result

        with pytest.MonkeyPatch.context() as m:
            m.setattr(bounds, "_solve_at", recorded)
            list_radius_bound(L, R, beta=beta, exponent=exponent)
        assert rates and min(rates) >= -1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(rate_sequences())
    def test_tau_nonincreasing_in_rate(self, cases):
        taus = {}
        for L, R, exponent in cases:
            taus.setdefault((L, exponent), {})[R] = list_radius_bound(L, R, exponent=exponent)[0]
        for by_rate in taus.values():
            ordered = [by_rate[R] for R in sorted(by_rate)]
            assert all(b <= a for a, b in zip(ordered, ordered[1:]))


class TestList3ClosedForm:
    def test_zero_rate_limit(self):
        assert list3_closed_form(1e-4) == pytest.approx(5 / 16, abs=1e-3)

    def test_xi1_interval(self):
        for R in (0.1, 0.5, 0.9):
            delta, xi1 = list3_parameters(R)
            assert 0.0 <= xi1 <= 2 * delta * (1 - delta) + 1e-12


class TestSlopeRelaxation:
    @staticmethod
    def _by_j(L, R):
        # the polynomial values the relaxation maximizes over j
        return {j: avg_radius_poly(L, j, delta_lp1(R)) for j in admissible_j(L)}

    def test_zero_rate(self):
        sb = slope_relaxation_bound(3, 0.0)
        assert sb.tau == pytest.approx(5 / 16, abs=1e-12)
        values = self._by_j(3, 0.0)
        assert max(values, key=values.get) == 1
        assert sb.tau == values[1]

    def test_reference_point(self):
        # delta_lp1(0.1) = 0.386782...; frozen from the involution chain
        values = self._by_j(3, 0.1)
        d = 0.386782
        assert values[1] == pytest.approx(0.75 * d - 0.5 * d**3, abs=1e-5)
        assert max(values, key=values.get) == 1
        assert slope_relaxation_bound(3, 0.1).tau == values[1]

    def test_float_cap(self):
        with pytest.raises(DomainError):
            slope_relaxation_bound(MAX_POLY_L + 1, 0.2)

    def test_even_list_size_max_at_zero(self):
        values = self._by_j(4, 0.01)
        assert max(values, key=values.get) == 0
        assert 1 not in values
        assert slope_relaxation_bound(4, 0.01).tau == values[0]


class TestCrossover:
    def test_list3(self):
        r_cross = crossover_rate(3)
        # at the crossover the two bounds agree to solver tolerance
        central = list_radius_bound(3, r_cross, exponent="binomial")[0]
        assert central == pytest.approx(blinovsky_bound(3, r_cross), abs=1e-4)

    def test_parity_error(self):
        with pytest.raises(DomainError):
            crossover_rate(4)
        with pytest.raises(DomainError):
            crossover_rate(3.0)

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
    def test_crossover_on_central_side(self, L):
        # the bisection returns the end of its bracket where the central
        # bound is at most the Catalan sum
        r_cross = crossover_rate(L)
        central = list_radius_bound(L, r_cross, exponent="binomial")[0]
        assert central <= blinovsky_bound(L, r_cross)

    def test_bounds_suite_finds_each_crossover_once(self, monkeypatch):
        # the suite finds the five published crossovers once and hands them
        # to both checks that read them
        calls = []

        def counted(L):
            calls.append(L)
            return crossover_rate(L)

        monkeypatch.setattr(bounds, "crossover_rate", counted)
        checks.run_suite("bounds", seed=7)
        assert calls == [3, 5, 7, 9, 11]

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
    def test_no_crossing_above_on_fine_grid(self, L):
        # the 0.1-step scan finds the largest crossing that a 0.02-step
        # scan of [0.02, 0.99] finds: above it the central bound loses
        r_cross = crossover_rate(L)
        rates = np.arange(0.02, 0.99, 0.02).tolist() + [0.99]
        for R in (R for R in rates if R > r_cross):
            central = list_radius_bound(L, R, exponent="binomial")[0]
            assert central > blinovsky_bound(L, R), R

    @pytest.mark.parametrize(
        "L, r_cross", [(13, 0.078037), (15, 0.062783), (33, 0.018910), (51, 0.009766)]
    )
    def test_large_list_sizes_resolve(self, L, r_cross):
        assert crossover_rate(L) == pytest.approx(r_cross, abs=2e-5)

    def test_no_win_on_the_scan_raises(self, monkeypatch):
        # a Catalan sum of 0 is never beaten: no scan rate brackets a crossing
        monkeypatch.setattr(bounds, "blinovsky_bound", lambda L, R: 0.0)
        with pytest.raises(NoSolutionError, match="never beats the Catalan sum for L=3"):
            crossover_rate(3)

    def test_win_at_top_scan_rate_returns_it(self, monkeypatch):
        # a Catalan sum of 1 loses at the first scan rate, which is returned
        monkeypatch.setattr(bounds, "blinovsky_bound", lambda L, R: 1.0)
        assert crossover_rate(3) == _CROSSOVER_SCAN[-1]

    def test_scan_rates_match_arange(self):
        halvings = [0.02 / 2**k for k in range(12, 0, -1)]
        assert _CROSSOVER_SCAN == (*halvings, 0.02, *np.arange(0.1, 0.95, 0.1).tolist(), 0.99)


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


class TestProperties:
    @_property_settings
    @given(st.integers(1, 15), _rates)
    def test_best_at_most_each_applicable_bound(self, L, R):
        tau, _ = best_upper_bound(L, R)
        if L == 1:
            # lp2 wins only by more than 1e-9
            assert tau <= lp1_tau(R)
            assert tau <= lp2_tau(R) + 1e-9
            return
        applicable = [list_radius_bound(L, R)[0], blinovsky_bound(L, R)]
        if L == 2:
            applicable.append(abl2_tau(R))
        assert all(tau <= b for b in applicable)

    @_property_settings
    @given(st.integers(2, 15), _rates)
    @example(3, 0.1)
    @example(3, 0.2)
    @example(3, 0.3)
    @example(9, 0.1)
    @example(9, 0.2)
    @example(9, 0.3)
    def test_binomial_exponent_never_stronger(self, L, R):
        a = list_radius_bound(L, R, exponent="parametric")[0]
        b = list_radius_bound(L, R, exponent="binomial")[0]
        assert b >= a - 1e-12

    @_property_settings
    @given(st.integers(2, 15), _rates)
    # check_central_monotone_and_relaxed covers 0.1 and 0.4 at L = 3, 4, 5,
    # but its grid holds 0.7000000000000001, not 0.7
    @example(3, 0.7)
    @example(4, 0.7)
    @example(5, 0.7)
    def test_slope_relaxation_dominates_theorem1(self, L, R):
        assert list_radius_bound(L, R)[0] <= slope_relaxation_bound(L, R).tau + 1e-10


class TestSampleCurve:
    def test_blinovsky_grid(self):
        rates = [0.01 * k for k in range(1, 100)]
        curve = sample_curve("blinovsky", 3, rates)
        assert len(curve) == 99
        assert curve[0].tau == pytest.approx(5 / 16, abs=6e-3)

    def test_columns_match_the_bound_table(self):
        assert len(BOUNDS) == 7
        for bound, spec in BOUNDS.items():
            for point in sample_curve(bound, spec.min_L, [0.2, 0.4]):
                assert len(point.columns) == len(spec.columns), bound

    def test_bound_compat_errors(self):
        with pytest.raises(DomainError):
            sample_curve("abl2", 3, [0.2])
        with pytest.raises(DomainError):
            sample_curve("lp1", 2, [0.2])

    def test_infeasible_row_noted(self):
        # explicit beta with h(beta) > rate fails per-row, not globally
        beta = inverse_entropy(0.5)
        curve = sample_curve("theorem1", 3, [0.3, 0.7], beta=beta)
        assert curve[0].tau is None
        assert curve[0].note
        assert curve[1].tau is not None
