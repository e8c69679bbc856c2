import functools
import math
import random
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listradius import bounds
from listradius.bounds import (
    EXPONENT_MODES,
    MAX_CATALAN_L,
    MAX_POLY_L,
    _CROSSOVER_SCAN,
    _REFINE_TOL,
    _objective,
    _rate_geometry,
    _xi0_grid,
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
    inverse_entropy,
    krawtchouk_exponent_value,
)
from listradius.errors import DomainError, NoSolutionError
from listradius.lp import abl2_tau, lp1_tau, lp2_tau, r_lp2
from listradius.solve import brent_max

# Claims over random (L, R): L in 2..15 (1..15 for best) and R in
# [0.005, 0.995], at the tolerances of the fixed-point tests.
_property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_rates = st.floats(0.005, 0.995)


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
# maximizer comes from the Brent refinement, an endpoint one (xi0 = 1/2 -
# sqrt(beta(1-beta))) from the endpoint shortcut of the refinement.  The
# endpoint rows were recorded before that shortcut, the interior rows with
# the 16-point scan of the feasible xi0 interval.  At the near-unit
# rates xi_max is below the refinement tolerance bounds._REFINE_TOL.
WITNESS_PINS = [
    # interior
    (2, 0.1, "parametric", 0.21654143346580407, 0.38676267649407003, 0.33443519294685164, 0),
    (2, 0.6, "binomial", 0.07765209928298708, 0.1287835517613452, 0.09988112190536279, 0),
    (4, 0.2, "parametric", 0.22102022300301466, 0.3261447388300988, 0.26520819720513333, 0),
    (4, 0.45, "binomial", 0.1318947332139182, 0.181753755159938, 0.1556738042054458, 0),
    (6, 0.35, "parametric", 0.1731264491985242, 0.25137980928091314, 0.1891926148139132, 0),
    (9, 0.12, "parametric", 0.28516757981417223, 0.3730678470088885, 0.3186294829382719, 0),
    (9, 0.14, "binomial", 0.27475341543755255, 0.33173326644493406, 0.3176568520622586, 0),
    (11, 0.08, "parametric", 0.3170914545250485, 0.4007722305673113, 0.35212859864575885, 0),
    (11, 0.1, "binomial", 0.304822702185922, 0.3593792826766104, 0.34845736475835454, 0),
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

# xi0 of the interior rows as a 2000-point grid over (0, xi_max] bracketed
# them: a refinement from another bracket must find the same maximizer
DENSE_GRID_XI0 = {
    (2, 0.1, "parametric"): 0.38676267584802193,
    (2, 0.6, "binomial"): 0.12878355769809413,
    (4, 0.2, "parametric"): 0.326144737942275,
    (4, 0.45, "binomial"): 0.181753753117018,
    (6, 0.35, "parametric"): 0.25137981010553484,
    (9, 0.12, "parametric"): 0.3730678481900424,
    (9, 0.14, "binomial"): 0.3317332594269466,
    (11, 0.08, "parametric"): 0.40077223079600083,
    (11, 0.1, "binomial"): 0.3593792907159594,
}

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

    def test_interior_xi0_near_dense_grid(self):
        for (L, R, exponent), xi0 in DENSE_GRID_XI0.items():
            _, w = list_radius_bound(L, R, exponent=exponent)
            assert w.xi0 == pytest.approx(xi0, abs=1e-7)

    @pytest.mark.parametrize("L, R, exponent", DENSE_AUDIT)
    def test_grid_agrees_with_dense_grid(self, L, R, exponent):
        # the 16-point scan only brackets each j's maximum; the same search
        # from a 512-point scan of the same interval must find the same j
        # and tau.  It solves xi1 apart from the cached 16-point geometry
        tau, w = list_radius_bound(L, R, exponent=exponent)
        _, xs, solve = _rate_geometry(R, None, exponent)
        solve = functools.cache(solve.__wrapped__)
        dense = _xi0_grid(R, xs[-1], exponent, 512)
        tau_dense, j_dense = -math.inf, None
        for j in admissible_j(L):
            theta = _objective(solve, avg_radius_evaluator(L, j))
            t = brent_max(theta, dense, [theta(x) for x in dense], _REFINE_TOL)[1]
            if t > tau_dense:
                tau_dense, j_dense = t, j
        assert w.j == j_dense
        assert abs(tau - tau_dense) <= 1e-14

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
        assert list_radius_bound(3, 1e-3)[0] == pytest.approx(5 / 16, abs=5e-3)
        assert list_radius_bound(3, 1e-3)[0] < 5 / 16

    def test_tiny_rates(self):
        # beta = h^-1(R) to within 1e-12 in beta alone gave both rates one
        # beta, with h(beta) 19 times the smaller rate, and a tau that was
        # not an upper bound there
        tau_12, w_12 = list_radius_bound(3, 1e-12)
        tau_11, _ = list_radius_bound(3, 1e-11)
        assert tau_12 > tau_11
        assert binary_entropy(w_12.beta) == pytest.approx(1e-12, rel=1e-6)

    def test_dominated_by_relaxation(self):
        for L in (3, 4, 5):
            for R in (0.1, 0.4, 0.7):
                assert (
                    list_radius_bound(L, R)[0]
                    <= slope_relaxation_bound(L, R).tau + 1e-10
                )

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
        assert w.theta == pytest.approx(tau, abs=1e-12)
        assert split_avg_radius(L, w.j, w.xi0, w.xi1) == pytest.approx(w.theta, abs=1e-8)
        if exponent == "parametric":
            rp = R + binary_entropy(w.beta) - 2 * krawtchouk_exponent_value(w.beta, w.xi0)
        else:
            rp = R + binary_entropy(w.xi0) - 1
        assert rp == pytest.approx(w.r_prime, abs=1e-8)

    def test_records_are_read_only(self):
        # crossover_rate and _rate_geometry are memoized and hand the same
        # object to every caller
        point = sample_curve("theorem1", 3, [0.2])[0]
        records = [
            (point.witness, "xi0"),
            (crossover_rate(3), "r_cross"),
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


# 25 seeded rates, each at four list sizes under both exponents; the
# list sizes at one rate share one _rate_geometry entry
_rng = random.Random(11)
CACHE_SAMPLE = [
    (L, R, exponent)
    for R in [round(_rng.uniform(0.01, 0.99), 4) for _ in range(25)]
    for L in _rng.sample(range(2, 16), 4)
    for exponent in EXPONENT_MODES
]


def _cold(cases):
    """Each case's (tau, witness), with the rate cache cleared before it."""
    out = []
    for L, R, exponent in cases:
        _rate_geometry.cache_clear()
        out.append(list_radius_bound(L, R, exponent=exponent))
    return out


def _warm(cases):
    """Each case's (tau, witness), in one pass that starts cold."""
    _rate_geometry.cache_clear()
    return [list_radius_bound(L, R, exponent=exponent) for L, R, exponent in cases]


@st.composite
def rate_sequences(draw):
    """Every (L, R, exponent) of one or two list sizes, two or three rates
    and one or both exponent treatments, in a drawn order: list sizes and
    treatments at one rate meet in the cache, and each list size is
    evaluated at more than one rate."""
    Ls = draw(st.lists(st.integers(2, 15), min_size=1, max_size=2, unique=True))
    rates = draw(st.lists(
        st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
        min_size=2, max_size=3, unique=True,
    ))
    modes = draw(st.lists(st.sampled_from(EXPONENT_MODES), min_size=1, max_size=2, unique=True))
    return draw(st.permutations([(L, R, e) for L in Ls for R in rates for e in modes]))


class TestRateGeometryCache:
    def test_warm_equals_cold(self):
        shuffled = random.Random(5).sample(CACHE_SAMPLE, len(CACHE_SAMPLE))
        warm = repr(_warm(shuffled))
        assert _rate_geometry.cache_info().hits >= 50
        assert warm == repr(_cold(shuffled))

    def test_list_sizes_share_an_entry(self):
        _rate_geometry.cache_clear()
        list_radius_bound(3, 0.2)
        list_radius_bound(5, 0.2)
        info = _rate_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_errors_are_not_cached(self):
        _rate_geometry.cache_clear()
        for _ in range(2):
            with pytest.raises(DomainError, match="exceeds rate"):
                list_radius_bound(3, 0.2, beta=inverse_entropy(0.3))
        assert _rate_geometry.cache_info().currsize == 0

    def test_xi1_solve_count_of_a_curve(self, monkeypatch):
        # curve --bound theorem1 --L 3 --rmin 0.01 --rmax 0.99 --step 0.01
        # solves xi1 4 003 times with the Brent refinement and 5 698 times
        # with golden section
        solve_at, calls = bounds._solve_at, []

        def counted(*args):
            calls.append(args)
            return solve_at(*args)

        monkeypatch.setattr(bounds, "_solve_at", counted)
        _rate_geometry.cache_clear()
        sample_curve("theorem1", 3, _rate_grid(0.01, 0.99, 0.01))
        _rate_geometry.cache_clear()
        assert len(calls) < 4500

    def test_infeasible_grid_points(self):
        # beta near 1/2 with R just inside the 1e-9 slack of h(beta) <= R:
        # xi_max is about 1e-10, and the subcode rate is negative on the
        # low end of the grid, where xi1 is not solved and theta is -inf
        beta = 0.49999
        R = binary_entropy(beta) - 9e-10
        _rate_geometry.cache_clear()
        tau, w = list_radius_bound(3, R, beta=beta)
        _, xs, solve = _rate_geometry(R, beta, "parametric")
        xi_max = xs[-1]
        infeasible = [xi1 for xi1, rp, *_ in map(solve, xs) if rp < -1e-12]
        assert infeasible and set(infeasible) == {0.0}
        assert 0.0 < tau < 1e-9
        assert w.r_prime >= -1e-12
        assert 0.0 < w.xi0 <= xi_max

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(rate_sequences())
    def test_warm_equals_cold_and_tau_nonincreasing(self, cases):
        cold = _cold(cases)
        assert repr(_warm(cases)) == repr(cold)
        taus = {}
        for (L, R, exponent), (tau, _) in zip(cases, cold):
            taus.setdefault((L, exponent), {})[R] = tau
        for by_rate in taus.values():
            ordered = [by_rate[R] for R in sorted(by_rate)]
            assert all(b <= a for a, b in zip(ordered, ordered[1:]))


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
        # one entry per int L; the float spelling 3.0 is keyed apart and
        # still rejected
        crossover_rate.cache_clear()
        assert crossover_rate(3) is crossover_rate(3)
        info = crossover_rate.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        with pytest.raises(DomainError):
            crossover_rate(3.0)

    @pytest.mark.parametrize("L", [3, 5, 7, 9, 11])
    def test_no_crossing_above_on_fine_grid(self, L):
        # the 0.1-step scan finds the largest crossing that a 0.02-step
        # scan of [0.02, 0.99] finds: above it the central bound loses
        r_cross = crossover_rate(L).r_cross
        rates = np.arange(0.02, 0.99, 0.02).tolist() + [0.99]
        for R in (R for R in rates if R > r_cross):
            central = list_radius_bound(L, R, exponent="binomial")[0]
            assert central > blinovsky_bound(L, R), R

    @pytest.mark.parametrize("L, r_cross", [(13, 0.078037), (15, 0.062783)])
    def test_large_list_sizes_resolve(self, L, r_cross):
        assert crossover_rate(L).r_cross == pytest.approx(r_cross, abs=2e-5)

    def test_scan_rates_match_arange(self):
        assert _CROSSOVER_SCAN == (0.02, *np.arange(0.1, 0.95, 0.1).tolist(), 0.99)


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
    def test_binomial_exponent_never_stronger(self, L, R):
        a = list_radius_bound(L, R, exponent="parametric")[0]
        b = list_radius_bound(L, R, exponent="binomial")[0]
        assert b >= a - 1e-12

    @_property_settings
    @given(st.integers(2, 15), _rates)
    def test_slope_relaxation_dominates_theorem1(self, L, R):
        assert list_radius_bound(L, R)[0] <= slope_relaxation_bound(L, R).tau + 1e-10


class TestSampleCurve:
    def test_blinovsky_grid(self):
        rates = [0.01 * k for k in range(1, 100)]
        curve = sample_curve("blinovsky", 3, rates)
        assert len(curve) == 99
        assert curve[0].tau == pytest.approx(5 / 16, abs=6e-3)

    def test_witness_attached_only_for_central(self):
        curve = sample_curve("theorem1", 3, [0.2, 0.4])
        assert all(p.witness is not None for p in curve)
        assert sample_curve("blinovsky", 3, [0.2])[0].witness is None

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
