import math

import numpy as np
import pytest

from listradius.core import binary_entropy, delta_lp1
from listradius.errors import DomainError
from listradius.lp import (
    _BRANCH_TAUS,
    _LP2_BETAS,
    _lp2_scan_index,
    abl2_tau,
    abl_branch_point,
    abl_list2,
    abl_sphere_param,
    lp1_tau,
    lp2_constraint,
    lp2_tau,
    r_lp2,
)


# r_lp2(delta) -> (rate, witness alpha, witness beta), and the list-2 branch
# point, as computed before the float path of the boundary; a faster
# evaluation must reproduce them exactly
PINNED_LP2 = [
    (0.0001, 0.9992134135884256, 5.001000308278267e-05, 2.501041247616569e-09),
    (0.001, 0.9937908096602037, 0.000501002830497018, 2.5091381008945363e-07),
    (0.01, 0.9542335550955467, 0.0051028082441412995, 2.5889346405816516e-05),
    (0.05, 0.8251368080398247, 0.027877464563351367, 0.0007406342518157245),
    (0.1, 0.6927407430788792, 0.06346017046404927, 0.0035215618814007704),
    (0.15, 0.5734500437036663, 0.11143125316823883, 0.009531055258557908),
    (0.2, 0.4613596037635178, 0.1819134965856854, 0.020745270243406565),
    (0.27, 0.3115071689084515, 0.42899267294520094, 0.05249671535852556),
    (0.33, 0.19332396429257465, 0.49999948899661906, 0.02978728217950918),
    (0.41, 0.06837826534529964, 0.4999993855642104, 0.008166694905565404),
    (0.5, 0.0, 0.5, 0.0),
]
PINNED_BRANCH_POINT = 0.10930122679981412


class TestRLp2:
    @pytest.mark.parametrize("delta, rate, alpha, beta", PINNED_LP2)
    def test_pinned_values(self, delta, rate, alpha, beta):
        got, w = r_lp2(delta)
        assert (got, w.alpha, w.beta, w.rate_bits) == (rate, alpha, beta, rate)

    def test_scan_index_matches_array_argmin(self):
        # the Fibonacci search finds the index that np.argmin found on the
        # boundary objective at all 401 betas as one array expression,
        # from tiny distances through the kink region delta >= 0.3 to 1/2
        betas = np.linspace(0.0, 0.5, 401)
        assert list(_LP2_BETAS) == betas.tolist()
        q = betas * (1.0 - betas)
        sq = np.sqrt(q)
        deltas = np.concatenate((np.geomspace(1e-9, 1e-3, 200), np.linspace(0.0, 0.5, 2001)[1:]))
        for delta in deltas.tolist():
            c = q + delta * (0.5 + sq)
            alpha = np.minimum(2.0 * c / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * c, 0.0))), 0.5)
            want = int(np.argmin(1.0 - binary_entropy(alpha) + binary_entropy(betas)))
            assert _lp2_scan_index(delta) == want, delta

    def test_half_distance(self):
        rate, w = r_lp2(0.5)
        assert rate == 0.0
        assert w.alpha == pytest.approx(0.5, abs=1e-9)
        assert w.beta == pytest.approx(0.0, abs=1e-9)

    def test_small_distance_limit(self):
        assert r_lp2(1e-4)[0] > 0.999

    def test_witness_feasible(self):
        for d in [1e-4, 1e-3, 0.01, *np.arange(0.05, 0.501, 0.05)]:
            d = float(d)
            rate, w = r_lp2(d)
            # feasible, and on the constraint boundary unless alpha is capped
            assert lp2_constraint(w.alpha, w.beta) <= d
            assert w.alpha == 0.5 or lp2_constraint(w.alpha, w.beta) >= d - 1e-12
            assert 0.0 <= w.beta <= w.alpha <= 0.5
            assert rate == pytest.approx(
                1 - binary_entropy(w.alpha) + binary_entropy(w.beta), abs=1e-12
            )

    def test_dominates_lp1(self):
        for d in np.arange(0.05, 0.501, 0.05):
            d = float(d)
            lp1_rate = binary_entropy(0.5 - math.sqrt(d * (1 - d)))
            assert r_lp2(d)[0] <= lp1_rate + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            r_lp2(0.0)
        with pytest.raises(DomainError):
            r_lp2(0.6)


class TestAbl:
    def test_branch_point_value(self):
        assert abl_branch_point() == pytest.approx(0.1093, abs=0.001)
        assert abl_branch_point() == PINNED_BRANCH_POINT

    def test_scan_taus_match_linspace(self):
        assert list(_BRANCH_TAUS) == np.linspace(0.02, 0.24, 45).tolist()

    def test_branch_point_solved_once(self):
        abl_branch_point.cache_clear()
        abl_branch_point()
        abl_list2(0.2)
        assert abl_branch_point.cache_info().misses == 1

    def test_branch_continuity(self):
        tau0 = abl_branch_point()
        lp_branch = r_lp2(2 * tau0)[0]
        u_branch = 1 - binary_entropy(2 * tau0) + binary_entropy(abl_sphere_param(tau0))
        assert lp_branch == pytest.approx(u_branch, abs=1e-6)

    def test_sphere_param_vanishes_at_quarter(self):
        # sqrt(tau - 3 tau^2) = tau = 1/4 makes the inner term vanish
        assert abl_sphere_param(0.25 - 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_sphere_param_range(self):
        for tau in np.arange(0.005, 0.25, 0.005):
            assert 0.0 <= abl_sphere_param(float(tau)) <= 0.5

    def test_second_branch_formula(self):
        tau = 0.2
        u = 0.5 - math.sqrt(0.25 - (math.sqrt(tau - 3 * tau**2) - tau) ** 2)
        expected = 1 - binary_entropy(2 * tau) + binary_entropy(u)
        assert abl_list2(tau) == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing(self):
        vals = [abl_list2(float(t)) for t in np.arange(0.01, 0.245, 0.005)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            abl_list2(0.0)
        with pytest.raises(DomainError):
            abl_list2(0.3)


class TestInversions:
    def test_lp1_tau(self):
        assert lp1_tau(0.2) == pytest.approx(0.5 * delta_lp1(0.2), abs=1e-12)

    def test_lp2_tau_roundtrip(self):
        for R in (0.2, 0.4, 0.6):
            tau = lp2_tau(R)
            assert r_lp2(2 * tau)[0] == pytest.approx(R, abs=1e-8)
            # the inversion returns the feasible end of its bracket
            assert r_lp2(2 * tau)[0] >= R

    def test_lp2_at_most_lp1(self):
        for R in np.arange(0.05, 0.951, 0.05):
            assert lp2_tau(float(R)) <= lp1_tau(float(R)) + 1e-9

    def test_abl2_tau_roundtrip(self):
        for R in (0.3, 0.5, 0.7):
            tau = abl2_tau(R)
            assert abl_list2(tau) == pytest.approx(R, abs=1e-8)
            assert abl_list2(tau) >= R
