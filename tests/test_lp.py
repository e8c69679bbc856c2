import math

import numpy as np
import pytest

from listradius import lp
from listradius.core import binary_entropy, delta_lp1
from listradius.errors import DomainError, NoSolutionError
from listradius.lp import (
    abl2_tau,
    abl_branch_point,
    abl_list2,
    abl_sphere_param,
    lp1_tau,
    lp2_constraint,
    lp2_tau,
    r_lp2,
)


def _entropy_array(p):
    """Binary entropy of a numpy array, 0 at 0 and 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p > 0.0) & (p < 1.0), raw, 0.0)


# r_lp2(delta) -> (rate, witness alpha, witness beta), and the list-2 branch
# point; a faster evaluation must reproduce them exactly
PINNED_LP2 = [
    (0.0001, 0.9992134135884256, 5.001000214675514e-05, 2.5005732428945644e-09),
    (0.001, 0.9937908096602037, 0.0005010028324110368, 2.509147670128605e-07),
    (0.01, 0.9542335550955466, 0.005102808225367971, 2.5889337033333685e-05),
    (0.05, 0.8251368080398246, 0.027877463732537616, 0.0007406338423994582),
    (0.1, 0.692740743078879, 0.0634601737229312, 0.0035215634352874295),
    (0.15, 0.5734500437036661, 0.11143125749290694, 0.009531057192154566),
    (0.2, 0.46135960376351776, 0.18191350578947246, 0.020745273833342286),
    (0.27, 0.31150716890845137, 0.4289927016830185, 0.052496718199072145),
    (0.33, 0.19332396429252935, 0.49999999999999994, 0.029787282179650095),
    (0.41, 0.06837826534502116, 0.5, 0.008166694905682505),
    (0.5, 0.0, 0.5, 0.0),
]
PINNED_BRANCH_POINT = 0.10930122630034016

# r_lp2 at the same distances from the earlier search, a 401-point beta grid
# refined by golden section around its best point; the search in s is not looser
GRID_SEARCH_RATES = [
    0.9992134135884256, 0.9937908096602037, 0.9542335550955467, 0.8251368080398247,
    0.6927407430788792, 0.5734500437036663, 0.4613596037635178, 0.3115071689084515,
    0.19332396429257465, 0.06837826534529964, 0.0,
]


class TestRLp2:
    @pytest.mark.parametrize(
        "delta, rate, alpha, beta", PINNED_LP2, ids=[f"delta{delta}" for delta, *_ in PINNED_LP2]
    )
    def test_pinned_values(self, delta, rate, alpha, beta):
        got, w = r_lp2(delta)
        assert (got, w.alpha, w.beta) == (rate, alpha, beta)

    def test_at_most_grid_search(self):
        for (delta, *_), ceiling in zip(PINNED_LP2, GRID_SEARCH_RATES, strict=True):
            assert r_lp2(delta)[0] <= ceiling, delta

    def test_at_most_brute_force_scan(self):
        # the boundary objective at 2001 values of s = sqrt(beta(1-beta))
        # in [0, 1/2 - delta] as one array expression, from tiny distances
        # through the kink region delta >= 0.28 to 1/2
        deltas = np.concatenate((np.geomspace(1e-9, 1e-3, 200), np.linspace(0.0, 0.5, 2001)[1:]))
        for delta in deltas.tolist():
            s = np.linspace(0.0, 0.5 - delta, 2001)
            betas = 2.0 * s * s / (1.0 + np.sqrt(1.0 - 4.0 * s * s))
            c = s * s + delta * (0.5 + s)
            alpha = np.minimum(2.0 * c / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * c, 0.0))), 0.5)
            scan = np.min(1.0 - _entropy_array(alpha) + _entropy_array(betas))
            assert r_lp2(delta)[0] <= scan + 1e-15, delta

    def test_kink_is_the_lp1_point(self):
        # past delta ~ 0.273 the minimum sits at the end s = 1/2 - delta of
        # the bracket, where the boundary alpha is 1/2 and the rate is the first
        # LP bound's
        for delta in np.linspace(0.28, 0.5, 221).tolist():
            lp1 = binary_entropy(0.5 - math.sqrt(delta * (1.0 - delta)))
            rate, w = r_lp2(delta)
            assert abs(rate - lp1) <= 2e-15, delta
            assert lp2_constraint(w.alpha, w.beta) <= delta, delta
        assert r_lp2(0.5)[0] == 0.0

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
        assert abl_branch_point() == PINNED_BRANCH_POINT

    def test_branches_touch_at_lp2_witness(self):
        # the second branch is the LP2 objective at alpha = 2 tau0, beta =
        # abl_sphere_param(tau0); at the branch point that is r_lp2's minimizer
        tau0 = abl_branch_point()
        w = r_lp2(2 * tau0)[1]
        assert abs(w.alpha - 2 * tau0) <= 1e-6
        assert abs(w.beta - abl_sphere_param(tau0)) <= 1e-6

    def test_branch_point_solved_once(self, monkeypatch):
        # a cold solve makes one r_lp2 solve, the contact check, and
        # abl_list2 reuses it
        calls = []
        solve = lp.r_lp2
        monkeypatch.setattr(lp, "r_lp2", lambda delta: calls.append(delta) or solve(delta))
        abl_branch_point.cache_clear()
        try:
            assert abl_branch_point() == PINNED_BRANCH_POINT
            abl_list2(0.2)
            assert abl_branch_point.cache_info().misses == 1
            assert len(calls) == 1
        finally:
            abl_branch_point.cache_clear()

    def test_crossing_branches_raise(self, monkeypatch):
        # a second branch 1e-3 off on either side no longer touches the LP branch
        second = lp._abl_second_branch
        try:
            for offset in (1e-3, -1e-3):
                monkeypatch.setattr(lp, "_abl_second_branch", lambda tau: second(tau) + offset)
                abl_branch_point.cache_clear()
                with pytest.raises(NoSolutionError, match="do not touch"):
                    abl_branch_point()
        finally:
            abl_branch_point.cache_clear()

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

    def test_bracket_top_rate_is_zero(self):
        # f(hi) = 0 at the top of both inversions' brackets, below every
        # target rate, so the inversion never returns hi itself
        assert lp._end_rates(lp._lp2_rate, 0.25) == (0.999999968659952, 0.0)
        assert lp._end_rates(abl_list2, 0.25 - 1e-12) == (0.999999968659952, 0.0)
