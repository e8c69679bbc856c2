"""Planted faults that the array, scalar and integer passes of the checks
must flag, and the scalar sweeps' grids against numpy's.

Each test breaks one input of a check with ``monkeypatch`` and asserts that
the check fails; ``verify --suite all`` (tests/test_acceptance.py) asserts
that every check passes on the unbroken code.
"""
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from listradius import bounds, checks, core, oracle


def _plant_evaluator(monkeypatch, L, j, poly):
    """Make avg_radius_evaluator(L, j) return ``poly``."""
    real = core.avg_radius_evaluator
    monkeypatch.setattr(
        core, "avg_radius_evaluator", lambda L_, j_: poly if (L_, j_) == (L, j) else real(L_, j_)
    )


def test_g1_dominance_flags_j_above_g1(monkeypatch):
    # every other j keeps at least 8.7e-4 below g1 on the grids, so the
    # plant puts j = 0 at L = 15 1e-9 above g1 itself
    g1 = core.avg_radius_evaluator(15, 1)
    _plant_evaluator(monkeypatch, 15, 0, lambda x: g1(x) + 1e-9)
    assert not checks.check_g1_dominance().passed


def test_plotkin_parity_flags_offset(monkeypatch):
    # the list-4 Plotkin radius is the (5, 0) polynomial, which must equal (4, 0)
    g = core.avg_radius_evaluator(5, 0)
    _plant_evaluator(monkeypatch, 5, 0, lambda x: g(x) + 1e-9)
    result = checks.check_plotkin_parity()
    assert not result.passed
    assert result.residual == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize(
    "check", [checks.check_excess_derivative, checks.check_tail_derivative]
)
def test_derivative_checks_flag_tail_offset(monkeypatch, check):
    # 1e-4 p at k = 2: a constant offset would cancel in the tail check's
    # difference quotient
    real = core.binomial_tail
    monkeypatch.setattr(
        core, "binomial_tail", lambda L, p, k: real(L, p, k) + (1e-4 * p if k == 2 else 0.0)
    )
    assert not check().passed


def test_sum_identity_flags_wrong_binomial(monkeypatch):
    monkeypatch.setattr(checks, "comb", lambda n, k: comb(n, k) + ((n, k) == (40, 17)))
    assert not checks.check_sum_identity_all().passed


def test_majority_check_flags_average_radius_offset(monkeypatch):
    real = oracle.average_radius
    monkeypatch.setattr(
        oracle, "average_radius", lambda words, n: real(words, n) + Fraction(1, len(words))
    )
    assert not checks.check_majority_optimal(7).passed


def test_type_radius_check_flags_functional_offset(monkeypatch):
    real = oracle.avg_radius_of_type
    monkeypatch.setattr(oracle, "avg_radius_of_type", lambda T, j: real(T, j) + Fraction(1, 1000))
    assert not checks.check_type_radius_equivalence(7).passed


def test_weight_marginal_check_flags_formula_offset(monkeypatch):
    real = oracle.weight_marginal_exact

    def planted(code, L):
        marginal = real(code, L)
        return (marginal[0] + Fraction(1, 1000),) + marginal[1:]

    monkeypatch.setattr(oracle, "weight_marginal_exact", planted)
    assert not checks.check_weight_marginal_identity(7).passed


def test_shift_check_flags_shift_dependent_radius(monkeypatch):
    # the least word moves under almost every shift
    real = oracle.tau_list
    monkeypatch.setattr(oracle, "tau_list", lambda code, L: real(code, L) + code.words[0])
    assert not checks.check_shift_invariance(7).passed


def test_lipschitz_check_flags_zero_distance(monkeypatch):
    monkeypatch.setattr(oracle.JointType, "sup_distance", lambda self, other: Fraction(0))
    result = checks.check_type_lipschitz(7)
    assert not result.passed
    assert result.residual > 0


def test_region_scan_reports_a_violating_point(monkeypatch):
    # (0.2, 0.5) lies above a2 = a1(1 - a1), where the inequality fails
    real = oracle._region_blocks

    def blocks():
        yield from real()
        yield np.array([0.2]), np.array([0.5])

    monkeypatch.setattr(oracle, "_region_blocks", blocks)
    assert oracle.verify_monotonicity_region() == [(0.2, 0.5)]
    assert not checks.check_region_inequality().passed


def test_witness_check_flags_inadmissible_j(monkeypatch):
    # j = 2 is not a shift count of odd L = 3
    real = bounds.list_radius_bound

    def planted(L, R, **kw):
        tau, w = real(L, R, **kw)
        return tau, (w._replace(j=2) if L == 3 else w)

    monkeypatch.setattr(bounds, "list_radius_bound", planted)
    result = checks.check_witness_validity()
    assert not result.passed
    assert result.residual == 1.0


CROSSINGS = bounds.reference_crossovers()
SWEEPS = [
    (checks.check_exponent_endpoints, ()),
    (checks.check_exponent_decreasing, ()),
    (checks.check_lp1_involution, ()),
    (checks.check_central_vs_closed_form, ()),
    (checks.check_lp_agreement_regime, ()),
    (checks.check_ordering_below_crossover, (CROSSINGS,)),
    (checks.check_central_monotone_and_relaxed, ()),
    (checks.check_lp2_properties, ()),
]


@pytest.mark.parametrize("check, args", SWEEPS, ids=[c.__name__ for c, _ in SWEEPS])
def test_sweep_grids_are_numpy_grids(monkeypatch, check, args):
    # each rate grid of a scalar sweep is the np.arange grid, bit for bit
    real, grids = checks._arange, []

    def recorded(start, stop, step):
        grids.append((real(start, stop, step), np.arange(start, stop, step)))
        return grids[-1][0]

    monkeypatch.setattr(checks, "_arange", recorded)
    assert check(*args).passed
    assert grids
    for grid, expected in grids:
        assert np.array(grid).tobytes() == expected.tobytes()


def test_exponent_xi_grids_are_linspace(monkeypatch):
    # the xi grid of each beta is np.linspace(0, xi_max, 200), bit for bit
    real, xs = core.krawtchouk_exponent_value, {}

    def recorded(beta, xi):
        xs.setdefault(beta, []).append(xi)
        return real(beta, xi)

    monkeypatch.setattr(core, "krawtchouk_exponent_value", recorded)
    assert checks.check_exponent_decreasing().passed
    assert len(xs) == 9
    for beta, grid in xs.items():
        expected = np.linspace(0.0, 0.5 - math.sqrt(beta * (1 - beta)), 200)
        assert np.array(grid).tobytes() == expected.tobytes()
