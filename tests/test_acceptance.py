"""Acceptance criteria c01-c10, each run as the ``verify`` checks it names.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per check; the whole module stays well under the stated runtime
budgets on commodity hardware.
"""
import time

import pytest

from listradius import bounds, checks

SEED = 7  # the seeded checks of c06 run as in ``verify --seed 7``


def _crossings():  # the published crossovers, found as the bounds suite finds them
    return {L: bounds.crossover_rate(L) for L in bounds.reference_crossovers()}


# criterion -> (its checks, time budget in seconds or None)
CRITERIA = {
    "c01": ((lambda: checks.check_crossover_table(_crossings()),), 120.0),
    "c02": ((checks.check_zero_rate_agreement, checks.check_blinovsky_zero_exact), None),
    "c03": ((checks.check_central_vs_closed_form,), None),
    "c04": ((checks.check_abl_branch,), None),
    "c05": ((checks.check_lp_agreement_regime,), None),
    "c06": (
        (
            checks.check_sum_identity_all,
            checks.check_tail_inequality_all,
            lambda: checks.check_weight_marginal_identity(SEED),
            lambda: checks.check_type_radius_equivalence(SEED),
        ),
        60.0,
    ),
    "c07": (
        (
            checks.check_excess_derivative,
            checks.check_tail_derivative,
            checks.check_poly_concavity,
            checks.check_exponent_endpoints,
        ),
        None,
    ),
    "c08": ((checks.check_region_inequality,), None),
    "c09": (
        (lambda: checks.check_ordering_below_crossover(_crossings()), checks.check_plotkin_parity),
        None,
    ),
    "c10": ((checks.check_slope_behavior,), None),
}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion):
    runs, budget = CRITERIA[criterion]
    t0 = time.time()
    results = [run() for run in runs]
    elapsed = time.time() - t0
    for r in results:
        detail = f"  ({r.detail})" if r.detail else ""
        print(
            f"[{'PASS' if r.passed else 'FAIL'}] {criterion} {r.name}: "
            f"worst residual {r.residual:.3g}{detail}"
        )
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    if budget is not None:
        assert elapsed < budget, f"{criterion} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_full_verify_runtime_budget():
    # the CLI-level "verify --suite all" contract: full pass, < 5 minutes
    t0 = time.time()
    results = checks.run_suite("all", seed=7)
    elapsed = time.time() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"
    assert elapsed < 300.0, f"verify-all took {elapsed:.0f}s"


def test_full_verify_runs_every_check(monkeypatch):
    # the test above gates each check only while the suites call it by its
    # module-level name; every stub records its call and passes
    called = []

    def stub(name):
        def run(*args):
            called.append(name)
            return checks.CheckResult(name, True, 0.0)
        return run

    names = {name for name in vars(checks) if name.startswith("check_")}
    for name in names:
        monkeypatch.setattr(checks, name, stub(name))
    checks.run_suite("all", seed=7)
    in_all = names - {"check_code_oracle"}
    assert set(called) == in_all
    called.clear()
    checks.run_suite("all", seed=7, code=object())
    assert called.count("check_code_oracle") == 1
    for runs, _ in CRITERIA.values():
        for run in runs:
            # a lambda reaches its stub through the module
            called.clear()
            getattr(checks, run.__name__, run)()
            assert len(called) == 1 and called[0] in in_all, run
