"""Acceptance criteria, one test per criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion; the whole module stays well under the stated runtime
budgets on commodity hardware.
"""
import math
import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from listradius import bounds, checks, core, oracle


def _report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, text


def test_c01_crossover_table():
    t0 = time.time()
    refs = bounds.reference_crossovers()
    worst = 0.0
    rows = []
    for L, ref in refs.items():
        got = bounds.crossover_rate(L).r_cross
        worst = max(worst, abs(got - ref))
        rows.append(f"L={L}:{got:.4f}")
    elapsed = time.time() - t0
    ok = worst <= 0.002 and elapsed < 120.0
    _report(
        1,
        ok,
        f"crossover rates {' '.join(rows)} within 0.002 of the published "
        f"table ({elapsed:.1f}s < 120s)",
    )


def test_c02_zero_rate_radius():
    worst = 0.0
    for L in (3, 5, 7, 9, 11):
        exact = bounds.zero_rate_radius(L)
        target = float(exact)
        worst = max(worst, abs(bounds.blinovsky_bound(L, 1e-3) - target))
        worst = max(worst, abs(bounds.list_radius_bound(L, 1e-3)[0] - target))
        # the closed form must hold exactly
        assert exact == Fraction(1, 2) - Fraction(comb(L, (L - 1) // 2), 2 ** (L + 1))
    worst = max(worst, abs(bounds.list3_closed_form(1e-3) - float(bounds.zero_rate_radius(3))))
    _report(2, worst <= 5e-3, f"zero-rate agreement, worst deviation {worst:.2e} <= 5e-3")


def test_c03_central_vs_closed_form():
    worst = 0.0
    for k in range(1, 11):
        R = 0.05 * k
        worst = max(
            worst,
            abs(bounds.list_radius_bound(3, R)[0] - bounds.list3_closed_form(R)),
        )
    _report(3, worst <= 1e-6, f"list-3 evaluators agree, worst gap {worst:.2e} <= 1e-6")


def test_c04_list2_branch_point():
    r = checks.check_abl_branch()
    _report(
        4,
        r.passed,
        f"list-2 branch point {r.detail} = 0.1093 +- 0.001, branch gap "
        f"{r.residual:.2e} <= 1e-6",
    )


def test_c05_lp_agreement_regime():
    r = checks.check_lp_agreement_regime()
    _report(
        5,
        r.passed,
        f"LP2 matches LP1 to {r.residual:.2e} <= 1e-4 on [0.05, 0.28]; divergence "
        f"{r.detail} = 0.305 +- 0.01",
    )


def test_c06_exact_identity_suite():
    t0 = time.time()
    ok_sum = all(
        oracle.check_sum_identity(n, ell) for n in range(1, 65) for ell in range(n + 1)
    )
    ok_tail = all(oracle.check_tail_inequality(a) for a in range(1, 21))

    rng = random.Random(7)
    ok_marginal = True
    for _ in range(50):
        n = rng.randint(4, 12)
        size = rng.randint(4, 10)
        L = rng.randint(1, min(4, size))
        code = oracle.BinaryCode.random(rng, n, size)
        ok_marginal &= (
            oracle.avg_joint_type(code, L).weight_marginal()
            == oracle.weight_marginal_exact(code, L)
        )

    ok_equiv = True
    for _ in range(200):
        n = rng.randint(3, 16)
        size = rng.randint(1, 4)
        j = rng.randint(0, 4)
        words = sorted(rng.sample(range(1 << n), size))
        T = oracle.joint_type(words, n)
        ok_equiv &= oracle.avg_radius_of_type(T, j) == Fraction(
            oracle.average_radius([0] * j + words, n), n
        )
    elapsed = time.time() - t0
    ok = ok_sum and ok_tail and ok_marginal and ok_equiv and elapsed < 60.0
    _report(
        6,
        ok,
        "exact identities (weighted sums n<=64, strict tail a<=20, 50 weight "
        f"marginals, 200 pinned-radius equivalences) all hold ({elapsed:.1f}s < 60s)",
    )


def test_c07_numerical_identity_suite():
    step, worst_d = 1e-6, 0.0
    for L in range(2, 9):
        for k in range(L + 1):
            for p in np.arange(0.05, 0.951, 0.05):
                p = float(p)
                fd = (core.expected_excess(L, p + step, k) - core.expected_excess(L, p - step, k)) / (2 * step)
                worst_d = max(worst_d, abs(fd - L * core.binomial_tail(L - 1, p, k)))
                fd2 = (core.binomial_tail(L, p + step, k) - core.binomial_tail(L, p - step, k)) / (2 * step)
                worst_d = max(worst_d, abs(fd2 - L * core.binomial_pmf(L - 1, p, k - 1)))

    worst_c = -math.inf
    xs = np.arange(1e-3, 1.0 - 1e-3, 1e-3)
    for L in range(1, 13):
        for j in range(L + 1):
            g = core.avg_radius_poly(L, j, xs)
            worst_c = max(worst_c, float((g[2:] - 2 * g[1:-1] + g[:-2]).max()))

    worst_e = 0.0
    for beta in np.arange(0.02, 0.5, 0.02):
        beta = float(beta)
        d = 0.5 - math.sqrt(beta * (1 - beta))
        worst_e = max(
            worst_e,
            abs(core.krawtchouk_exponent_value(beta, 0.0) - core.binary_entropy(beta)),
            abs(
                core.krawtchouk_exponent_value(beta, d)
                - 0.5 * (1 - core.binary_entropy(d) + core.binary_entropy(beta))
            ),
        )
    ok = worst_d <= 1e-5 and worst_c <= 1e-12 and worst_e <= 1e-9
    _report(
        7,
        ok,
        f"derivative identities ({worst_d:.2e} <= 1e-5), concavity "
        f"({worst_c:.2e} <= 1e-12), exponent endpoints ({worst_e:.2e} <= 1e-9)",
    )


def test_c08_region_inequality():
    violations = oracle.verify_monotonicity_region(1e-3)
    _report(8, not violations, f"region scan at step 1e-3: {len(violations)} violations")


def test_c09_ordering_claims():
    worst_cross = -math.inf
    for L in (3, 5, 7, 9, 11):
        rc = bounds.crossover_rate(L).r_cross
        for R in np.arange(0.02, rc - 0.002, 0.02):
            d = (
                bounds.list_radius_bound(L, float(R), exponent="binomial")[0]
                - bounds.blinovsky_bound(L, float(R))
            )
            worst_cross = max(worst_cross, d)

    worst_even = 0.0
    worst_odd = math.inf
    for xi in np.arange(0.01, 0.5001, 0.01):
        xi = float(xi)
        for L in (2, 4, 6):
            worst_even = max(
                worst_even,
                abs(core.plotkin_radius(L, xi) - core.plotkin_radius(L - 1, xi)),
            )
        for L in (3, 5, 7):
            worst_odd = min(
                worst_odd,
                core.plotkin_radius(L, xi) - core.plotkin_radius(L - 1, xi),
            )
    ok = worst_cross < 0.0 and worst_even <= 1e-12 and worst_odd > 0.0
    _report(
        9,
        ok,
        f"strict improvement below every crossover (max diff {worst_cross:.2e}); "
        f"Plotkin parity (even gap {worst_even:.1e}, odd margin {worst_odd:.1e})",
    )


def test_c10_slope_behavior():
    tau3 = float(bounds.zero_rate_radius(3))
    ratios3 = []
    for k in range(1, 11):
        eps = 0.01 * k
        sb = bounds.slope_relaxation_bound(3, core.binary_entropy(eps * eps))
        ratios3.append((tau3 - sb.tau) / eps)
    ok3 = all(0.05 <= r <= 5.0 for r in ratios3)

    tau4 = float(max(core.avg_radius_poly(4, j, Fraction(1, 2)) for j in core.admissible_j(4)))
    ratios4 = []
    for k in range(1, 11):
        eps = 0.01 * k
        sb = bounds.slope_relaxation_bound(4, core.binary_entropy(eps * eps))
        ratios4.append((tau4 - sb.tau) / (eps * eps * math.log2(1.0 / eps)))
    ok4 = all(0.1 <= r <= 10.0 for r in ratios4)
    _report(
        10,
        ok3 and ok4,
        f"odd-L decay linear in eps (ratios {min(ratios3):.3f}..{max(ratios3):.3f} "
        f"in [0.05, 5]); even-L decay eps^2 log(1/eps) within factor 10 "
        f"(ratios {min(ratios4):.3f}..{max(ratios4):.3f})",
    )


def test_full_verify_runtime_budget():
    # the CLI-level "verify --suite all" contract: full pass, < 5 minutes
    t0 = time.time()
    results = checks.run_suite("all", seed=7)
    elapsed = time.time() - t0
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"
    assert elapsed < 300.0, f"verify-all took {elapsed:.0f}s"
