"""Named verification suites behind the ``verify`` subcommand.

Each check returns a :class:`CheckResult` with the worst residual it saw;
the suites are deterministic given the seed.  The oracle suite verifies the
floating-point bound machinery against exact rational combinatorics; the
identities suite covers the derivative, endpoint, concavity and integer
identities; the bounds suite covers the curve-level claims.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import NamedTuple

from . import bounds, core, lp, oracle, solve
from .errors import DomainError

__all__ = ["CheckResult", "SUITES", "run_suite"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _result(name, passed, residual, detail=""):
    return CheckResult(name=name, passed=bool(passed), residual=float(residual), detail=detail)


def _arange(start, stop, step):
    """The points of ``np.arange(start, stop, step)`` as Python floats, bit
    for bit: numpy fills start + i * ((start + step) - start)."""
    delta = (start + step) - start
    return [start + i * delta for i in range(math.ceil((stop - start) / step))]


# ---------------------------------------------------------------------------
# identities suite


def _derivative_residual(f, derivative):
    """Largest |central difference of f(L, p, k) in p - derivative(L, p, k)|
    over L 2..8, k 0..L and p 0.05..0.95, with step 1e-6."""
    import numpy as np

    step, p = 1e-6, np.arange(0.05, 0.951, 0.05)
    worst = 0.0
    for L in range(2, 9):
        for k in range(0, L + 1):
            fd = (f(L, p + step, k) - f(L, p - step, k)) / (2 * step)
            worst = max(worst, np.max(np.abs(fd - derivative(L, p, k))))
    return worst


def check_excess_derivative():
    """d/dp E[max(W - k, 0)] = L P[V >= k] with V one trial shorter,
    against central finite differences."""
    worst = _derivative_residual(
        core.expected_excess, lambda L, p, k: L * core.binomial_tail(L - 1, p, k)
    )
    return _result("excess-expectation derivative identity", worst <= 1e-5, worst)


def check_tail_derivative():
    """d/dp P[W >= k] = L P[V = k-1] with V one trial shorter, against
    central finite differences."""
    worst = _derivative_residual(
        core.binomial_tail, lambda L, p, k: L * core.binomial_pmf(L - 1, p, k - 1)
    )
    return _result("binomial tail derivative identity", worst <= 1e-5, worst)


def check_sum_identity_all():
    """Weighted partial binomial sums collapse to n C(n-1, ell), exactly:
    sum_{u <= ell} (n - 2u) C(n, u) = n C(n-1, ell), one running sum per n."""
    ok = True
    for n in range(1, 65):
        sums = accumulate((n - 2 * u) * comb(n, u) for u in range(n + 1))
        ok &= all(total == n * comb(n - 1, ell) for ell, total in enumerate(sums))
    return _result("weighted binomial sum identity (n <= 64)", ok, 0.0)


def check_tail_inequality_all():
    """Strict majority-tail inequality for half lengths up to 20, exact:
    sum_{u < a} (2a+1-2u) C(2a+1, u) equals (2a+1) C(2a, a-1) and is
    strictly below (2a+1) C(2a+1, a)."""
    ok = True
    for a in range(1, 21):
        n = 2 * a + 1
        lhs = sum((n - 2 * u) * comb(n, u) for u in range(a))
        ok &= lhs == n * comb(n - 1, a - 1) and lhs < n * comb(n, a)
    return _result("strict majority-tail inequality (a <= 20)", ok, 0.0)


def check_region_inequality():
    """Region scan of the two-variable log inequality."""
    violations = oracle.verify_monotonicity_region()
    return _result(
        f"maximizer-monotonicity region scan (step {oracle.REGION_STEP:g})",
        not violations,
        float(len(violations)),
        detail=f"{len(violations)} violations",
    )


def check_poly_concavity():
    """Second differences of the average-radius polynomials stay below
    1e-12 on a 1e-3 grid for all L <= 12."""
    import numpy as np

    worst = -math.inf
    xs = np.arange(1e-3, 1.0 - 1e-3, 1e-3)
    h = 1e-3
    for L in range(1, 13):
        for j in range(0, L + 1):
            g = core.avg_radius_evaluator(L, j)(xs)
            second = g[2:] - 2.0 * g[1:-1] + g[:-2]
            worst = max(worst, float(second.max()))
    return _result("average-radius polynomial concavity", worst <= 1e-12, worst)


def check_poly_monotone():
    """The average-radius polynomials are nondecreasing on [0, 1/2]."""
    import numpy as np

    worst = -math.inf
    xs = np.arange(0.0, 0.5, 1e-3)
    for L in range(1, 13):
        for j in range(0, L + 1):
            g = core.avg_radius_evaluator(L, j)(xs)
            worst = max(worst, float((g[:-1] - g[1:]).max()))
    return _result("average-radius polynomial monotone on [0, 1/2]", worst <= 1e-12, worst)


def check_poly_at_one():
    """value at 1 equals j/(L+j) exactly."""
    ok = all(
        core.avg_radius_poly(L, j, Fraction(1)) == Fraction(j, L + j)
        for L in range(1, 13)
        for j in range(0, L + 1)
    )
    return _result("average-radius polynomial value at 1", ok, 0.0)


def check_exponent_endpoints():
    """Exponent endpoint identities: value h(beta) at 0 and
    (1 - h(d) + h(beta))/2 at the right endpoint d."""
    worst = 0.0
    for beta in _arange(0.02, 0.5, 0.02):
        d = 0.5 - math.sqrt(beta * (1 - beta))
        worst = max(
            worst,
            abs(core.krawtchouk_exponent_value(beta, 0.0) - core.binary_entropy(beta)),
            abs(
                core.krawtchouk_exponent_value(beta, d)
                - 0.5 * (1 - core.binary_entropy(d) + core.binary_entropy(beta))
            ),
        )
    return _result("Krawtchouk exponent endpoint identities", worst <= 1e-9, worst)


def check_exponent_decreasing():
    """The exponent strictly decreases in xi on its domain."""
    worst = -math.inf
    for beta in _arange(0.05, 0.5, 0.05):
        d = 0.5 - math.sqrt(beta * (1 - beta))
        # the points of np.linspace(0.0, d, 200), bit for bit
        xs = [i * (d / 199) for i in range(199)] + [d]
        e = [core.krawtchouk_exponent_value(beta, x) for x in xs]
        worst = max(worst, max(b - a for a, b in zip(e, e[1:])))
    return _result("Krawtchouk exponent decreasing in xi", worst < 0.0, worst)


def check_lp1_involution():
    """Applying the LP1 distance map twice returns the starting distance."""
    worst = 0.0
    for d in _arange(0.01, 0.5001, 0.01):
        d = min(d, 0.5)
        r = core.binary_entropy(0.5 - math.sqrt(d * (1 - d)))
        worst = max(worst, abs(core.delta_lp1(r) - d))
    return _result("LP1 distance involution", worst <= 1e-9, worst)


def check_split_endpoints():
    """Split average-radius value at the xi1 endpoints: j/(L+j) scaling at
    0 and the plain polynomial at the upper endpoint."""
    worst = 0.0
    for L in (2, 3, 4, 5, 9):
        for j in core.admissible_j(L):
            for xi0 in (0.1, 0.25, 0.4, 0.49):
                v0 = bounds.split_avg_radius(L, j, xi0, 0.0)
                worst = max(worst, abs(v0 - xi0 * j / (L + j)))
                top = 2.0 * xi0 * (1.0 - xi0)
                v1 = bounds.split_avg_radius(L, j, xi0, top)
                worst = max(worst, abs(v1 - core.avg_radius_poly(L, j, xi0)))
    return _result("split average-radius endpoint identities", worst <= 1e-12, worst)


def check_g1_dominance():
    """j = 1 dominates every admissible j near 1/2 for odd L (grids shrink
    with L), plus the exact strict sandwich P[W > a+1] < g1(1/2) < P[W >= a+1]
    with W ~ Bino(L, 1/2), L = 2a + 1; even-L control has its maximum at
    j = 0."""
    import numpy as np

    ok = True
    for L in (3, 5, 7, 9, 11, 13, 15):
        xs = np.arange(0.45 if L <= 9 else 0.47, 0.50001, 0.001)
        g1 = core.avg_radius_evaluator(L, 1)(xs) + 1e-12
        ok &= all(
            (core.avg_radius_evaluator(L, j)(xs) <= g1).all() for j in core.admissible_j(L)
        )
        a = (L - 1) // 2
        g1_half = core.avg_radius_poly(L, 1, Fraction(1, 2))
        tail_ge = Fraction(sum(comb(L, w) for w in range(a + 1, L + 1)), 2**L)
        tail_gt = Fraction(sum(comb(L, w) for w in range(a + 2, L + 1)), 2**L)
        ok &= tail_gt < g1_half < tail_ge
    vals = {j: core.avg_radius_poly(4, j, 0.49) for j in core.admissible_j(4)}
    ok &= max(vals, key=vals.get) == 0
    return _result("j=1 dominance near 1/2 (odd L), j=0 control (L=4)", ok, 0.0)


def check_plotkin_parity():
    """Even-L Plotkin radius equals the preceding odd one; odd L strictly
    exceeds the preceding even one on (0, 1/2]."""
    import numpy as np

    xs = np.arange(0.01, 0.5001, 0.01)
    # the list-L Plotkin radius is the (L + 1, 0) average-radius polynomial
    radius = {L: core.avg_radius_evaluator(L + 1, 0)(xs) for L in range(1, 10)}
    worst = max(np.abs(radius[L] - radius[L - 1]).max() for L in (2, 4, 6, 8))
    strict = min((radius[L] - radius[L - 1]).min() for L in (3, 5, 7, 9))
    return _result(
        "Plotkin radius parity relations",
        worst <= 1e-12 and strict > 0.0,
        worst,
        detail=f"min odd-even gap {strict:.3e}",
    )


# ---------------------------------------------------------------------------
# oracle suite


def check_type_radius_equivalence(seed):
    """Average radius with pinned zero rows equals the type functional,
    exactly, on 200 seeded random subsets."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(3, 16)
        size = rng.randint(1, 4)
        j = rng.randint(0, 4)
        words = sorted(rng.sample(range(1 << n), size))
        T = oracle.joint_type(words, n)
        lhs = oracle.avg_radius_of_type(T, j)
        rhs = Fraction(oracle.average_radius([0] * j + words, n), n)
        if lhs != rhs:
            return _result("type functional vs pinned average radius", False, 1.0,
                           detail=f"n={n} size={size} j={j}")
    return _result("type functional vs pinned average radius (200 cases)", True, 0.0)


def check_weight_marginal_identity(seed):
    """Subset-enumeration weight marginal equals the column-hypergeometric
    formula, exactly, on 50 seeded random codes."""
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randint(4, 12)
        size = rng.randint(4, 10)
        L = rng.randint(1, min(4, size))
        code = oracle.BinaryCode.random(rng, n, size)
        if oracle.avg_joint_type(code, L).weight_marginal() != oracle.weight_marginal_exact(code, L):
            return _result("average-type weight marginal identity", False, 1.0,
                           detail=f"n={n} size={size} L={L}")
    return _result("average-type weight marginal identity (50 codes)", True, 0.0)


def check_chebyshev_vs_average(seed):
    """Chebyshev radius dominates the average radius (max >= mean)."""
    rng = random.Random(seed)
    worst = -math.inf
    for _ in range(100):
        n = rng.randint(2, 14)
        size = rng.randint(1, 6)
        words = sorted(rng.sample(range(1 << n), min(size, 1 << n)))
        gap = oracle.chebyshev_radius(words, n) - oracle.average_radius(words, n)
        worst = max(worst, float(-gap))
    return _result("Chebyshev radius >= average radius", worst <= 0.0, worst)


def check_majority_optimal(seed):
    """Majority-vote average radius matches exhaustive minimization."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 10)
        m = rng.randint(1, 5)
        words = [rng.randrange(1 << n) for _ in range(m)]
        totals = [0] * (1 << n)  # per center, the summed distance to the words
        for w in words:
            totals = [t + (c ^ w).bit_count() for c, t in enumerate(totals)]
        best = min(totals)
        if oracle.average_radius(words, n) != Fraction(best, m):
            return _result("majority vote attains the average radius", False, 1.0,
                           detail=f"n={n} words={words}")
    return _result("majority vote attains the average radius", True, 0.0)


def check_shift_invariance(seed):
    """The list radius of an explicit code is translation invariant."""
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(3, 8)
        size = rng.randint(3, 6)
        L = rng.randint(1, size - 1)
        code = oracle.BinaryCode.random(rng, n, size)
        shift = rng.randrange(1 << n)
        if oracle.tau_list(code, L) != oracle.tau_list(code.shifted(shift), L):
            return _result("list radius shift invariance", False, 1.0)
    return _result("list radius shift invariance", True, 0.0)


def check_type_lipschitz(seed):
    """Type functional is 2^(L-1)-Lipschitz in sup distance, exactly."""
    rng = random.Random(seed)
    for _ in range(50):
        L = rng.randint(1, 4)
        j = rng.randint(0, 4)
        size = 1 << L

        def random_type():
            nums = [rng.randint(0, 20) for _ in range(size)]
            while sum(nums) == 0:
                nums = [rng.randint(0, 20) for _ in range(size)]
            return oracle.JointType(L, nums, sum(nums))

        t1, t2 = random_type(), random_type()
        lhs = abs(oracle.avg_radius_of_type(t1, j) - oracle.avg_radius_of_type(t2, j))
        rhs = 2 ** (L - 1) * t1.sup_distance(t2)
        if lhs > rhs:
            return _result("type functional Lipschitz bound", False, float(lhs - rhs))
    return _result("type functional Lipschitz bound", True, 0.0)


def check_radius_dominates_type(seed):
    """Chebyshev radius of a set plus the origin dominates every pinned
    type functional (exhaustive radius, n <= 16)."""
    rng = random.Random(seed)
    worst = -math.inf
    for _ in range(40):
        n = rng.randint(3, 16)
        size = rng.randint(1, 4)
        words = sorted(rng.sample(range(1, 1 << n), size))
        rad = oracle.chebyshev_radius([0] + words, n)
        T = oracle.joint_type(words, n)
        for j in range(0, 5):
            gap = Fraction(rad, n) - oracle.avg_radius_of_type(T, j)
            worst = max(worst, float(-gap))
    return _result("radius with origin dominates type functional", worst <= 0.0, worst)


def check_mixture_decay(seed):
    """Sup distance between the average type and the Bernoulli mixture
    decays like 1/|C| on nested codes (qualitative: scaled error stays
    bounded and does not grow)."""
    rng = random.Random(seed)
    n, L = 10, 3
    sizes = (4, 8, 14)
    words = rng.sample(range(1 << n), max(sizes))
    scaled = []
    for m in sizes:
        code = oracle.BinaryCode(n=n, words=tuple(sorted(words[:m])))
        err = oracle.avg_joint_type(code, L).sup_distance(
            oracle.bernoulli_mixture_type(code, L)
        )
        scaled.append(float(err) * m)
    ok = max(scaled) <= 4.0 * max(scaled[0], 1e-9) and max(scaled) < 10.0
    return _result(
        "Bernoulli-mixture error decays like 1/|C|",
        ok,
        max(scaled),
        detail=f"scaled errors {['%.3f' % s for s in scaled]}",
    )


def check_code_oracle(code: oracle.BinaryCode):
    """Identity checks on one explicit code (for ``verify --code``)."""
    L = min(3, len(code.words))
    lhs = oracle.avg_joint_type(code, L).weight_marginal()
    rhs = oracle.weight_marginal_exact(code, L)
    return _result(
        f"weight marginal identity on provided code (n={code.n}, M={len(code.words)})",
        lhs == rhs,
        0.0 if lhs == rhs else 1.0,
    )


# ---------------------------------------------------------------------------
# bounds suite


def check_crossover_table(crossings):
    """The crossover rates ``crossings`` (by L, for the published list
    sizes) match the published table to ``bounds.CROSSOVER_TOLERANCE``."""
    refs = bounds.reference_crossovers()
    worst = max(abs(crossings[L] - ref) for L, ref in refs.items())
    details = " ".join(f"L={L}:{crossings[L]:.4f}" for L in refs)
    return _result(
        "crossover rates vs published table", worst <= bounds.CROSSOVER_TOLERANCE, worst, details
    )


def check_central_vs_closed_form():
    """Central bound agrees with the explicit list-3 form to 1e-6."""
    worst = 0.0
    for R in _arange(0.05, 0.501, 0.05):
        worst = max(worst, abs(bounds.list_radius_bound(3, R)[0] - bounds.list3_closed_form(R)))
    return _result("central bound vs explicit list-3 form", worst <= 1e-6, worst)


def check_zero_rate_agreement():
    """All bound evaluators approach the exact zero-rate radius."""
    worst = 0.0
    for L in (3, 5, 7, 9, 11):
        zr = float(bounds.zero_rate_radius(L))
        worst = max(worst, abs(bounds.blinovsky_bound(L, 1e-3) - zr))
        worst = max(worst, abs(bounds.list_radius_bound(L, 1e-3)[0] - zr))
    worst = max(worst, abs(bounds.list3_closed_form(1e-3) - float(bounds.zero_rate_radius(3))))
    return _result("zero-rate radius agreement", worst <= 5e-3, worst)


def check_blinovsky_zero_exact():
    """Catalan partial sums at lam = 1/2 telescope to the zero-rate
    radius, exactly."""
    ok = True
    for L in (1, 3, 5, 7, 9, 11):
        total = sum(
            Fraction(comb(2 * i - 2, i - 1), i) * Fraction(1, 4) ** i
            for i in range(1, (L + 1) // 2 + 1)
        )
        ok &= total == bounds.zero_rate_radius(L)
    return _result("Catalan sum telescopes to zero-rate radius", ok, 0.0)


def check_lp_agreement_regime():
    """Second LP bound equals the LP1 rate below the divergence onset;
    the onset sits near 0.305."""
    worst = 0.0
    for R in _arange(0.05, 0.2801, 0.01):
        worst = max(worst, abs(lp.r_lp2(core.delta_lp1(R))[0] - R))
    # the onset is where R - r_lp2 first exceeds 1e-6, bracketed to the
    # width that 40 halvings of [0.28, 0.40] would reach
    lo, hi = solve.brent_root(
        lambda R: 1e-6 - (R - lp.r_lp2(core.delta_lp1(R))[0]), 0.28, 0.40, 1.5e-13
    )
    onset = 0.5 * (lo + hi)
    ok = worst <= 1e-4 and abs(onset - 0.305) <= 0.01
    return _result(
        "LP1/LP2 agreement regime and divergence onset",
        ok,
        worst,
        detail=f"onset {onset:.4f}",
    )


def check_abl_branch():
    """List-2 branch point value and continuity."""
    tau0 = lp.abl_branch_point()
    resid = abs(lp.r_lp2(2 * tau0)[0] - (1 - core.binary_entropy(2 * tau0) + core.binary_entropy(lp.abl_sphere_param(tau0))))
    ok = abs(tau0 - 0.1093) <= 0.001 and resid <= 1e-6
    return _result("list-2 branch point and continuity", ok, resid, detail=f"tau0 {tau0:.5f}")


def check_ordering_below_crossover(crossings):
    """Central bound strictly below the Catalan sum under each crossover of
    ``crossings`` (by L), and never below it by more than solver noise above."""
    worst_low = -math.inf
    worst_high = -math.inf
    for L, rc in crossings.items():
        for R in _arange(0.02, rc - bounds.CROSSOVER_TOLERANCE, 0.02):
            d = bounds.list_radius_bound(L, R, exponent="binomial")[0] - bounds.blinovsky_bound(L, R)
            worst_low = max(worst_low, d)
        for R in _arange(rc + 0.01, 0.99, 0.05):
            d = bounds.list_radius_bound(L, R, exponent="binomial")[0] - bounds.blinovsky_bound(L, R)
            worst_high = max(worst_high, -d)
    ok = worst_low < 0.0 and worst_high <= 1e-9
    return _result(
        "ordering against the Catalan sum across the crossover",
        ok,
        max(worst_low, 0.0),
        detail=f"max diff below {worst_low:.2e}, above {-worst_high:.2e}",
    )


def check_central_monotone_and_relaxed():
    """Central bound nonincreasing in rate and dominated by the concavity
    relaxation."""
    worst_mono = -math.inf
    worst_rel = -math.inf
    for L in (3, 4, 5):
        prev = None
        for R in _arange(0.05, 0.951, 0.05):
            t = bounds.list_radius_bound(L, R)[0]
            if prev is not None:
                worst_mono = max(worst_mono, t - prev)
            prev = t
            worst_rel = max(worst_rel, t - bounds.slope_relaxation_bound(L, R).tau)
    ok = worst_mono <= 1e-10 and worst_rel <= 1e-10
    return _result("central bound monotone and below relaxation", ok, max(worst_mono, worst_rel))


def check_witness_validity():
    """Returned witnesses satisfy their defining relations to 1e-8."""
    worst = 0.0
    for L in (3, 4, 9):
        for R in (0.1, 0.3, 0.6):
            tau, w = bounds.list_radius_bound(L, R)
            ximax = 0.5 - math.sqrt(w.beta * (1 - w.beta))
            worst = max(worst, max(0.0, -w.xi0), max(0.0, w.xi0 - ximax))
            worst = max(worst, max(0.0, -w.xi1), max(0.0, w.xi1 - 2 * w.xi0 * (1 - w.xi0)))
            worst = max(worst, abs(bounds.split_avg_radius(L, w.j, w.xi0, w.xi1) - tau))
            rp = R + core.binary_entropy(w.beta) - 2 * core.krawtchouk_exponent_value(w.beta, w.xi0)
            worst = max(worst, abs(rp - w.r_prime))
            if w.j not in core.admissible_j(L):
                worst = max(worst, 1.0)
    return _result("witness validity", worst <= 1e-8, worst)


def _relaxation_decay(L, tau0, scale):
    """(tau0 - the list-L relaxation at rate h(eps^2)) / scale(eps) for
    eps = 0.01, 0.02, ..., 0.1."""
    return [
        (tau0 - bounds.slope_relaxation_bound(L, core.binary_entropy(eps * eps)).tau) / scale(eps)
        for eps in (0.01 * k for k in range(1, 11))
    ]


def check_slope_behavior():
    """Linear decay in eps of the odd-L relaxation and eps^2 log(1/eps)
    decay of the even-L one."""
    ratios3 = _relaxation_decay(3, float(bounds.zero_rate_radius(3)), lambda eps: eps)
    tau4 = float(max(core.avg_radius_poly(4, j, Fraction(1, 2)) for j in core.admissible_j(4)))
    ratios4 = _relaxation_decay(4, tau4, lambda eps: eps * eps * math.log2(1 / eps))
    ok = all(0.05 <= r <= 5 for r in ratios3) and all(0.1 <= r <= 10 for r in ratios4)
    return _result(
        "slope behavior at zero rate (odd linear, even quadratic-log)",
        ok,
        0.0,
        detail=f"odd {min(ratios3):.3f}..{max(ratios3):.3f}, even {min(ratios4):.3f}..{max(ratios4):.3f}",
    )


def check_lp2_properties():
    """Witness feasibility, monotonicity and LP1 dominance of the second
    LP bound."""
    worst_feas = -math.inf
    worst_mono = -math.inf
    worst_dom = -math.inf
    prev = None
    for d in _arange(0.02, 0.501, 0.02):
        rate, wit = lp.r_lp2(d)
        worst_feas = max(worst_feas, lp.lp2_constraint(wit.alpha, wit.beta) - d)
        lp1_rate = core.binary_entropy(0.5 - math.sqrt(d * (1 - d)))
        worst_dom = max(worst_dom, rate - lp1_rate)
        if prev is not None:
            worst_mono = max(worst_mono, rate - prev)
        prev = rate
    ok = worst_feas <= 1e-10 and worst_mono <= 1e-9 and worst_dom <= 1e-9
    return _result(
        "second LP bound feasibility, monotonicity, LP1 dominance",
        ok,
        max(worst_feas, worst_mono, worst_dom),
    )


def _identity_checks(seed):
    return [
        check_excess_derivative(),
        check_tail_derivative(),
        check_sum_identity_all(),
        check_tail_inequality_all(),
        check_region_inequality(),
        check_poly_concavity(),
        check_poly_monotone(),
        check_poly_at_one(),
        check_exponent_endpoints(),
        check_exponent_decreasing(),
        check_lp1_involution(),
        check_split_endpoints(),
        check_g1_dominance(),
        check_plotkin_parity(),
    ]


def _oracle_checks(seed):
    return [
        check_type_radius_equivalence(seed),
        check_weight_marginal_identity(seed),
        check_chebyshev_vs_average(seed),
        check_majority_optimal(seed),
        check_shift_invariance(seed),
        check_type_lipschitz(seed),
        check_radius_dominates_type(seed),
        check_mixture_decay(seed),
    ]


def _bounds_checks(seed):
    # each published crossover is found once and read by two checks
    crossings = {L: bounds.crossover_rate(L) for L in bounds.reference_crossovers()}
    return [
        check_crossover_table(crossings),
        check_central_vs_closed_form(),
        check_zero_rate_agreement(),
        check_blinovsky_zero_exact(),
        check_lp_agreement_regime(),
        check_abl_branch(),
        check_ordering_below_crossover(crossings),
        check_central_monotone_and_relaxed(),
        check_witness_validity(),
        check_slope_behavior(),
        check_lp2_properties(),
    ]


SUITES = {
    "identities": _identity_checks,
    "oracle": _oracle_checks,
    "bounds": _bounds_checks,
}


def run_suite(suite: str, seed: int = 0, code=None) -> list[CheckResult]:
    """Run one suite (or "all"); deterministic under the seed."""
    if suite == "all":
        names = ["identities", "oracle", "bounds"]
    elif suite in SUITES:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}")
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    if code is not None:
        results.append(check_code_oracle(code))
    return results
