import math
import random

import pytest

from listradius import bounds, checks, core, lp, oracle
from listradius.errors import DomainError, SizeLimitError

NAN = float("nan")
CODE = oracle.BinaryCode(n=4, words=(0b0011, 0b0101, 0b1010, 0b1100))
L_MESSAGE = "list size must be a positive integer, got {}"
XI_MESSAGE = "xi={} exceeds 1/2 - sqrt(beta(1-beta)) for beta={}"

# One public entry point per function that applies the shared list-size or
# rate rule, with the exact message that the command line prints for it.
DOMAIN_CASES = [
    (bounds.blinovsky_bound, (0, 0.2), L_MESSAGE.format(0)),
    (bounds.zero_rate_radius, (-1,), L_MESSAGE.format(-1)),
    (bounds.slope_relaxation_bound, (2.0, 0.2), L_MESSAGE.format(2.0)),
    (bounds.best_upper_bound, (0, 0.2), L_MESSAGE.format(0)),
    (core.admissible_j, (0,), L_MESSAGE.format(0)),
    (core.avg_radius_evaluator, (0, 0), L_MESSAGE.format(0)),
    (oracle.tau_list, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.avg_joint_type, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.weight_marginal_exact, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.bernoulli_mixture_type, (CODE, 0), L_MESSAGE.format(0)),
    # witness --L 1
    (bounds.list_radius_bound, (1, 0.2), "list size must be an integer >= 2, got 1"),
    (bounds.list_radius_bound, (3, NAN), "rate must lie in (0, 1), got nan"),
    (bounds.list_radius_bound, (3, 1.5), "rate must lie in (0, 1), got 1.5"),
    # witness --L 3 --R 1e-12 --beta 2.737394338980792e-11 --exponent binomial
    (bounds.list_radius_bound, (3, 1e-12, 2.737394338980792e-11, "binomial"),
     "h(beta)=1.0000003554949304e-09 exceeds rate 1e-12"),
    # witness --L 3 --R 0.9999999999999999 --beta 0.4999999999: h(beta) rounds
    # to 1, within 4 ulps of the rate, and xi_max(beta) to 0
    (bounds.list_radius_bound, (3, 0.9999999999999999, 0.4999999999),
     "beta=0.4999999999 leaves no sphere radius: xi_max(beta) rounds to 0"),
    (bounds.list3_parameters, (0,), "rate must lie in (0, 1), got 0.0"),
    (bounds.list3_closed_form, (NAN,), "rate must lie in (0, 1), got nan"),
    (bounds.best_upper_bound, (3, 1), "rate must lie in (0, 1), got 1.0"),
    (bounds.best_upper_bound, (1, NAN), "rate must lie in (0, 1), got nan"),
    (lp.lp2_tau, (0.0,), "rate must lie in (0, 1), got 0.0"),
    (lp.abl2_tau, (NAN,), "rate must lie in (0, 1), got nan"),
    (bounds.blinovsky_bound, (3, NAN), "rate must lie in [0, 1], got nan"),
    (bounds.blinovsky_bound, (3, -0.1), "rate must lie in [0, 1], got -0.1"),
    (bounds.slope_relaxation_bound, (3, 1.5), "rate must lie in [0, 1], got 1.5"),
    (core.delta_lp1, (NAN,), "rate must lie in [0, 1], got nan"),
    (lp.lp1_tau, (2,), "rate must lie in [0, 1], got 2.0"),
    # the sphere radius of the split average radius, under solve_xi1's rule
    (bounds.split_avg_radius, (3, 1, 0.0, 0.0), "xi0 must lie in (0, 1), got 0.0"),
    (bounds.split_avg_radius, (3, 1, 1.0, 0.0), "xi0 must lie in (0, 1), got 1.0"),
    # guards that no command reaches, as the command line offers only valid
    # suite and bound names and the bounds pass these only in-range arguments
    (checks.run_suite, ("bogus",), "unknown suite 'bogus'"),
    (bounds.sample_curve, ("nope", 3, [0.2]), "unknown bound 'nope'"),
    (bounds.solve_xi1, (0.0, 0.1), "xi0 must lie in (0, 1), got 0.0"),
    (lp.abl_sphere_param, (0.3,), "tau must lie in (0, 1/4), got 0.3"),
    # past 1 - xi_max the root's discriminant is positive again, and the root
    # formula at (0.1, 0.9) gives 0.179, not the symmetric E(0.1, 0.1) = 0.432
    (core.krawtchouk_exponent_value, (0.1, 0.9), XI_MESSAGE.format(0.9, 0.1)),
    (core.krawtchouk_exponent_value, (0.3, math.inf), XI_MESSAGE.format(math.inf, 0.3)),
    (core.krawtchouk_exponent_value, (0.5, 1.0), XI_MESSAGE.format(1.0, 0.5)),
]


@pytest.mark.parametrize(
    "func, args, message",
    DOMAIN_CASES,
    ids=[
        "-".join([f.__name__, *(str(a) for a in args if a is not CODE)])
        for f, args, _ in DOMAIN_CASES
    ],
)
def test_domain_message(func, args, message):
    with pytest.raises(DomainError) as info:
        func(*args)
    assert str(info.value) == message


HALVES = oracle.JointType(L=1, counts=(1, 1), den=2)
QUARTERS = oracle.JointType(L=2, counts=(1,) * 4, den=4)

# The argument guards of the exact oracles.  No command reaches them (a code
# file is parsed into distinct words of one blocklength, at most 24 long),
# but a library caller does.  Without its guard, each of these calls would
# return a wrong value, fail with an unrelated exception or run past a size
# cap.
ORACLE_CASES = [
    ("word-not-int", oracle.chebyshev_radius, ([1.5, 3], 2), DomainError,
     "word 1.5 is not an integer"),
    ("blocklength-not-int", oracle.chebyshev_radius, ([1, 3], 2.0), DomainError,
     "blocklength must be a positive integer, got 2.0"),
    ("blocklength-zero", oracle.joint_type, ([0], 0), DomainError,
     "blocklength must be a positive integer, got 0"),
    ("word-too-long", oracle.chebyshev_radius, ([8], 3), DomainError,
     "word 8 does not fit in 3 coordinates"),
    ("radius-no-words", oracle.chebyshev_radius, ([], 3), DomainError,
     "need at least one word"),
    ("average-no-words", oracle.average_radius, ([], 3), DomainError,
     "need at least one word"),
    ("code-no-words", oracle.BinaryCode, (3, ()), DomainError,
     "code must contain at least one word"),
    ("random-code-too-large", oracle.BinaryCode.random, (random.Random(0), 2, 5),
     DomainError, "cannot pick 5 distinct words of length 2"),
    ("tau-list-cover-work", oracle.tau_list,
     (oracle.BinaryCode(n=24, words=tuple(range(65))), 3), SizeLimitError,
     "radius search capped at |C| min(k, |C| - k + 1) 2^n <= 4294967296, "
     "got 4362076160"),
    ("radius-cover-work", oracle.chebyshev_radius, (range(257), 24), SizeLimitError,
     "radius search capped at |C| min(k, |C| - k + 1) 2^n <= 4294967296, "
     "got 4311744512"),
    ("avg-type-few-words", oracle.avg_joint_type, (oracle.BinaryCode(n=3, words=(1, 2)), 3),
     DomainError, "code needs at least 3 words"),
    ("mixture-type-L", oracle.bernoulli_mixture_type, (CODE, 6), SizeLimitError,
     "mixture type capped at L <= 5"),
    ("type-length", oracle.JointType, (2, (1,), 1), DomainError,
     "type must have 2^L entries"),
    ("type-L-negative", oracle.JointType, (-1, (1,), 1), DomainError,
     "type list size must be a nonnegative integer, got -1"),
    ("type-all-zero", oracle.JointType, (1, (0, 0), 0), DomainError,
     "type entries must sum to 1 exactly"),
    ("sup-distance-L", HALVES.sup_distance, (QUARTERS,), DomainError,
     "types must share the same L"),
    ("shift-count-negative", oracle.avg_radius_of_type, (HALVES, -1), DomainError,
     "shift count must be a nonnegative integer, got -1"),
    ("radius-empty-type", oracle.avg_radius_of_type, (oracle.joint_type([], 1), 0),
     DomainError, "average radius needs L + j >= 1, got L = 0, j = 0"),
]


@pytest.mark.parametrize(
    "func, args, error, message",
    [case[1:] for case in ORACLE_CASES],
    ids=[case[0] for case in ORACLE_CASES],
)
def test_oracle_guard_message(func, args, error, message):
    with pytest.raises(error) as info:
        func(*args)
    assert type(info.value) is error
    assert str(info.value) == message
