import pytest

from listradius import bounds, core, lp, oracle
from listradius.errors import DomainError

NAN = float("nan")
CODE = oracle.BinaryCode(n=4, words=(0b0011, 0b0101, 0b1010, 0b1100))
L_MESSAGE = "list size must be a positive integer, got {}"

# One public entry point per function that applies the shared list-size or
# rate rule, with the exact message that the command line prints for it.
DOMAIN_CASES = [
    (bounds.blinovsky_bound, (0, 0.2), L_MESSAGE.format(0)),
    (bounds.zero_rate_radius, (-1,), L_MESSAGE.format(-1)),
    (bounds.slope_relaxation_bound, (2.0, 0.2), L_MESSAGE.format(2.0)),
    (bounds.best_upper_bound, (0, 0.2), L_MESSAGE.format(0)),
    (core.admissible_j, (0,), L_MESSAGE.format(0)),
    (core.avg_radius_evaluator, (0, 0), L_MESSAGE.format(0)),
    (core.plotkin_radius, (0, 0.2), L_MESSAGE.format(0)),
    (oracle.tau_list, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.avg_joint_type, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.weight_marginal_exact, (CODE, 0), L_MESSAGE.format(0)),
    (oracle.bernoulli_mixture_type, (CODE, 0), L_MESSAGE.format(0)),
    # witness --L 1
    (bounds.list_radius_bound, (1, 0.2), "list size must be an integer >= 2, got 1"),
    (bounds.list_radius_bound, (3, NAN), "rate must lie in (0, 1), got nan"),
    (bounds.list_radius_bound, (3, 1.5), "rate must lie in (0, 1), got 1.5"),
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
