"""Upper bounds on the list-decoding radius of binary codes.

Library surface:

* :mod:`listradius.core` -- entropies, Krawtchouk exponent, radius polynomials
* :mod:`listradius.lp` -- the linear-programming rate bounds and the list-2 bound
* :mod:`listradius.bounds` -- the list-decoding radius bounds and crossover rates
* :mod:`listradius.oracle` -- exact small-scale combinatorial oracles
* :mod:`listradius.checks` -- the named verification suites behind ``verify``
* :mod:`listradius.cli` -- the ``listradius`` command line tool
"""
import importlib.util
import sys

from .bounds import (
    BoundCurve,
    CrossoverResult,
    CurvePoint,
    RadiusWitness,
    SlopeBound,
    best_upper_bound,
    blinovsky_bound,
    crossover_rate,
    list3_closed_form,
    list_radius_bound,
    sample_curve,
    slope_relaxation_bound,
    solve_xi1,
    zero_rate_radius,
)
from .core import (
    admissible_j,
    avg_radius_poly,
    binary_entropy,
    delta_lp1,
    inverse_entropy,
    plotkin_radius,
)
from .errors import DomainError, ListRadiusError, NoSolutionError, SizeLimitError
from .lp import Lp2Witness, abl_branch_point, abl_list2, r_lp2


def _lazy_submodule(name):
    """Register the submodule ``name`` without running it: its source is
    compiled and executed on the first attribute access.  Unlike an import
    moved into a function, the module is in ``sys.modules`` and is an
    attribute of the package from the start, so every ``import`` of it
    works as before."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Only ``verify`` runs the checks and the exact oracles; the other commands
# do not pay for compiling and executing them, nor for the numpy import that
# both make at module level.
oracle = _lazy_submodule("oracle")
checks = _lazy_submodule("checks")

__version__ = "0.1.0"

__all__ = [
    "BoundCurve",
    "CrossoverResult",
    "CurvePoint",
    "DomainError",
    "ListRadiusError",
    "Lp2Witness",
    "NoSolutionError",
    "RadiusWitness",
    "SizeLimitError",
    "SlopeBound",
    "abl_branch_point",
    "abl_list2",
    "admissible_j",
    "avg_radius_poly",
    "best_upper_bound",
    "binary_entropy",
    "blinovsky_bound",
    "crossover_rate",
    "delta_lp1",
    "inverse_entropy",
    "list3_closed_form",
    "list_radius_bound",
    "plotkin_radius",
    "r_lp2",
    "sample_curve",
    "slope_relaxation_bound",
    "solve_xi1",
    "zero_rate_radius",
    "__version__",
]
