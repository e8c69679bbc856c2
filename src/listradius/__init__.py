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


# Every computing module runs on the first use of one of its names, so a
# command pays only for the layers it calls: ``witness``, ``table1`` and
# the central curves never run ``lp``, and ``verify --suite oracle`` runs
# ``checks`` and ``oracle`` alone.  ``from . import bounds`` binds a module
# without running it; ``from .core import name`` runs ``core``.
core = _lazy_submodule("core")
solve = _lazy_submodule("solve")
lp = _lazy_submodule("lp")
bounds = _lazy_submodule("bounds")
oracle = _lazy_submodule("oracle")
checks = _lazy_submodule("checks")

__version__ = "0.1.0"

__all__ = ["__version__"]
