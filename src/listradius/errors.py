"""Exception types shared across the package, and the two input rules
that most of its entry points share."""


class ListRadiusError(Exception):
    """Base class for all library errors."""


class DomainError(ListRadiusError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeLimitError(ListRadiusError, ValueError):
    """An exact enumeration was requested beyond its hard size caps."""


class NoSolutionError(ListRadiusError, ArithmeticError):
    """A root or crossover does not exist in the searched interval."""


def check_list_size(L):
    """Reject a list size L that is not a positive integer."""
    if not isinstance(L, int) or L < 1:
        raise DomainError(f"list size must be a positive integer, got {L}")


def check_rate(R, closed=False) -> float:
    """R as a float, rejected outside (0, 1), or outside [0, 1] when
    ``closed``; NaN lies in neither."""
    R = float(R)
    if closed:
        if not 0.0 <= R <= 1.0:
            raise DomainError(f"rate must lie in [0, 1], got {R}")
    elif not 0.0 < R < 1.0:
        raise DomainError(f"rate must lie in (0, 1), got {R}")
    return R
