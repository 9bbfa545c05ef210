"""Exception hierarchy shared across the package.

Three failure categories are kept distinct so callers can react
appropriately: bad numeric inputs (``DomainError``), parameter sets that a
routine cannot operate on (``ConfigurationError``), and internal
cross-checks disagreeing with each other (``InternalConsistencyError``).
"""

__all__ = ["MosquitoAlleeError", "DomainError", "ConfigurationError", "InternalConsistencyError"]


class MosquitoAlleeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MosquitoAlleeError, ValueError):
    """A numeric argument is outside its mathematical domain.

    Raised for non-finite values, negative population states, and similar
    pointwise violations.
    """


class ConfigurationError(MosquitoAlleeError, ValueError):
    """A parameter set is invalid or unsupported for the requested routine.

    Typical causes: nonpositive rates, a survival or transition fraction
    above one where the restricted operator requires it in (0, 1], or a
    query that needs an interior fixed point when none exists.
    """


class InternalConsistencyError(MosquitoAlleeError, RuntimeError):
    """Two independent internal computations disagree.

    This signals a bug (or a parameter set at the edge of floating-point
    resolution), never a user mistake; it should not be caught and ignored.
    """
