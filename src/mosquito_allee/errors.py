"""Exception hierarchy shared across the package.

Three failure categories are kept distinct so callers can react
appropriately: bad numeric inputs (``DomainError``), parameter sets that a
routine cannot operate on (``ConfigurationError``), and a result failing
its internal verification (``InternalConsistencyError``).
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

    Typical causes: a ``Params`` rate outside its range (nonpositive, or
    ``alpha`` or ``mu`` above one), or a query that needs an interior
    fixed point when none exists.
    """


class InternalConsistencyError(MosquitoAlleeError, RuntimeError):
    """A result failed its internal verification.

    One check raises it: the closed form's denominator
    ``alpha*(beta-mu) - gamma*mu^2`` against the existence decision (it
    can round to ``<= 0`` within a few ulps of the threshold).
    Existence itself is decided once, so its two equivalent forms are
    reported but never compared.  This signals a bug or the limit of
    floating-point resolution, never a user mistake; it should not be
    caught and ignored.
    """
