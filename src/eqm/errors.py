"""Exception types shared across the package."""

__all__ = [
    "EqmError",
    "DomainError",
    "InvalidInterval",
    "SingularPoint",
    "NegativeRadicand",
    "NegativeDensity",
    "NotEven",
    "UnsupportedRegime",
    "SingularSystem",
    "PrecisionLoss",
    "NoConvergence",
    "ParseError",
]


class EqmError(Exception):
    """Base class for all package errors."""


class DomainError(EqmError):
    """A derivative or value was requested where it does not exist."""


class InvalidInterval(EqmError):
    """An integration interval is empty or reversed."""


class SingularPoint(EqmError):
    """An evaluation point coincides with a singularity of the integrand."""


class NegativeRadicand(EqmError):
    """A square root of a negative quantity appeared in an endpoint equation."""


class NegativeDensity(EqmError):
    """A constructed density is significantly negative somewhere."""


class NotEven(EqmError):
    """An operation requiring an even field was called with an uneven one."""


class UnsupportedRegime(EqmError):
    """No asymptotic prediction is available for the requested field/sign."""


class SingularSystem(EqmError):
    """A linear system defining an auxiliary polynomial is singular."""


class PrecisionLoss(EqmError):
    """A computation cannot reach the requested accuracy."""


class NoConvergence(EqmError):
    """Newton stopped before the residual norm reached tol."""


class ParseError(EqmError):
    """An input file could not be parsed."""
