"""Exception types shared across the package."""


class PresnovError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PresnovError, ValueError):
    """A point, vector, or operand has the wrong dimension."""


class NonFiniteValueError(PresnovError, ArithmeticError):
    """An evaluation produced NaN or an infinity."""


class DomainError(PresnovError, ValueError):
    """A point lies outside a field's domain, or too close to its boundary."""


class QuadratureError(PresnovError, ArithmeticError):
    """Adaptive quadrature did not converge within its subdivision budget."""


class ConfigError(PresnovError, ValueError):
    """A setting or argument lies outside its valid range.

    Raised by the owner of the value (a config class or the entry point
    that takes it) before any numeric work.
    """


class CatalogError(PresnovError, ValueError):
    """Unknown catalog entry or invalid entry parameters."""


class ParseError(PresnovError, ValueError):
    """Expression source could not be parsed; carries a 1-based position."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CertificateError(PresnovError, RuntimeError):
    """A required boundary certificate did not pass."""


class NoCertifiedRadiusError(PresnovError, RuntimeError):
    """No radius in the search schedule certified the boundary condition."""

    def __init__(self, message, probe_verdict=None):
        super().__init__(message)
        self.probe_verdict = probe_verdict
