"""Exception types shared across the package."""


class SemflowError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(SemflowError):
    """Array shapes are inconsistent with the declared spaces."""


class DomainError(SemflowError):
    """A parameter lies outside the mathematically admissible range."""


class GridAlignmentError(SemflowError):
    """A time or location is not commensurate with the grid step."""


class ConfigurationError(SemflowError):
    """An operation was invoked on an unsupported configuration."""


class FrozenRecordError(SemflowError, AttributeError):
    """An attribute of an immutable value was assigned or deleted."""


class NumericalFailure(SemflowError):
    """A computed result is not finite, so it is not written."""


class ContractionViolation(SemflowError):
    """Neumann inversion refused: the input-output map is not a contraction."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class NoConvergence(SemflowError):
    """Neumann series did not reach the target residual."""

    def __init__(self, message, terms, last_term_norm):
        super().__init__(message)
        self.terms = terms
        self.last_term_norm = last_term_norm
