"""Exception hierarchy shared across the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class DomainError(ReproError):
    """Raised when an abstract element is constructed or used incorrectly."""


class DimensionMismatchError(DomainError):
    """Raised when abstract elements of incompatible dimensions are combined."""


class ImproperZonotopeError(DomainError):
    """Raised when an operation requires a proper (invertible) CH-Zonotope."""


class ConvergenceError(ReproError):
    """Raised when a concrete fixpoint solver fails to converge."""


class VerificationError(ReproError):
    """Raised when a verification query is malformed."""


class ConfigurationError(ReproError):
    """Raised for invalid configuration values."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or loaded."""


class TrainingError(ReproError):
    """Raised when model training fails (e.g. non-finite loss)."""
