"""Exception types raised by gannet."""


class GannetError(Exception):
    """Base class for all gannet errors."""


class FormulaError(GannetError):
    """Malformed model formula. Carries the character position of the fault."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ConfigError(GannetError):
    """Invalid or unsupported configuration value."""


class DataValidationError(GannetError):
    """Input data violates a precondition (missing column, bad values, ...)."""


class DegenerateDataError(DataValidationError):
    """Data admits no meaningful fit (constant response, zero-variance covariate)."""


class NumericInstabilityError(GannetError):
    """A non-finite value appeared during training."""


class ModelFileError(GannetError):
    """Model file is corrupt, truncated, or has an incompatible version."""
