"""Exception types shared across the package."""


class FndamError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FndamError, ValueError):
    """A physical quantity is outside the domain where the model is defined."""


class ArgumentError(FndamError, ValueError):
    """Arguments are individually valid but mutually inconsistent."""


class SaturationError(FndamError, RuntimeError):
    """A requested programming target cannot be reached within limits."""


class InitializationError(FndamError, RuntimeError):
    """Cell synchronization failed; carries the indices that failed."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class ConfigError(FndamError, ValueError):
    """Configuration rejected; message includes the offending key path."""


class StateFormatError(FndamError, ValueError):
    """Persisted state could not be parsed or failed integrity checks."""
