"""Exception hierarchy shared by all sivcav modules."""


class SivCavError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SivCavError, ValueError):
    """A constructor or operation received an out-of-contract parameter."""


class DomainError(SivCavError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class RotatingFrameError(SivCavError, ValueError):
    """The set of drives admits no consistent rotating frame."""


class SteadyStateError(SivCavError, RuntimeError):
    """Liouvillian null space is degenerate or ill-conditioned."""


class FitError(SivCavError, RuntimeError):
    """Least-squares estimation failed (singular Jacobian, bad input)."""


class ConfigError(SivCavError, ValueError):
    """Protocol configuration is missing, malformed or inconsistent."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
