"""Exception hierarchy shared by all sivcav modules."""


class SivCavError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SivCavError, ValueError):
    """A constructor or operation received an out-of-contract parameter."""


class DomainError(SivCavError, ValueError):
    """An operation was evaluated outside its mathematical domain."""


class RotatingFrameError(SivCavError, ValueError):
    """The drives close a loop; the rotating frame is built for trees of drives."""


class SteadyStateError(SivCavError, RuntimeError):
    """Liouvillian has no unique, positive steady state."""


class FitError(SivCavError, RuntimeError):
    """Least-squares estimation failed (singular Jacobian, bad input)."""


class ConfigError(SivCavError, ValueError):
    """Protocol configuration is missing, malformed or inconsistent."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
