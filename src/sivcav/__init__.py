"""Simulation and analysis toolkit for a cavity-coupled SiV spin-photon interface."""

__version__ = "0.1.0"

from .errors import (
    SivCavError,
    InvalidParameterError,
    DomainError,
    RotatingFrameError,
    SteadyStateError,
    FitError,
    ConfigError,
)

__all__ = [
    "__version__",
    "SivCavError", "InvalidParameterError", "DomainError", "RotatingFrameError",
    "SteadyStateError", "FitError", "ConfigError",
]
