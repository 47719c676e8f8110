"""The sampled 1-d trace that the forward models return and the fits take."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = ["Spectrum"]


@dataclass(frozen=True)
class Spectrum:
    """Sampled 1-d trace: finite y at strictly monotone, finite x. Fits
    weight every point alike."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise InvalidParameterError("x and y must be 1-d arrays of equal length")
        d = np.diff(x)
        if len(x) > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise InvalidParameterError("x must be strictly monotone")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise InvalidParameterError("spectrum values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
