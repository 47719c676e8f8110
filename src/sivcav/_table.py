"""Output text: columnar CSV, each distinct value of a column formatted once,
and strict JSON."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidParameterError


def csv_text(headers, columns, formats) -> str:
    """CSV with one header line and one row per index of the 1-D `columns`.

    Cells of a column are written with its %-format: float64 values for a
    float format, int64 for a "%d" one (so a bool mask writes 0/1). Values are
    told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    arrays = [np.asarray(c, dtype=np.int64 if f.endswith("d") else np.float64)
              for c, f in zip(columns, formats)]
    shapes = [a.shape for a in arrays]
    if not len(headers) == len(columns) == len(formats) or len(set(shapes)) > 1 \
            or any(a.ndim != 1 for a in arrays):
        raise InvalidParameterError(
            f"CSV needs one equal-length 1-D column per header and format; got "
            f"{len(headers)} headers, {len(formats)} formats and column shapes "
            f"{shapes}")
    cells = []
    for a, fmt in zip(arrays, formats):
        _, first, inverse = np.unique(a.view(np.int64), return_index=True,
                                      return_inverse=True)
        text = ((fmt + "\n") * len(first) % tuple(a[first].tolist())).split("\n")
        cells.append(np.array(text[:-1], dtype=object)[inverse].tolist())
    return "\n".join([",".join(headers), *map(",".join, zip(*cells))]) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def json_text(payload, indent=2) -> str:
    """Sorted-key JSON with every non-finite float written as null.

    NaN and infinities are not JSON; `allow_nan=False` makes any that slip
    past the substitution raise instead of printing bare `NaN`.
    """
    return json.dumps(_finite_or_null(payload), indent=indent, sort_keys=True,
                      allow_nan=False)
