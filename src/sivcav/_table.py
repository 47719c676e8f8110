"""Columnar CSV text: each distinct value of a column is formatted once."""

from __future__ import annotations

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
