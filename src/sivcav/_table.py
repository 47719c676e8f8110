"""Output text: columnar CSV written by an exact vectorized %e kernel, and
strict JSON.

`csv_text` writes the bytes that per-cell `%` formatting would write, but
formats a whole block of cells at once. The "%.{p}e" text of a float x
(1 <= p <= 13) is its sign, then the p + 1 digits of the integer m nearest to
s = |x| * 10^(p - e) with a point after the first, then e, where
e = floor(log10|x|). The kernel computes it so:

- e is floor(log10|x|) in float64, corrected by one +-1 step so that s lies
  in [10^p, 10^(p+1)); a log10 off by one near a power of ten is caught there;
- 10^(p - e) is 10^(16 j) * 10^r from two tables: the first correctly
  rounded, the second exact (r < 16), so the table entry and the product s
  carry at most three roundings: |s - s_exact| <= 3.0000001 * 2^-53 * s;
- m = floor(s) + (frac(s) > 1/2). The nearest integer to s_exact differs from
  that only if a half-integer lies between s and s_exact, i.e. only if
  |frac(s) - 1/2| <= |s - s_exact|. Every cell with
  |frac(s) - 1/2| <= 2^-51 * s (more than that bound) goes to the fallback,
  so the kernel also never meets an exact decimal tie, which `%` rounds half
  to even;
- an m that rounds up to 10^(p+1) is written as 10^p with e + 1, and a
  zero as m = 0 and e = 0, signed by its sign bit;
- the digits of m and of e come from small lookup tables of 4-byte words.

The fallback formats each cell with `%`: the cells left undecided above,
every non-finite value and every nonzero |x| outside (1e-290, 1e290). Of
each unit interval of s, a share 2^-50 * s < 2^-50 * 10^(p+1) is undecided:
under 0.9 % for p = 12 and under 1e-5 for p = 9. A column of any other
format (a "%d" column, say) is formatted with `%` once per distinct value.

Rows are formatted in blocks of `_BLOCK_ROWS`. A block's cells go into a
fixed-width, NUL-padded uint8 buffer, one row per CSV row; the NULs are
dropped and the block decoded and yielded. So memory stays O(block) beyond
the columns, for a caller that writes each chunk as it comes.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .errors import InvalidParameterError

_BLOCK_ROWS = 4096
_MAX_PRECISION = 13      # 10^(p+1) < 2^53, so floor(s) is exact
_MAX_MAGNITUDE = 1e290   # keeps e and 10^(p - e) well inside the tables
_LOW_POWER = -300        # pow10[k - _LOW_POWER] is 10^k, for k up to 308
_EXP_OFFSET = 300        # exponent[e + _EXP_OFFSET] holds the text after m


def _ascii_rows(strings, width) -> np.ndarray:
    """(len(strings), width) uint8: each string's ASCII bytes, NUL-padded."""
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(
        len(strings), width)


@functools.cache
def _tables():
    """The kernel's lookup tables, built on its first call, so that importing
    this module does not pay for them.

    pow10 holds 10^k as a correctly rounded 10^(16 j) times the exact 10^r,
    r < 16. A kernel cell is a row of uint32 words: a head word
    [",", "-" or NUL, first digit, "."], the p digits after the point
    right-aligned in 4-digit words (NULs before them), then the exponent's
    8 bytes [e, sign, hundreds or NUL, tens, units, NUL x 3].
    """
    k = np.arange(_LOW_POWER, 309)
    big = np.array([float(f"1e{16 * j}") for j in range(-19, 20)])
    pow10 = big[k // 16 + 19] * np.array([float(10 ** r) for r in range(16)])[k % 16]
    head = _ascii_rows([f",{s}{d}." for s in "\0-" for d in range(10)], 4)
    pairs = _ascii_rows([f"{n:02d}" for n in range(100)], 2).view(np.uint16).ravel()
    digits4 = np.column_stack([np.repeat(pairs, 100), np.tile(pairs, 100)])
    e = np.abs(np.arange(-_EXP_OFFSET, _EXP_OFFSET + 1))
    exponent = np.zeros((len(e), 8), dtype=np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(np.arange(len(e)) < _EXP_OFFSET, ord("-"), ord("+"))
    exponent[:, 2] = np.where(e >= 100, 48 + e // 100, 0)
    exponent[:, 3:5] = pairs[e % 100, None].view(np.uint8)
    return (pow10, head.view(np.uint32).ravel(), digits4.view(np.uint32).ravel(),
            exponent.view(np.uint64).ravel())


def _percent(fmt, values) -> list:
    """`fmt % v` for each of `values`: the reference the kernel reproduces."""
    return ((fmt + "\n") * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _take(table, index) -> np.ndarray:
    """Rows `index` of the 2-D uint8 `table`, laid side by side per index row."""
    rows = table.view(f"V{table.shape[1]}")[:, 0]
    return rows.take(index).view(np.uint8).reshape(len(index), -1)


def _e_cells(values, p) -> np.ndarray:
    """Per value, "," + "%.{p}e" % v as a NUL-padded uint8 row."""
    n_words = -(-p // 4)
    pow10, head, digits4, exponent = _tables()
    a = np.abs(values)
    exact = (a > 1.0 / _MAX_MAGNITUDE) & (a < _MAX_MAGNITUDE)
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * pow10[(p - _LOW_POWER) - e]
    e += s >= float(10 ** (p + 1))
    e -= s < float(10 ** p)
    s = a * pow10[(p - _LOW_POWER) - e]
    m = np.floor(s)
    frac = s - m
    exact &= np.abs(frac - 0.5) > s * 2.0 ** -51
    m = m.astype(np.int64) + (frac > 0.5)
    zero = values == 0.0  # ran as a = 1 above, so e is already 0
    exact |= zero
    m[zero] = 0
    carry = m == 10 ** (p + 1)
    m[carry] = 10 ** p
    e += carry

    cells = np.empty((len(values), n_words + 3), dtype=np.uint32)
    first = m // 10 ** p
    cells[:, 0] = head[first + 10 * np.signbit(values)]
    m -= first * 10 ** p
    for w in range(n_words, 1, -1):
        q = m // 10 ** 4
        cells[:, w] = digits4[m - q * 10 ** 4]
        m = q
    pad = 4 * n_words - p  # leading places of the first word, all 0: NUL them
    cells[:, 1] = digits4[m] & np.frombuffer(bytes(pad) + b"\xff" * (4 - pad),
                                              np.uint32)
    cells[:, -2:].view(np.uint64)[:, 0] = exponent[e + _EXP_OFFSET]
    cells = cells.view(np.uint8)
    if not exact.all():
        rest = ~exact
        cells[rest] = _ascii_rows(_percent(f",%.{p}e", values[rest]),
                                  cells.shape[1])
    return cells


def _kernel_precision(fmt):
    """p of an "%.{p}e" format the kernel writes, else None."""
    digits = fmt[2:-1]
    if fmt[:2] == "%." and fmt[-1:] == "e" and digits.isdigit() \
            and 1 <= int(digits) <= _MAX_PRECISION:
        return int(digits)
    return None


def _block_text(block, formats, precisions) -> str:
    """The CSV rows of one block of column slices, each led by a newline."""
    n = len(block[0])
    cells = [None] * len(block)
    for p in set(precisions) - {None}:
        cols = [i for i, q in enumerate(precisions) if q == p]
        rows = _e_cells(np.concatenate([block[i] for i in cols]), p)
        for j, i in enumerate(cols):
            cells[i] = rows[j * n:(j + 1) * n]
    for i, (a, fmt, p) in enumerate(zip(block, formats, precisions)):
        if p is None:
            _, first, inverse = np.unique(a.view(np.int64), return_index=True,
                                          return_inverse=True)
            text = _percent("," + fmt, a[first])
            cells[i] = _take(_ascii_rows(text, max(map(len, text))), inverse)
    buf = np.hstack(cells)
    buf[:, 0] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(headers, columns, formats):
    """CSV with one header line and one row per index of the 1-D `columns`,
    yielded as the header line, one chunk per `_BLOCK_ROWS` rows (each led
    by a newline), then the final newline.

    Cells of a column are written with its %-format: float64 values for a
    float format, int64 for a "%d" one (so a bool mask writes 0/1), each
    block converted on its own. The text is byte for byte that of
    `fmt % value` per cell. Cells of an "%.{p}e" format with 1 <= p <= 13 go
    through the exact kernel described above, one call per block and
    precision, which leaves to `%` only the cells it cannot decide; all
    other cells are formatted with `%` once per distinct value of their
    column and block, told apart by their bits.
    """
    arrays = [np.asarray(c) for c in columns]
    shapes = [a.shape for a in arrays]
    if not len(headers) == len(columns) == len(formats) or len(set(shapes)) > 1 \
            or any(a.ndim != 1 for a in arrays):
        raise InvalidParameterError(
            f"CSV needs one equal-length 1-D column per header and format; got "
            f"{len(headers)} headers, {len(formats)} formats and column shapes "
            f"{shapes}")
    dtypes = [np.int64 if f.endswith("d") else np.float64 for f in formats]
    precisions = [_kernel_precision(f) for f in formats]  # None for "%d"
    yield ",".join(headers)
    for k in range(0, len(arrays[0]) if arrays else 0, _BLOCK_ROWS):
        yield _block_text([a[k:k + _BLOCK_ROWS].astype(t, copy=False)
                           for a, t in zip(arrays, dtypes)], formats, precisions)
    yield "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def json_text(payload) -> str:
    """Sorted-key JSON with every non-finite float written as null.

    NaN and infinities are not JSON; `allow_nan=False` makes any that slip
    past the substitution raise instead of printing bare `NaN`.
    """
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
