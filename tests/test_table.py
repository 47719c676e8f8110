import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivcav import _table, protocols
from sivcav._table import csv_text, json_text
from sivcav.config import validate_tree
from sivcav.errors import InvalidParameterError

FIELD_MAP_HEADER = "x_m,y_m,z_m,bx_t,by_t,bz_t,masked"


def magnet_map_table(x_mm, z_mm):
    """The magnet-map runner's table: the shipped two-magnet assembly on the
    y = 0 plane, with axes (start, stop, points) in mm."""
    return protocols._run_magnet_map(validate_tree({
        "protocol": "magnet_map",
        "magnets": [{"center_mm": [s * 10.45, 0.0, -4.0],
                     "dimensions_mm": [10.0, 10.0, 10.0],
                     "remanence_t": [1.35, 0.0, 0.0]} for s in (-1, 1)],
        "grid": {key: dict(zip(("start", "stop", "points"), axis))
                 for key, axis in (("x_mm", x_mm), ("y_mm", (0.0, 0.0, 1)),
                                   ("z_mm", z_mm))},
        "pcc_mm": [1.1, 0.0, 0.0]}))


#: the headers and formats that the magnet-map runner returns
FIELD_MAP = magnet_map_table((0.0, 0.0, 1), (0.0, 0.0, 1))


def joined(headers, columns, formats):
    return "".join(csv_text(headers, columns, formats))


def protocol_csv(headers, columns):
    """The text `run_protocol` writes for a runner table that gives no
    formats: every cell "%.12e"."""
    return joined(headers, columns, ["%.12e"] * len(columns))


def field_map_csv(points, b, masked):
    """Field-map columns under the magnet-map runner's headers and formats."""
    return joined(FIELD_MAP.headers, [*np.transpose(points), *np.transpose(b),
                                      masked], FIELD_MAP.formats)

# values whose text is easy to get wrong in a formatter that works per value
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1.0, 0.1]


def reference_csv(headers, columns):
    """One f"{v:.12e}" per cell, row by row: the protocol table format."""
    lines = [",".join(headers)]
    for i in range(len(columns[0])):
        lines.append(",".join(f"{float(c[i]):.12e}" for c in columns))
    return "\n".join(lines) + "\n"


def reference_field_map_csv(points, b, masked):
    """One "%.9e" x 6 + ",%d" per row: the field-map format."""
    row = ",".join(["%.9e"] * 6) + ",%d"
    lines = [row % (*xb, m) for xb, m in zip(np.hstack([points, b]).tolist(), masked)]
    return "\n".join([FIELD_MAP_HEADER] + lines) + "\n"


@st.composite
def float_columns(draw, n_columns):
    """Equal-length float columns drawn from a small pool, so values repeat."""
    pool = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                   allow_subnormal=True), min_size=1, max_size=6))
    pool = np.array(pool + SPECIAL)
    n_rows = draw(st.integers(0, 40))
    return [pool[draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=n_rows, max_size=n_rows))]
            for _ in range(n_columns)]


class TestByteIdentity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_columns=st.integers(1, 5))
    def test_protocol_table_matches_per_cell_format(self, data, n_columns):
        columns = data.draw(float_columns(n_columns))
        headers = [f"c{k}" for k in range(n_columns)]
        expected = reference_csv(headers, columns)
        assert protocol_csv(headers, columns) == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_field_map_matches_per_row_format(self, data):
        columns = data.draw(float_columns(6))
        n = len(columns[0])
        masked = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                          dtype=bool)
        points, b = np.column_stack(columns[:3]), np.column_stack(columns[3:])
        assert field_map_csv(points, b, masked) == \
            reference_field_map_csv(points, b, masked)

    def test_field_map_on_symmetry_plane_with_masked_points(self):
        # the shipped two-magnet assembly on y = 0, with grid points inside both
        table = magnet_map_table((-20.0, 20.0, 17), (-10.0, 10.0, 9))
        points = np.column_stack(table.columns[:3])
        b, masked = np.column_stack(table.columns[3:6]), table.columns[6]
        assert 0 < masked.sum() < len(masked)
        assert joined(table.headers, table.columns, table.formats) == \
            reference_field_map_csv(points, b, masked)

    def test_signed_zeros_keep_their_text(self):
        text = protocol_csv(["v"], [np.array([0.0, -0.0, 0.0, -0.0])])
        assert text.split("\n")[1:5] == ["0.000000000000e+00", "-0.000000000000e+00"] * 2

    def test_zero_rows_write_the_header_only(self):
        assert protocol_csv(["x", "v"], [np.zeros(0), np.zeros(0)]) == "x,v\n"
        assert field_map_csv(np.zeros((0, 3)), np.zeros((0, 3)),
                             np.zeros(0, bool)) == FIELD_MAP_HEADER + "\n"


def raw_float(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def near_tie(p):
    """Floats at or next to a decimal tie of "%.{p}e": a (p + 2)-digit integer
    ending in 5, or a neighbour, times 10^k."""
    tie = st.integers(10 ** p, 10 ** (p + 1) - 1).map(lambda k: 10.0 * k + 5.0)
    side = st.sampled_from([0.0, math.inf, -math.inf])
    nearby = st.tuples(tie, side).map(lambda t: math.nextafter(*t) if t[1] else t[0])
    return st.tuples(nearby, st.integers(-280, 280), st.booleans()).map(
        lambda t: (-1.0 if t[2] else 1.0) * t[0] * 10.0 ** t[1])


def near_power_of_ten():
    """Floats within a few hundred ulps of 10^k, where log10 may round to k."""
    return st.tuples(st.integers(-289, 289), st.integers(-300, 300)).map(
        lambda t: float(f"1e{t[0]}") * (1.0 + t[1] * 2.0 ** -53))


EDGES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072009e-308, 1.7976931348623157e308,
         *(s * math.nextafter(x, to) for s in (1.0, -1.0) for x in (1e-290, 1e290)
           for to in (0.0, x, math.inf))]


def kernel_floats(p):
    return st.one_of(st.integers(0, 2 ** 64 - 1).map(raw_float), near_tie(p),
                     near_power_of_ten(),
                     st.integers(1, 2 ** 52 - 1).map(raw_float),  # subnormals
                     st.sampled_from(EDGES))


def assert_cells_match(values, p):
    """Every cell of a two-column table equals "%.{p}e" % v."""
    values = np.asarray(values, dtype=np.float64)
    text = joined(["a", "b"], [values, values[::-1]], [f"%.{p}e"] * 2)
    expected = [f"%.{p}e,%.{p}e" % (u, v) for u, v in zip(values.tolist(),
                                                         values[::-1].tolist())]
    assert text.split("\n")[1:-1] == expected


class TestKernelExactness:
    @pytest.mark.parametrize("p", [9, 12])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cells_equal_percent_format(self, p, data):
        values = data.draw(st.lists(kernel_floats(p), min_size=1, max_size=160))
        assert_cells_match(values, p)

    @pytest.mark.parametrize("p", [1, 9, 12, 13])
    def test_rows_across_block_seams(self, p):
        rng = np.random.default_rng(p)
        n = 2 * _table._BLOCK_ROWS + 77
        ties = (rng.integers(10 ** p, 10 ** (p + 1), n) * 10 + 5).astype(float)
        values = np.concatenate([
            rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.nextafter(ties, rng.choice([-np.inf, np.inf], n))
            * 10.0 ** rng.integers(-20, 20, n),
            10.0 ** rng.integers(-289, 290, n)
            * (1 + rng.integers(-300, 300, n) * 2.0 ** -53),
            EDGES])
        assert_cells_match(rng.permutation(values), p)

    def test_field_map_format_across_block_seams(self):
        rng = np.random.default_rng(7)
        n = _table._BLOCK_ROWS + 500
        points = np.round(rng.uniform(-0.02, 0.02, (n, 3)), 4)
        b = rng.standard_normal((n, 3)) * 0.1
        masked = rng.random(n) < 0.3
        b[masked] = 0.0
        assert field_map_csv(points, b, masked) == \
            reference_field_map_csv(points, b, masked)

    @staticmethod
    def percent_formatted(monkeypatch):
        """The values that `_percent` formats from here on, in call order."""
        formatted, percent = [], _table._percent

        def counting(fmt, values):
            formatted.extend(values.tolist())
            return percent(fmt, values)

        monkeypatch.setattr(_table, "_percent", counting)
        return formatted

    def test_kernel_decides_almost_every_cell(self, monkeypatch):
        # the kernel leaves to `%` only the cells it cannot decide: for p = 12,
        # under 1 % of random values (see the `_table` docstring)
        formatted = self.percent_formatted(monkeypatch)
        values = np.random.default_rng(0).standard_normal(20000)
        assert_cells_match(values, 12)
        assert len(formatted) < 0.01 * len(values)

    def test_kernel_writes_signed_zeros(self, monkeypatch):
        # whole columns of exact zeros (an unused axis, a masked field point,
        # an empty population) are written by the kernel, not by `%`
        formatted = self.percent_formatted(monkeypatch)
        rng = np.random.default_rng(1)
        values = rng.standard_normal(200)
        values[::3], values[1::3] = 0.0, -0.0
        assert len(np.unique(values)) >= 64
        columns = [values, rng.permutation(values), np.zeros(200)]
        formats = ["%.9e", "%.12e", "%.12e"]
        expected = [",".join(f % v for f, v in zip(formats, row))
                    for row in zip(*(c.tolist() for c in columns))]
        assert joined(["a", "b", "c"], columns, formats).split("\n")[1:-1] == \
            expected
        assert not any(v == 0.0 for v in formatted)


class TestMemory:
    def test_field_map_peak_stays_near_the_text_size(self):
        # six "%.9e" columns and a "%d" one, 200k rows: formatting in row blocks
        # and consuming each chunk as it comes keeps the peak of traced
        # allocations within 2.5x the text, and within a fixed budget (here a
        # fifth of the 20 MB text) that does not grow with the rows
        rng = np.random.default_rng(0)
        n = 200_000
        columns = [*rng.uniform(-0.02, 0.02, (3, n)), *rng.standard_normal((3, n)),
                   rng.random(n) < 0.25]
        tracemalloc.start()
        try:
            rows = size = 0
            for chunk in csv_text(FIELD_MAP.headers, columns, FIELD_MAP.formats):
                rows, size = rows + chunk.count("\n"), size + len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == n + 1
        assert peak <= 2.5 * size
        assert peak <= 4_000_000 < size / 5


class TestShapes:
    def test_unequal_protocol_columns_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"\(2,\), \(5,\)"):
            protocol_csv(["x", "v"], [np.arange(2), np.arange(5)])

    def test_short_field_map_mask_rejected(self):
        points = np.arange(9.0).reshape(3, 3)
        with pytest.raises(InvalidParameterError, match=r"\(3,\), .*\(2,\)"):
            field_map_csv(points, points, np.array([False, True]))

    @pytest.mark.parametrize("columns", [[np.zeros((2, 2))], [np.float64(1.0)]])
    def test_non_vector_column_rejected(self, columns):
        with pytest.raises(InvalidParameterError):
            joined(["v"], columns, ["%.12e"])

    def test_header_count_must_match(self):
        with pytest.raises(InvalidParameterError, match="3 headers"):
            joined(["a", "b", "c"], [np.zeros(2), np.zeros(2)], ["%.12e"] * 2)


class TestJson:
    def test_non_finite_floats_are_null(self):
        payload = {"fit": {"sigma": math.nan, "bounds": [-math.inf, 1.5, math.inf]},
                   "value": np.float64("nan"), "ok": True}
        assert json.loads(json_text(payload)) == {
            "fit": {"sigma": None, "bounds": [None, 1.5, None]},
            "value": None, "ok": True}

    def test_finite_payload_is_plain_sorted_json(self):
        payload = {"b": [np.float64(0.1), 2], "a": {"d": -0.0, "c": "x"},
                   "t": (1e-300, 5e-324)}
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
