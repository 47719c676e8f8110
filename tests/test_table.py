import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sivcav._table import csv_text, json_text
from sivcav.errors import InvalidParameterError
from sivcav.magnetics import CuboidMagnet, field_map_grid, field_map_to_csv
from sivcav.protocols import _csv

FIELD_MAP_HEADER = "x_m,y_m,z_m,bx_t,by_t,bz_t,masked"

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
        assert _csv(headers, columns) == expected
        assert csv_text(headers, columns, ["%.12e"] * n_columns) == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_field_map_matches_per_row_format(self, data):
        columns = data.draw(float_columns(6))
        n = len(columns[0])
        masked = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                          dtype=bool)
        points, b = np.column_stack(columns[:3]), np.column_stack(columns[3:])
        assert field_map_to_csv(points, b, masked) == \
            reference_field_map_csv(points, b, masked)

    def test_field_map_on_symmetry_plane_with_masked_points(self):
        # the shipped two-magnet assembly on y = 0, with grid points inside both
        assembly = [CuboidMagnet((s * 10.45e-3, 0.0, -4e-3), (10e-3,) * 3,
                                 (1.35, 0.0, 0.0)) for s in (-1, 1)]
        points, b, masked = field_map_grid(assembly, np.linspace(-20e-3, 20e-3, 17),
                                           [0.0], np.linspace(-10e-3, 10e-3, 9))
        assert 0 < masked.sum() < len(masked)
        assert field_map_to_csv(points, b, masked) == \
            reference_field_map_csv(points, b, masked)

    def test_signed_zeros_keep_their_text(self):
        text = _csv(["v"], [np.array([0.0, -0.0, 0.0, -0.0])])
        assert text.split("\n")[1:5] == ["0.000000000000e+00", "-0.000000000000e+00"] * 2

    def test_zero_rows_write_the_header_only(self):
        assert _csv(["x", "v"], [np.zeros(0), np.zeros(0)]) == "x,v\n"
        assert field_map_to_csv(np.zeros((0, 3)), np.zeros((0, 3)),
                                np.zeros(0, bool)) == FIELD_MAP_HEADER + "\n"


class TestShapes:
    def test_unequal_protocol_columns_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"\(2,\), \(5,\)"):
            _csv(["x", "v"], [np.arange(2), np.arange(5)])

    def test_short_field_map_mask_rejected(self):
        points = np.arange(9.0).reshape(3, 3)
        with pytest.raises(InvalidParameterError, match=r"\(3,\), .*\(2,\)"):
            field_map_to_csv(points, points, np.array([False, True]))

    @pytest.mark.parametrize("columns", [[np.zeros((2, 2))], [np.float64(1.0)]])
    def test_non_vector_column_rejected(self, columns):
        with pytest.raises(InvalidParameterError):
            csv_text(["v"], columns, ["%.12e"])

    def test_header_count_must_match(self):
        with pytest.raises(InvalidParameterError, match="3 headers"):
            csv_text(["a", "b", "c"], [np.zeros(2), np.zeros(2)], ["%.12e"] * 2)


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
