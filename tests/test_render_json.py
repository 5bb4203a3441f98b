"""``cli.render_json`` writes ``json.dumps(payload, sort_keys=True)`` plus a
newline, on the shapes cvue writes and on the scalars JSON spells specially;
``cli.render_table`` writes a table of columns byte for byte as
``cvue.reference.render_rows`` writes its rows, in JSON and CSV."""

import json

import numpy as np
import pytest

from cvue.bounds import FIGURE_IDS, figure_columns
from cvue.cli import render_json, render_table
from cvue.config import FORMATS
from cvue.reference import render_rows

NAN, INF = float("nan"), float("inf")
DIGEST = "0" * 16


def assert_same(value):
    assert render_json(value) == json.dumps(value, sort_keys=True) + "\n"


class TestMatchesJsonDumps:
    def test_special_scalars(self):
        values = [NAN, INF, -INF, 0.0, -0.0, 5e-324, 1e308, 10**100, -(10**100),
                  True, False, None, "é\"\\\n\x00\x1f\x7f€😀", ""]
        assert_same(values)
        assert_same({"rows": [(v,) for v in values]})
        for value in values:
            assert_same(value)
        assert render_json([NAN, -INF, -0.0]) == "[NaN, -Infinity, -0.0]\n"

    def test_empty_containers(self):
        for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], [[[]]]):
            assert_same(value)

    def test_empty_rows(self):
        assert_same({"columns": ["a", "b"], "config_hash": "x", "rows": []})

    def test_rows_of_width_zero(self):
        assert_same({"rows": [(), ()]})

    def test_column_of_signed_zeros(self):
        text = render_json({"rows": [(0.0, 1), (-0.0, 2), (0.0, 3)]})
        assert text == '{"rows": [[0.0, 1], [-0.0, 2], [0.0, 3]]}\n'

    def test_ragged_rows(self):
        assert_same({"rows": [(1, 2), (3,), ()]})

    def test_row_holding_a_list(self):
        assert_same({"rows": [(1, [2, 3]), (4, {"a": [2]})]})

    def test_list_mixing_scalars_and_containers(self):
        assert_same([1, [2, (3, "x")], {"b": 2, "a": [None]}, "y"])

    def test_dict_holding_a_list_of_dicts(self):
        text = render_json({"z": 0, "a": [{"y": 1, "x": [2.5, -0.0]}, {"k": {"j": NAN}}]})
        assert text == '{"a": [{"x": [2.5, -0.0], "y": 1}, {"k": {"j": NaN}}], "z": 0}\n'

    def test_percent_and_brackets_in_strings(self):
        assert_same({"%s": ["%s", "%d %%"], "rows": [("%s", "],\n["), ("%", "%%")]})

    def test_table_shaped(self):
        assert_same({"columns": ["n", "x"], "config_hash": "0" * 16,
                     "rows": [(8, 0.5), (16, 1e-300), (32, None)]})

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figure_tables(self, figure_id):
        # the table the CLI renders, against json.dumps of its rows
        names, columns = figure_columns(figure_id)
        rows = list(zip(*(column.tolist() for column in columns)))
        payload = {"config_hash": "0" * 64, "columns": names, "rows": rows}
        text = render_table(names, columns, "0" * 64, "json")
        assert text == json.dumps(payload, sort_keys=True) + "\n"
        assert text.count("\n") == 1


def test_unserialisable_value_raises_like_json_dumps():
    with pytest.raises(TypeError):
        json.dumps({"a": object()})
    with pytest.raises(TypeError):
        render_json({"a": object()})
    with pytest.raises(TypeError):
        render_json({"rows": [(1, object())]})


def assert_same_table(names, columns):
    rows = list(zip(*(column.tolist() for column in columns)))
    for fmt in FORMATS:
        assert render_table(names, columns, DIGEST, fmt) == render_rows(names, rows, DIGEST, fmt)


class TestRenderTable:
    def test_signed_zeros_stay_apart(self):
        column = np.array([0.0, -0.0, 0.0, -0.0, -0.0])
        assert_same_table(["x", "y"], [column, column[::-1].copy()])
        text = render_table(["x"], [column], DIGEST, "csv")
        assert text.endswith("x\n0.0\n-0.0\n0.0\n-0.0\n-0.0\n")

    def test_nan_and_infinities(self):
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
        column = np.array([NAN, INF, -INF, NAN, -NAN, payload_nan, 1.0, INF])
        assert_same_table(["a", "b"], [column, np.arange(8, dtype=float)])
        text = render_table(["a"], [column[:3]], DIGEST, "json")
        assert text.endswith('"rows": [[NaN], [Infinity], [-Infinity]]}\n')
        assert render_table(["a"], [column[:3]], DIGEST, "csv").endswith("a\nnan\ninf\n-inf\n")

    def test_extreme_magnitudes(self):
        column = np.array([5e-324, 1e308, -1e308, -5e-324, 1.7976931348623157e308, 2.2e-308])
        assert_same_table(["x", "y", "z"], [column, column[::-1].copy(), -column])

    def test_int_columns(self):
        ints = np.array([8, 16, 8, -3, 0, 2**62, -(2**63)], dtype=np.int64)
        assert_same_table(["n", "x"], [ints, np.linspace(0.0, 1.0, 7)])
        assert_same_table(["n", "m"], [ints, ints[::-1].copy()])

    def test_one_column_and_one_row(self):
        assert_same_table(["x"], [np.array([0.25, 0.25, -0.5])])
        assert_same_table(["x", "y", "z"], [np.array([1.0]), np.array([2]), np.array([-0.0])])

    def test_no_rows(self):
        assert_same_table(["x", "y"], [np.array([]), np.array([], dtype=np.int64)])
        assert render_table(["x", "y"], [np.array([]), np.array([])], DIGEST, "csv") == (
            f"# config={DIGEST}\nx,y\n"
        )

    @pytest.mark.parametrize(
        "figure_id,grid",
        [
            ("fig1", {"squeezing": [0.0, 1.0, 0]}),
            ("fig1", {"alpha": [0.4, 0.4, 1], "squeezing": [3.6, 3.6, 1]}),
            ("fig2a", {"transmittance": []}),
            ("fig2a", {"transmittance": [0.8], "squeezing": [3.6, 3.6, 1]}),
            ("fig2b", {"excess_noise": [0.0, 0.05, 0]}),
            ("fig2b", {"transmittance": [1.0, 1.0, 1], "excess_noise": [0.0, 0.0, 1]}),
            ("fig4", {"msg_len": [8, 1200, 0]}),
            ("fig4", {"msg_len": [8, 8, 1]}),
        ],
    )
    def test_count_0_and_1_point_grids(self, figure_id, grid):
        names, columns = figure_columns(figure_id, grid)
        assert len(columns[0]) <= 1
        assert_same_table(names, columns)
