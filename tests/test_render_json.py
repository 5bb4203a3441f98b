"""``cli.render_json`` writes ``json.dumps(payload, sort_keys=True)`` plus a
newline, on the shapes cvue writes and on the scalars JSON spells specially."""

import json

import pytest

from cvue.bounds import FIGURE_IDS, figure_data
from cvue.cli import render_json

NAN, INF = float("nan"), float("inf")


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
        columns, rows = figure_data(figure_id)
        payload = {"config_hash": "0" * 64, "columns": columns, "rows": rows}
        assert_same(payload)
        assert render_json(payload).count("\n") == 1


def test_unserialisable_value_raises_like_json_dumps():
    with pytest.raises(TypeError):
        json.dumps({"a": object()})
    with pytest.raises(TypeError):
        render_json({"a": object()})
    with pytest.raises(TypeError):
        render_json({"rows": [(1, object())]})
