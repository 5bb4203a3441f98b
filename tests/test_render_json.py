"""``cli.render_json`` writes ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline, byte for byte, on any JSON value with str keys."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvue.bounds import FIGURE_IDS, figure_data
from cvue.cli import render_json

NAN, INF = float("nan"), float("inf")


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def assert_same(value):
    assert render_json(value) == dumps(value)


special_floats = st.sampled_from(
    [NAN, INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
)
special_chars = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀 a:,[]{}%')
strings = st.text() | st.text(special_chars)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.floats(),
    special_floats,
    strings,
)


def containers(children):
    rows = st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(children, min_size=width, max_size=width).map(tuple))
    )
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(strings, children),
        rows,
        rows.map(list),
    )


json_values = st.recursive(scalars, containers, max_leaves=40)


class TestMatchesJsonDumps:
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(json_values)
    def test_any_value(self, value):
        assert_same(value)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.dictionaries(strings, st.lists(st.tuples(scalars, scalars, scalars))))
    def test_table_shaped(self, payload):
        assert_same(payload)

    # the corners of the strategies above, as plain tests: which examples a
    # derandomized run draws can depend on the tests collected with it

    def test_special_scalars(self):
        values = [NAN, INF, -INF, 0.0, -0.0, 5e-324, 1e308, 10**100, -(10**100),
                  True, False, None, "é\"\\\n\x00\x1f😀", ""]
        assert_same(values)
        assert_same({"rows": [(v,) for v in values]})
        for value in values:
            assert_same(value)

    def test_empty_containers(self):
        for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}], [[[]]]):
            assert_same(value)

    def test_empty_rows(self):
        assert_same({"columns": ["a", "b"], "config_hash": "x", "rows": []})

    def test_rows_of_width_zero(self):
        assert_same({"rows": [(), ()]})
        assert_same({"rows": [[], [], []]})

    def test_column_of_signed_zeros(self):
        text = render_json({"rows": [(0.0, 1), (-0.0, 2), (0.0, 3)]})
        assert text == dumps({"rows": [(0.0, 1), (-0.0, 2), (0.0, 3)]})
        assert "-0.0" in text

    def test_ragged_rows(self):
        assert_same({"rows": [(1, 2), (3,), ()]})

    def test_row_holding_a_list(self):
        assert_same({"rows": [(1, [2, 3]), (4, [5, 6])]})
        assert_same({"rows": [(1, {"a": [2]}), (4, {})]})

    def test_list_mixing_scalars_and_containers(self):
        assert_same([1, [2, (3, "x")], {"b": 2, "a": [None]}, "y"])

    def test_dict_holding_a_list_of_dicts(self):
        assert_same({"z": 0, "a": [{"y": 1, "x": [2.5, -0.0]}, {"k": {"j": NAN}}]})

    def test_percent_and_brackets_in_strings(self):
        assert_same({"%s": ["%s", "%d %%"], "rows": [("%s", "],\n["), ("%", "%%")]})

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figure_tables(self, figure_id):
        columns, rows = figure_data(figure_id)
        assert_same({"config_hash": "0" * 64, "columns": columns, "rows": rows})


@pytest.mark.parametrize(
    "payload", [{1: 2}, {"a": {None: 1}}, {"rows": [{2.5: "x"}]}, {(1, 2): 0}, {True: 1}]
)
def test_non_str_key_raises(payload):
    # json.dumps would write the key as a quoted string; cvue never writes one
    with pytest.raises(TypeError):
        render_json(payload)


def test_unserialisable_value_raises_like_json_dumps():
    with pytest.raises(TypeError):
        json.dumps({"a": object()})
    with pytest.raises(TypeError):
        render_json({"a": object()})
    with pytest.raises(TypeError):
        render_json({"rows": [(1, object())]})
