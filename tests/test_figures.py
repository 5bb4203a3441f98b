"""The figure tables: each array evaluation of ``figure_data`` equals the
scalar loop of ``cvue.reference.figure_data_scalar`` bit for bit, rows hold
Python numbers only, and bad grids fail naming their key."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvue.bounds import FIGURE_IDS, ber_analytic, conjugate_coding_bound, figure_data
from cvue.channel import ChannelParams, noisy_ber, noisy_ber_grid
from cvue.reference import figure_data_scalar

NAN = float("nan")


def assert_same_table(figure_id, grid=None):
    columns, rows = figure_data(figure_id, grid)
    want_columns, want_rows = figure_data_scalar(figure_id, grid)
    assert columns == want_columns
    assert rows == want_rows
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in want_rows]
    return rows


class TestMatchesScalarLoops:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_default_grid(self, figure_id):
        assert_same_table(figure_id)

    @pytest.mark.parametrize(
        "grid",
        [
            {"squeezing": (0.0, 12.0, 25)},
            {"alpha": (1e-9, 30.0, 31), "squeezing": (0.0, 12.0, 13)},
            {"alpha": (26.0, 30.0, 9), "squeezing": (0.0, 3.0, 4)},  # past ERFC_ZERO
            {"alpha": (1e-9, 1e-9, 1), "squeezing": (12.0, 12.0, 1)},
            {"alpha": (1.2, 0.02, 7), "squeezing": (5.0, 2.0, 5)},  # descending axes
        ],
    )
    def test_fig1_edges(self, grid):
        assert_same_table("fig1", grid)

    @pytest.mark.parametrize(
        "grid",
        [
            {"squeezing": (0.0, 12.0, 49)},
            {"transmittance": [0.01, 0.5, 1.0], "excess_noise": 0.4},
            {"transmittance": [0.01], "excess_noise": 0.0, "alpha": 1e-9},
            {"transmittance": [1.0, 0.01], "alpha": 30.0, "squeezing": (0.0, 12.0, 13)},
            {"transmittance": [1, 0.8], "excess_noise": 0},  # JSON integers
        ],
    )
    def test_fig2a_edges(self, grid):
        assert_same_table("fig2a", grid)

    @pytest.mark.parametrize(
        "grid",
        [
            {"transmittance": (0.01, 1.0, 12), "excess_noise": (0.0, 0.4, 9)},
            {"squeezing": 0.0},
            {"squeezing": 12.0, "alpha": 1e-9},
            {"squeezing": 0, "alpha": 30.0, "transmittance": (0.01, 1.0, 5)},
            {"transmittance": (1.0, 1.0, 1), "excess_noise": (0.4, 0.4, 1)},
        ],
    )
    def test_fig2b_edges(self, grid):
        assert_same_table("fig2b", grid)

    @pytest.mark.parametrize(
        "grid",
        [
            {"msg_len": (100, 1000, 12)},
            {"alpha": 1e-9},
            {"squeezing": 12.0},
            {"msg_len": (1, 4999, 4999)},  # every message length up to 4999
        ],
    )
    def test_fig4_edges(self, grid):
        assert_same_table("fig4", grid)

    def test_conjugate_coding_array_is_the_scalar_calls(self):
        # fig4 takes its conjugate-coding column from one array call
        msg_lens = np.arange(1, 5000)
        values = conjugate_coding_bound(msg_lens).tolist()
        assert values == [conjugate_coding_bound(int(n)) for n in msg_lens]

    @pytest.mark.parametrize("figure_id", ["fig1", "fig2b"])
    def test_empty_axis(self, figure_id):
        key = "squeezing" if figure_id == "fig1" else "excess_noise"
        assert assert_same_table(figure_id, {key: (0.0, 1.0, 0)}) == []

    def test_np_cosh_would_change_fig2a(self):
        # the reason noisy_ber_grid takes cosh r from math.cosh
        r = np.linspace(2.0, 4.5, 101)
        assert any(math.cosh(v) != c for v, c in zip(r.tolist(), np.cosh(r).tolist()))


ends = st.floats(0.0, 40.0, exclude_min=True)
squeezing_ends = st.floats(0.0, 20.0)
unit_ends = st.floats(0.0, 1.0, exclude_min=True)
noise_ends = st.floats(0.0, 1.0)
counts = st.integers(0, 12)


class TestMatchesScalarLoopsOverRandomGrids:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(ends, ends, counts, squeezing_ends, squeezing_ends, counts)
    def test_fig1(self, a0, a1, na, r0, r1, nr):
        assert_same_table("fig1", {"alpha": (a0, a1, na), "squeezing": (r0, r1, nr)})

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        squeezing_ends, squeezing_ends, counts,
        st.lists(unit_ends, max_size=4), ends, noise_ends,
    )
    def test_fig2a(self, r0, r1, nr, transmittances, alpha, xi):
        assert_same_table(
            "fig2a",
            {"squeezing": (r0, r1, nr), "transmittance": transmittances,
             "alpha": alpha, "excess_noise": xi},
        )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(unit_ends, unit_ends, counts, noise_ends, noise_ends, counts, ends, squeezing_ends)
    def test_fig2b(self, t0, t1, nt, x0, x1, nx, alpha, squeezing):
        assert_same_table(
            "fig2b",
            {"transmittance": (t0, t1, nt), "excess_noise": (x0, x1, nx),
             "alpha": alpha, "squeezing": squeezing},
        )

    # the corners of the strategies above, as plain tests: which examples a
    # derandomized run draws can depend on the tests collected with it

    def test_fig1_corners(self):
        assert_same_table("fig1", {"alpha": (5e-324, 40.0, 3), "squeezing": (0.0, 20.0, 3)})

    def test_fig2a_corners(self):
        assert_same_table(
            "fig2a",
            {"squeezing": (0.0, 20.0, 3), "transmittance": [5e-324, 1.0],
             "alpha": 5e-324, "excess_noise": 1.0},
        )
        assert_same_table("fig2a", {"transmittance": [], "alpha": 40.0, "excess_noise": 0.0})

    def test_fig2b_corners(self):
        assert_same_table(
            "fig2b",
            {"transmittance": (5e-324, 1.0, 3), "excess_noise": (0.0, 1.0, 3),
             "alpha": 40.0, "squeezing": 20.0},
        )
        assert_same_table("fig2b", {"alpha": 5e-324, "squeezing": 0.0})


class TestRows:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_rows_hold_python_numbers(self, figure_id):
        columns, rows = figure_data(figure_id)
        assert rows
        for row in rows:
            assert type(row) is tuple and len(row) == len(columns)
            assert all(type(v) in (int, float) for v in row)


class TestNoisyBerGrid:
    def test_equals_scalar_calls(self):
        r = np.linspace(0.0, 12.0, 25)[:, None]
        t = np.array([0.01, 0.3, 0.8, 1.0])[None, :]
        got = noisy_ber_grid(0.4, r, t, 0.002)
        assert got.shape == (25, 4)
        want = [
            [noisy_ber(0.4, ri, ChannelParams(ti, 0.002)) for ti in t[0].tolist()]
            for ri in r[:, 0].tolist()
        ]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "transmittance,excess_noise",
        [(0.0, 0.0), (1.2, 0.0), (NAN, 0.0), (math.inf, 0.0), (-0.5, 0.0),
         (0.8, -0.1), (0.8, NAN), (0.8, math.inf)],
    )
    def test_channel_values_fail_as_channel_params_does(self, transmittance, excess_noise):
        with pytest.raises(ValueError) as want:
            ChannelParams(transmittance, excess_noise)
        with pytest.raises(ValueError) as got:
            noisy_ber_grid(0.4, 3.6, np.array([0.9, transmittance]), np.array([0.0, excess_noise]))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, NAN])
    def test_alpha_checked(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            noisy_ber_grid(alpha, 3.6, 0.8, 0.001)

    @pytest.mark.parametrize("squeezing", [-0.1, NAN])
    def test_squeezing_checked(self, squeezing):
        with pytest.raises(ValueError, match="squeezing must be nonnegative"):
            noisy_ber_grid(0.4, np.array([3.6, squeezing]), 0.8, 0.001)


class TestClosedFormsRefuseNan:
    @pytest.mark.parametrize(
        "alpha,squeezing,message",
        [(NAN, 3.4, "alpha"), (0.4, NAN, "squeezing"),
         (np.array([0.4, NAN]), 3.4, "alpha"), (0.4, np.array([3.4, NAN]), "squeezing")],
    )
    def test_ber_analytic(self, alpha, squeezing, message):
        with pytest.raises(ValueError, match=message):
            ber_analytic(alpha, squeezing)

    @pytest.mark.parametrize(
        "alpha,squeezing,message",
        [(NAN, 3.4, "alpha"), (0.4, NAN, "squeezing"), (np.array([0.4, NAN]), 3.4, "alpha"),
         (0.4, -1.0, "squeezing")],
    )
    def test_noisy_ber(self, alpha, squeezing, message):
        with pytest.raises(ValueError, match=message):
            noisy_ber(alpha, squeezing, ChannelParams(0.8, 0.001))


class TestGridValidation:
    @pytest.mark.parametrize(
        "figure_id,grid,key",
        [
            ("fig1", {"alpha": [NAN, 1, 3]}, "alpha"),
            ("fig1", {"squeezing": [2.0, math.inf, 3]}, "squeezing"),
            ("fig1", {"alpha": [0.1, 0.5]}, "alpha"),
            ("fig1", {"alpha": [0.1, 0.5, 3.5]}, "alpha"),
            ("fig1", {"alpha": [0.1, 0.5, NAN]}, "alpha"),
            ("fig1", {"squeezing": [2.0, 5.0, -1]}, "squeezing"),
            ("fig1", {"alpha": 0.4}, "alpha"),
            ("fig2a", {"transmittance": 0.5}, "transmittance"),
            ("fig2a", {"transmittance": [0.5, [0.8]]}, "transmittance"),
            ("fig2a", {"excess_noise": NAN}, "excess_noise"),
            ("fig2a", {"alpha": [0.4]}, "alpha"),
            ("fig2b", {"alpha": NAN}, "alpha"),
            ("fig2b", {"squeezing": NAN}, "squeezing"),
            ("fig2b", {"squeezing": -math.inf}, "squeezing"),
            ("fig2b", {"alpha": [0.1, 0.2]}, "alpha"),
            ("fig2b", {"squeezing": "strong"}, "squeezing"),
            ("fig4", {"error_fraction": NAN}, "error_fraction"),
            ("fig4", {"msg_len": [8, 1200, math.inf]}, "msg_len"),
            ("fig4", {"msg_len": "all"}, "msg_len"),
        ],
    )
    def test_bad_grid_names_its_key(self, figure_id, grid, key):
        with pytest.raises(ValueError, match=f"grid {key} must"):
            figure_data(figure_id, grid)

    def test_grid_size_limit(self, monkeypatch):
        monkeypatch.setattr("cvue.bounds.MAX_GRID_POINTS", 12)
        # at the limit the table is built; past it the larger axis is named
        grid = {"alpha": [0.1, 0.5, 3], "squeezing": [2.0, 5.0, 4]}
        assert len(figure_data("fig1", grid)[1]) == 12
        grid["squeezing"] = [2.0, 5.0, 5]
        with pytest.raises(ValueError, match="grid squeezing must keep the grid within 12 points"):
            figure_data("fig1", grid)
        # an empty axis leaves no grid point, but the other axis is still an array
        grid = {"transmittance": [0.5, 1.0, 0], "excess_noise": [0.0, 0.05, 13]}
        with pytest.raises(ValueError, match="grid excess_noise must"):
            figure_data("fig2b", grid)

    @pytest.mark.parametrize(
        "figure_id,grid,message",
        [
            ("fig2a", {"transmittance": [0.5, NAN]}, "transmittance"),
            ("fig2a", {"transmittance": [1.5]}, "transmittance"),
            ("fig2a", {"excess_noise": -0.1}, "excess noise"),
            ("fig2a", {"squeezing": (-1.0, 1.0, 3)}, "squeezing"),
            ("fig2b", {"transmittance": (0.0, 1.0, 3)}, "transmittance"),
            ("fig2b", {"alpha": 0.0}, "alpha"),
        ],
    )
    def test_out_of_range_values_fail(self, figure_id, grid, message):
        with pytest.raises(ValueError, match=message):
            figure_data(figure_id, grid)
        with pytest.raises(ValueError, match=message):
            figure_data_scalar(figure_id, grid)
