import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvue
from cvue.adversary import STRATEGY_IDS, check_against_bound, make_strategy, run_cloning_game
from cvue.cli import COMMANDS, main, render
from cvue.config import FORMATS, RunConfig, config_hash, load_config
from cvue.bounds import (
    FIGURE_IDS, chernoff_failure, eps_df, exact_failure, figure_data, security_report,
)
from cvue.ebprep import game_equivalence_test
from cvue.reference import load_key


SHIPPED_DIR = Path(cvue.__file__).resolve().parents[2] / "configs"

BASE = {
    "protocol": {
        "msg_len": 16,
        "num_modes": 32,
        "max_errors": 2,
        "alpha": 0.4,
        "squeezing": 3.4,
    },
    "seed": 11,
    "trials": 500,
    "format": "csv",
}


@pytest.fixture
def config_file(tmp_path):
    def write(**updates):
        raw = json.loads(json.dumps(BASE))
        for key, value in updates.items():
            if key == "protocol" and isinstance(value, dict):
                raw["protocol"].update(value)
            else:
                raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    return write


def run(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestKeygen:
    def test_round_trip_is_bit_exact(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "key.json"
        code, _, _ = run(["keygen", config_file(), "--out", str(out_path)], capsys)
        assert code == 0
        key, params = load_key(out_path)
        assert params["num_modes"] == 32
        assert int(key.directions.sum()) == 16
        payload = json.loads(out_path.read_text())
        assert payload["k"] == [float(v) for v in key.offsets]
        assert np.all(np.abs(key.offsets) < 0.4 * math.tanh(3.4))

    def test_same_seed_same_file(self, config_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["keygen", config_file(), "--out", str(a)], capsys)
        run(["keygen", config_file(), "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_key(self, config_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["keygen", config_file(), "--out", str(a)], capsys)
        run(["keygen", config_file(), "--seed", "999", "--out", str(b)], capsys)
        assert a.read_bytes() != b.read_bytes()

    def test_large_instance_label_survives_json(self, config_file, tmp_path, capsys):
        # the balanced-string label at N=1000 is a ~300-digit integer
        path = config_file(
            protocol={"msg_len": 892, "num_modes": 1000, "max_errors": 35}
        )
        out_path = tmp_path / "key.json"
        code, _, _ = run(["keygen", path, "--out", str(out_path)], capsys)
        assert code == 0
        key, _ = load_key(out_path)
        assert key.label.bit_length() > 900
        from cvue.protocol import balanced_string_rank

        assert balanced_string_rank(key.directions) == key.label

    def test_load_key_rejects_tampered_label(self, config_file, tmp_path, capsys):
        # the key's label is derived from its directions, so only a file can
        # carry a wrong one, and reading it back refuses it
        out_path = tmp_path / "key.json"
        run(["keygen", config_file(), "--out", str(out_path)], capsys)
        payload = json.loads(out_path.read_text())
        assert load_key(out_path)[0].label == payload["label"]
        payload["label"] += 1
        out_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="label"):
            load_key(out_path)


class TestRoundtrip:
    def test_report_fields(self, config_file, capsys):
        code, out, _ = run(["roundtrip", config_file(), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 500
        assert 0 <= payload["failure_rate"] <= 1
        assert np.isclose(payload["beta_analytic"], 0.014233207919441758)
        assert payload["failure_exact"] == exact_failure(32, 2, payload["beta_analytic"])
        assert "config_hash" in payload

    def test_zero_trials_emits_analytics_only(self, config_file, capsys):
        code, out, _ = run(
            ["roundtrip", config_file(), "--trials", "0", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert "failure_rate" not in payload
        assert "eps_df" in payload

    def test_channel_adds_noisy_beta(self, config_file, capsys):
        path = config_file(channel={"transmittance": 0.8, "excess_noise": 0.001})
        code, out, _ = run(["roundtrip", path, "--format", "json", "--trials", "200"], capsys)
        payload = json.loads(out)
        assert 0 < payload["beta_noisy"] < 0.5
        assert payload["noisy_variance"] > 0
        # the exact tail is taken at the flip probability the trials use
        assert payload["failure_exact"] == exact_failure(32, 2, payload["beta_noisy"])

    @pytest.mark.parametrize("transmittance", [0.8, 0.99])
    def test_channel_failure_bounds_taken_at_noisy_beta(self, transmittance, config_file, capsys):
        path = config_file(
            protocol={"msg_len": 892, "num_modes": 1000, "max_errors": 35},
            channel={"transmittance": transmittance, "excess_noise": 0.001},
        )
        code, out, _ = run(["roundtrip", path, "--format", "json", "--trials", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        beta = payload["beta_noisy"]
        assert payload["eps_df"] == chernoff_failure(1000, 35, beta)
        assert payload["failure_exact"] <= payload["eps_df"]
        # the noiseless Chernoff figure, 6.9e-6, bounds a run that was not made
        assert payload["eps_df"] > eps_df(1000, 35, 0.4, 3.4)

    def test_csv_has_hash_comment_and_header(self, config_file, capsys):
        code, out, _ = run(["roundtrip", config_file()], capsys)
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config=")
        assert "failure_rate" in lines[1]
        assert len(lines) == 3


class TestBounds:
    def test_report_default(self, config_file, capsys):
        code, out, _ = run(["bounds", config_file(), "--format", "json"], capsys)
        payload = json.loads(out)
        assert {"beta", "eps_df", "failure_exact", "tau", "win_bound"} <= set(payload)

    def test_figure_csv_matches_library(self, config_file, capsys):
        path = config_file(figure="fig2a", grid={"squeezing": [3.5, 3.5, 1], "transmittance": [0.8]})
        code, out, _ = run(["bounds", path], capsys)
        lines = out.strip().split("\n")
        assert lines[1] == "squeezing,transmittance,beta_noisy"
        columns, rows = figure_data("fig2a", {"squeezing": [3.5, 3.5, 1], "transmittance": [0.8]})
        assert lines[2] == ",".join([repr(3.5), repr(0.8), repr(rows[0][2])])

    def test_all_figures_render(self, config_file, capsys):
        for fig in ("fig1", "fig2a", "fig2b", "fig4"):
            code, out, _ = run(["bounds", config_file(figure=fig)], capsys)
            assert code == 0
            assert out.startswith("# config=")

    @pytest.mark.parametrize("fig", FIGURE_IDS)
    def test_json_rows_are_the_library_rows(self, fig, config_file, capsys):
        code, out, _ = run(["bounds", config_file(figure=fig), "--format", "json"], capsys)
        assert code == 0
        _, rows = figure_data(fig)
        assert json.loads(out)["rows"] == [list(row) for row in rows]

    def test_unknown_figure_fails_cleanly(self, config_file, capsys):
        code, _, err = run(["bounds", config_file(figure="fig9")], capsys)
        assert code == 2
        assert "figure" in err


class TestAttack:
    def test_outcome_and_bound_check(self, config_file, capsys):
        path = config_file(strategy="forward_to_bob", trials=200)
        code, out, _ = run(["attack", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"]["trials"] == 200
        assert payload["bound_check"]["holds"] in (True, False)

    def test_bad_strategy_rejected(self, config_file, capsys):
        code, _, err = run(["attack", config_file(strategy="teleport")], capsys)
        assert code == 2
        assert "strategy" in err


class TestEbcheck:
    def test_report_structure(self, config_file, capsys):
        path = config_file(trials=30, rejection_samples=200)
        code, out, _ = run(["ebcheck", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalence"]["trials"] == 30
        ratio = payload["rejection_oracle"]["acceptance_ratio"]
        expected = payload["rejection_oracle"]["expected_ratio"]
        assert abs(ratio - expected) < 0.2
        assert payload["rejection_oracle"]["conditional_cov_error"] < 1e-10

    def test_mode_total_past_int64_refused(self, config_file, capsys):
        # 2**58 trials of 32 modes is 2**63 flip draws, past numpy's C long;
        # refused before any flip arm is drawn
        code, out, err = run(["ebcheck", config_file(trials=2**58)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: trials * num_modes must be below 2**63\n"


class TestValidation:
    def test_odd_num_modes(self, config_file, capsys):
        code, _, err = run(["bounds", config_file(protocol={"num_modes": 31})], capsys)
        assert code == 2
        assert "even" in err

    def test_nonpositive_alpha(self, config_file, capsys):
        code, _, err = run(["bounds", config_file(protocol={"alpha": -1.0})], capsys)
        assert code == 2
        assert "alpha" in err

    def test_bad_transmittance(self, config_file, capsys):
        path = config_file(channel={"transmittance": 1.5})
        code, _, err = run(["roundtrip", path], capsys)
        assert code == 2
        assert "transmittance" in err

    def test_missing_protocol_keys(self, config_file, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"protocol": {"msg_len": 8}, "seed": 1}))
        code, _, err = run(["bounds", str(path)], capsys)
        assert code == 2
        assert "missing keys" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(["bounds", str(path)], capsys)
        assert code == 2
        assert "JSON" in err

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        raw = dict(BASE, out="résultat.json")
        path.write_bytes(json.dumps(raw, ensure_ascii=False).encode("latin-1"))
        code, out, err = run(["bounds", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {path} is not UTF-8: ")

    def test_utf8_bom_refused(self, tmp_path, capsys):
        # JSON text carries no byte order mark (RFC 8259 section 8.1)
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(BASE).encode())
        code, out, err = run(["bounds", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {path} is not valid JSON: Unexpected UTF-8 BOM")

    def test_missing_file(self, capsys):
        code, out, err = run(["bounds", "/nonexistent/config.json"], capsys)
        assert (code, out) == (2, "")
        assert "'/nonexistent/config.json'" in err

    def test_directory_names_its_path(self, tmp_path, capsys):
        # the directory opens; the read fails with an error that names no file
        code, out, err = run(["bounds", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_config_past_one_read_chunk(self, tmp_path):
        grid = {"transmittance": [1.0 - i / 7919 for i in range(4000)]}
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        raw = json.loads((SHIPPED_DIR / "fig2a.json").read_text()) | {"grid": grid}
        compact.write_text(json.dumps(raw, separators=(",", ":")))
        indented.write_text(json.dumps(raw, indent=2))
        assert len(json.dumps(grid["transmittance"], separators=(",", ":"))) > 1 << 16
        configs = [load_config(str(compact)), load_config(str(indented))]
        assert configs[0] == configs[1]
        assert configs[0].grid == grid
        assert config_hash(configs[0]) == config_hash(configs[1])

    @pytest.mark.parametrize("num_modes", [10**400, 2**63], ids=["10**400", "2**63"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_num_modes_past_int64_refused(self, command, num_modes, config_file, capsys):
        # 10**400 overflowed a float in the max_errors check and exited 1
        code, out, err = run([command, config_file(protocol={"num_modes": num_modes})], capsys)
        assert (code, out) == (2, "")
        assert err == "error: num_modes must be below 2**63\n"

    def test_grid_must_be_object(self, config_file, capsys):
        code, _, err = run(["bounds", config_file(grid=[1, 2, 3])], capsys)
        assert code == 2
        assert "grid" in err

    def test_malformed_grid_triple(self, config_file, capsys):
        path = config_file(figure="fig1", grid={"alpha": [0.1, 0.5]})
        code, _, err = run(["bounds", path], capsys)
        assert code == 2
        assert "triple" in err

    @pytest.mark.parametrize(
        "figure,grid,key",
        [
            ("fig1", {"alpha": [math.nan, 1, 3]}, "alpha"),
            ("fig2b", {"alpha": math.nan}, "alpha"),
            ("fig2b", {"squeezing": math.nan}, "squeezing"),
            ("fig2b", {"alpha": [0.1, 0.2]}, "alpha"),
            ("fig2a", {"transmittance": 0.5}, "transmittance"),
            ("fig4", {"error_fraction": math.nan}, "error_fraction"),
            ("fig4", {"msg_len": [8, 1200, math.inf]}, "msg_len"),
            ("fig4", {"error_fraction": -0.2}, "error_fraction"),
            ("fig4", {"error_fraction": 0.6}, "error_fraction"),
            ("fig4", {"msg_len": [-8, 40, 3]}, "msg_len"),
            ("fig4", {"msg_len": [0.2, 40, 3]}, "msg_len"),
            # above the grid limit, patched to 10000 points (each default grid is below it)
            ("fig1", {"alpha": [0.1, 0.5, 200]}, "alpha"),
            ("fig2a", {"squeezing": [2.0, 4.5, 3000]}, "squeezing"),
            ("fig2b", {"excess_noise": [0.0, 0.05, 10001]}, "excess_noise"),
            ("fig4", {"msg_len": [8, 1200, 10001]}, "msg_len"),
            # a misspelt key was ignored: 122 rows on the default squeezing axis
            ("fig1", {"squeezng": [2, 3, 5], "alpha": [0.1, 0.2, 2]}, "squeezng"),
            # strings and booleans were read as numbers
            ("fig1", {"alpha": "123"}, "alpha"),
            ("fig2a", {"transmittance": "1"}, "transmittance"),
            ("fig2b", {"alpha": True}, "alpha"),
            # a code rate of 0 was a ZeroDivisionError traceback with exit 1
            ("fig4", {"alpha": 1e-12}, "alpha"),
        ],
    )
    def test_bad_figure_grid_names_its_key(
        self, figure, grid, key, config_file, capsys, monkeypatch
    ):
        monkeypatch.setattr("cvue.bounds.MAX_GRID_POINTS", 10_000)
        code, out, err = run(["bounds", config_file(figure=figure, grid=grid)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: grid {key} must")

    def test_report_reads_no_grid(self, config_file, capsys):
        grid = {"squeezng": [2, 3, 5], "alpha": "123"}
        code, out, _ = run(["bounds", config_file(figure="report", grid=grid)], capsys)
        assert code == 0
        assert out.startswith("# config=")

    @pytest.mark.parametrize(
        "figure,grid",
        [("fig1", {"squeezing": [0, 800, 3]}), ("fig2a", {"squeezing": [0, 800, 3]}),
         ("fig2b", {"squeezing": 800})],
    )
    def test_figure_squeezing_past_cosh_overflow(self, figure, grid, config_file, capsys):
        # cosh(800) overflows a float: refused like ProtocolParams refuses it
        code, out, err = run(["bounds", config_file(figure=figure, grid=grid)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: squeezing must be nonnegative and at most 710.4")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("protocol", "msg_len", "16"),
            ("protocol", "num_modes", "32"),
            ("protocol", "max_errors", "2"),
            ("protocol", "alpha", "0.4"),
            ("protocol", "squeezing", "3.4"),
            ("channel", "transmittance", "0.9"),
            ("channel", "excess_noise", "0.001"),
            ("top", "seed", "11"),
            ("top", "trials", "10"),
            ("top", "rejection_samples", "200"),
        ],
    )
    def test_quoted_number_names_its_key(self, section, key, value, config_file, capsys):
        # a number in quotes was read as the number: "trials": "10" ran 10 trials
        if section == "protocol":
            path = config_file(protocol={key: value})
        elif section == "channel":
            path = config_file(channel={"transmittance": 0.9, key: value})
        else:
            path = config_file(**{key: value})
        kind = "a number" if key in ("alpha", "squeezing", "transmittance", "excess_noise") else "an integer"
        for command in COMMANDS:
            code, out, err = run([command, path], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {key} must be {kind}, got {value!r}\n"

    def test_bad_format_flag_rejected_by_argparse(self, config_file, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", config_file(), "--format", "xml"])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_format_in_config_rejected(self, command, config_file, capsys):
        # refused at load, also for the commands that always write JSON
        code, out, err = run([command, config_file(format="xml")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: format must be one of")

    @pytest.mark.parametrize(
        "section,field,value,command",
        [
            pytest.param(section, field, value, "roundtrip", id=f"{section}-{field}-{value}")
            for section, field, value in [
                *(
                    (section, field, value)
                    for section, field in [
                        ("protocol", "alpha"),
                        ("protocol", "squeezing"),
                        ("channel", "excess_noise"),
                        ("protocol", "msg_len"),
                        ("protocol", "num_modes"),
                        ("protocol", "max_errors"),
                        ("top", "seed"),
                        ("top", "trials"),
                        ("top", "rejection_samples"),
                    ]
                    for value in (math.nan, math.inf)
                ),
                ("protocol", "num_modes", 64.5),
                ("top", "trials", 10.5),
                # cosh(r) overflows a float past r ~ 710.48
                ("protocol", "squeezing", 800.0),
                # values of the wrong JSON type
                ("protocol", "alpha", None),
                ("protocol", "alpha", [1]),
                ("protocol", "squeezing", None),
                ("channel", "transmittance", None),
                ("channel", "excess_noise", None),
                ("top", "protocol", 5),
                ("top", "channel", 5),
                ("top", "out", 5),
                ("top", "seed", True),
            ]
        ]
        + [
            # valid configs that only ebcheck refuses: it needs tanh r > 0, and
            # a rejection window it can fill (mass 1.3e-9 at r = 40, 0 in floats
            # at r = 710.47)
            pytest.param("protocol", "squeezing", value, "ebcheck", id=f"ebcheck-squeezing-{value}")
            for value in (0.0, 40.0, 710.47)
        ]
        + [
            # an integer past the float range, which json.dumps writes as digits
            pytest.param(section, field, 10**400, "roundtrip", id=f"{section}-{field}-10**400")
            for section, field in [
                ("protocol", "alpha"),
                ("protocol", "squeezing"),
                ("channel", "transmittance"),
                ("channel", "excess_noise"),
            ]
        ]
        + [
            # a misspelt top-level key was ignored ("trails" ran the default
            # 10000 trials), and only bounds read the figure
            pytest.param("top", field, value, command, id=f"{command}-{field}-{value}")
            for field, value in [("trails", 7), ("figure", "fig9"), ("figure", ["x"])]
            for command in COMMANDS
        ],
    )
    def test_nan_and_inf_rejected(self, section, field, value, command, config_file, capsys):
        # json.dumps writes NaN / Infinity, which json.loads parses back to floats
        channel = {"transmittance": 0.8, "excess_noise": 0.001}
        if section == "protocol":
            path = config_file(protocol={field: value})
        elif section == "channel":
            path = config_file(channel={**channel, field: value})
        else:
            path = config_file(**{field: value})
        code, _, err = run([command, path], capsys)
        assert code == 2
        assert field in err or field.replace("_", " ") in err


def test_dropped_protocol_keys_are_ignored(config_file, tmp_path, capsys):
    # pad_len and security_param are no longer settable; older configs and
    # key files that carry them load as before and hash the same
    plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
    assert main(["keygen", config_file(), "--out", str(plain)]) == 0
    path = config_file(protocol={"pad_len": 16, "security_param": 3})
    assert main(["keygen", path, "--out", str(legacy)]) == 0
    assert plain.read_bytes() == legacy.read_bytes()
    payload = json.loads(legacy.read_text())
    payload["params"].update(pad_len=16, security_param=3)
    legacy.write_text(json.dumps(payload))
    key, params = load_key(legacy)
    assert key.pad.size == params["msg_len"] == 16


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports cvue from this checkout."""
    src = str(Path(cvue.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "cvue.reference", "argparse"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # scipy takes most of a process's start-up and the runtime needs none of
    # it; cvue.reference holds test oracles that no subcommand may use; the
    # command line is read without argparse
    done = run_python(f"import cvue.cli, sys; assert {module!r} not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_no_subcommand_loads_scipy(tmp_path):
    configs = Path(cvue.__file__).resolve().parents[2] / "configs"

    def derived(base, **updates):
        raw = json.loads((configs / base).read_text())
        raw.update(updates)
        path = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    paper, noisy = str(configs / "paper_point.json"), str(configs / "noisy_link.json")
    runs = [
        ["keygen", paper],
        ["roundtrip", paper, "--trials", "1000"],
        ["roundtrip", noisy, "--trials", "1000"],
        ["bounds", paper],
        *(["bounds", derived("fig2a.json", figure=f, grid={})] for f in FIGURE_IDS),
        *(["attack", derived("attack_heterodyne.json", strategy=s), "--trials", "100"]
          for s in STRATEGY_IDS),
        ["ebcheck", str(configs / "ebcheck.json"), "--trials", "5"],
    ]
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from cvue.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {out!r}]) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    done = run_python(code)
    assert done.returncode == 0, done.stderr


# one small config per command: command -> config updates
COMMAND_CASES = {
    "keygen": {},
    "roundtrip": {"trials": 300},
    "bounds": {"figure": "fig2b", "grid": {"transmittance": [0.6, 1.0, 4],
                                           "excess_noise": [0.0, 0.01, 3]}},
    "attack": {"strategy": "heterodyne_split", "trials": 100},
    "ebcheck": {"trials": 20, "rejection_samples": 100},
}


class TestRunPath:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", list(COMMAND_CASES))
    def test_command_returns_what_main_writes(self, command, fmt, config_file, capsys):
        path = config_file(**COMMAND_CASES[command], format=fmt)
        config = load_config(path)
        result = COMMANDS[command](config)
        assert capsys.readouterr() == ("", "")
        code, out, _ = run([command, path], capsys)
        assert code == 0
        written = fmt if command in ("roundtrip", "bounds") else "json"
        assert out == render(result, dataclasses.replace(config, fmt=written))

    @pytest.mark.parametrize("command", ["keygen", "attack", "ebcheck"])
    def test_format_flag_leaves_json_commands_alone(self, command, config_file, capsys):
        # the config hash covers the format the bytes are written in, JSON here
        path = config_file(**COMMAND_CASES[command])
        outs = {}
        for fmt in FORMATS:
            code, outs[fmt], _ = run([command, path, "--format", fmt], capsys)
            assert code == 0
        assert outs["csv"] == outs["json"]
        digest = config_hash(load_config(path, {"format": "json"}))
        assert json.loads(outs["json"])["config_hash"] == digest
        assert outs["json"] == json.dumps(json.loads(outs["json"]), sort_keys=True) + "\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", list(COMMAND_CASES))
    def test_out_file_is_the_stdout_bytes(self, command, fmt, config_file, tmp_path, capsys):
        path = config_file(**COMMAND_CASES[command], format=fmt)
        code, out, _ = run([command, path], capsys)
        assert code == 0
        target = tmp_path / "run.out"
        code, quiet, _ = run([command, path, "--out", str(target)], capsys)
        assert (code, quiet) == (0, "")
        assert target.read_bytes() == out.encode()


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("keygen", {}),
            ("roundtrip", {"trials": 300}),
            ("bounds", {"figure": "fig2b", "grid": {"transmittance": [0.6, 1.0, 4],
                                                    "excess_noise": [0.0, 0.01, 3]}}),
            ("attack", {"strategy": "heterodyne_split", "trials": 100}),
            ("ebcheck", {"trials": 20, "rejection_samples": 100}),
        ],
    )
    def test_byte_identical_reruns(self, command, extra, config_file, tmp_path, capsys):
        path = config_file(**extra)
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main([command, path, "--out", str(a)]) == 0
        assert main([command, path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


SHIPPED_CONFIGS = sorted(SHIPPED_DIR.glob("*.json"))

# sha256 of `bounds` stdout on configs/fig2a.json with `figure` set
# (x86-64 Linux, CPython 3.11, numpy 2.4); a JSON pin is taken over the
# indent-2 form, see assert_json_pin
BOUNDS_SHA256 = {
    ("report", "json"): "29acb0c271bf6ad2f7029f75d8d7ce897bc74997af0d88901234c3b51a3a335c",
    ("fig1", "json"): "084ba3fbf2c89645868866a640566f97b160b1690670171cbb28ca44450b23d8",
    ("fig2a", "json"): "547bad5370f5b7ae8ec14bd80f46175ab1c892abd3b5dcfee7e841e87ed84bca",
    ("fig2b", "json"): "bd6522c307528a40a008f5f93f2ec02e5313cb59d078484fc5b5a8c710fd4192",
    ("fig4", "json"): "fb8c249a0b1a515e8cc38ee377a1641a782874ad0ce30680bd9773109e8a9eb7",
    ("report", "csv"): "772658bd2955c64fa434c2acdfbd6454777c1028f9aa95125d49c5bba79a8552",
    ("fig1", "csv"): "ca19e365f92d49c88d882961b1e453877934babce9aa7fd414e9260492e4e21a",
    ("fig2a", "csv"): "49674e51f7d7bfffffa54658487b60a3da788cbb75b5e4bd1011e1f1de8b74a9",
    ("fig2b", "csv"): "a66f432c687a948843ee729355a48b29ec572ed48487a8b4ff4b3b24f74ea2df",
    ("fig4", "csv"): "f5f287cfa132d3c2c59f034f8906c7f4fa22f48fd75525f5f30c800bd6c8f66b",
}

# `keygen` stdout of every shipped config: the key offsets pin the bits of
# stats.truncated_normal's rejection draws
KEYGEN_SHA256 = {
    "attack_heterodyne": "8987f67af6b73a860d1f27ae4b210d0caf60da1bae10dc6b77de838f0e5db0b9",
    "ebcheck": "8b9efb12162251df370624b3889470a997cf91fe4d334db8991418fff75a653c",
    "fig2a": "838f562c049d4011c1e7cf7b6605ce2df8c4c4fd3fbf557c47f39315a2867a8f",
    "noisy_link": "760ed4e945a96505cdbf48f8899869b4f6845920a34db108f3e2db676200ee2f",
    "paper_point": "544f487becddc03ab6697147e420f77cfa292cc317c1bde9d7835e3ec633740c",
}

# `ebcheck configs/ebcheck.json --trials 20 --format json`: a change to the
# order or the laws of its draws shows here
EBCHECK_SHA256 = "54ceb95ebd3e3e50a11255fb69493c63577b4e5645d40e2e742551c6935b787a"

# roundtrip CSV records of two shipped configs: config -> (sha256, extra flags)
ROUNDTRIP_CSV_SHA256 = {
    "paper_point": (
        "28eef812269804c36fba2492249dee32ad3317a55773040261c9bc73bc37599f", ["--trials", "1000"]
    ),
    "noisy_link": ("33cd41dd915b6aef3c87cbcd94b4acecc788e3a52d644665cc791a865bc87134", []),
}

# `attack` stdout for each strategy: config -> (extra flags, {strategy: sha256});
# the game's block loop and every strategy's draws show here
ATTACK_SHA256 = {
    "attack_heterodyne": ([], {
        "heterodyne_split": "1e18c0790262aaa2d6cae79e6474b61b6da3c26b9cc35ba173372534e378aaaa",
        "forward_to_bob": "5924143f568fd7220755e91f2309a24404abd56e670d0588043cffc2d3d40a5b",
        "measure_guess_basis": "03447077dd5e7a56df40dab336da399568d3b33bf63e6ecb193d3171a2fff63b",
    }),
    "paper_point": (["--trials", "45"], {
        "heterodyne_split": "db7625a556b9e4e27d76c2da32ee2e110d1bb77b03c80f8dcb08c7334ef78c66",
        "forward_to_bob": "c8e32cfac986dff1100cd68eeac7a800c10750575440e9a7889955365b3c635c",
        "measure_guess_basis": "988d8748d21beb9db301530c13b59aba8b1c73257fb49242e0125d42fc53fe64",
    }),
}


def assert_json_pin(out: str, pin: str):
    """``out`` is one-line sorted JSON, and ``pin`` the sha256 of its indent-2
    form, as JSON output was written when the pins were recorded. Together the
    two checks fix ``out`` byte for byte."""
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    indented = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == pin


class TestJsonOutputBytes:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_stdout_is_indented_json_dumps(self, command, config, capsys):
        # the one-line json.dumps layout (the name is older than the layout);
        # --trials keeps ebcheck on the N=1000 configs short
        code, out, _ = run([command, str(config), "--format", "json", "--trials", "20"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    @pytest.mark.parametrize("figure,fmt", sorted(BOUNDS_SHA256))
    def test_bounds_bytes_unchanged(self, figure, fmt, tmp_path, capsys):
        raw = json.loads((SHIPPED_CONFIGS[0].parent / "fig2a.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "figure": figure}))
        code, out, _ = run(["bounds", str(path), "--format", fmt], capsys)
        assert code == 0
        if fmt == "json":
            assert_json_pin(out, BOUNDS_SHA256[figure, fmt])
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_SHA256[figure, fmt]

    def test_keygen_pins_cover_every_shipped_config(self):
        assert sorted(KEYGEN_SHA256) == [p.stem for p in SHIPPED_CONFIGS]

    @pytest.mark.parametrize("config", sorted(KEYGEN_SHA256))
    def test_keygen_bytes_unchanged(self, config, capsys):
        path = SHIPPED_CONFIGS[0].parent / f"{config}.json"
        code, out, _ = run(["keygen", str(path)], capsys)
        assert code == 0
        assert_json_pin(out, KEYGEN_SHA256[config])

    def test_ebcheck_bytes_pinned(self, capsys):
        path = SHIPPED_CONFIGS[0].parent / "ebcheck.json"
        code, out, _ = run(["ebcheck", str(path), "--trials", "20", "--format", "json"], capsys)
        assert code == 0
        assert_json_pin(out, EBCHECK_SHA256)

    @pytest.mark.parametrize("config", sorted(ROUNDTRIP_CSV_SHA256))
    def test_roundtrip_csv_bytes_unchanged(self, config, capsys):
        digest, flags = ROUNDTRIP_CSV_SHA256[config]
        path = SHIPPED_CONFIGS[0].parent / f"{config}.json"
        code, out, _ = run(["roundtrip", str(path), "--format", "csv", *flags], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    @pytest.mark.parametrize("config", sorted(ATTACK_SHA256))
    def test_attack_bytes_unchanged(self, config, strategy, tmp_path, capsys):
        flags, digests = ATTACK_SHA256[config]
        raw = json.loads((SHIPPED_CONFIGS[0].parent / f"{config}.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "strategy": strategy}))
        code, out, _ = run(["attack", str(path), *flags], capsys)
        assert code == 0
        assert_json_pin(out, digests[strategy])


class TestParser:
    def test_no_state_carries_between_calls(self, config_file, tmp_path, capsys):
        path = config_file()
        _, fresh, _ = run(["roundtrip", path], capsys)
        first = tmp_path / "first.json"
        argv = ["roundtrip", path, "--seed", "5", "--format", "json", "--out", str(first)]
        assert main(argv) == 0
        assert first.exists()
        code, again, _ = run(["roundtrip", path], capsys)
        assert code == 0
        assert again == fresh

    def test_options_may_precede_the_command(self, config_file, capsys):
        path = config_file()
        _, after, _ = run(["roundtrip", path, "--format", "json", "--seed", "3"], capsys)
        _, before, _ = run(["--format", "json", "--seed", "3", "roundtrip", path], capsys)
        assert before == after

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_lists_commands_and_figures(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in [*COMMANDS, "report", *FIGURE_IDS]:
            assert re.search(rf"^  {name} +- ", out, re.MULTILINE), name

    def test_unknown_command(self, config_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["encrypt", config_file()])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_equals_form_and_last_occurrence(self, config_file, capsys):
        path = config_file(format="json")
        _, spaced, _ = run(["roundtrip", path, "--trials", "7", "--seed", "5"], capsys)
        _, joined, _ = run(["roundtrip", path, "--trials=7", "--seed", "1", "--seed=5"], capsys)
        assert joined == spaced
        assert json.loads(spaced)["trials"] == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["roundtrip", "CONFIG", "--seed"],
            ["roundtrip", "CONFIG", "--bogus", "1"],
            # option names are spelled in full: no prefix abbreviations
            ["roundtrip", "CONFIG", "--tri", "7"],
            ["roundtrip", "CONFIG", "--seed", "x"],
            ["roundtrip", "CONFIG", "extra"],
            ["roundtrip"],
        ],
        ids=["missing-value", "unknown-option", "abbreviation", "non-integer", "third-positional",
             "missing-config"],
    )
    def test_usage_errors_exit_2(self, argv, config_file, capsys):
        path = config_file()
        with pytest.raises(SystemExit) as exc:
            main([path if arg == "CONFIG" else arg for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cvue ")
        assert "\ncvue: error: " in err

    def test_help_after_other_arguments(self, config_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roundtrip", config_file(), "--seed", "3", "-h"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: cvue ") and "  roundtrip - " in out
        assert err == ""

    def test_python_m_reads_sys_argv(self, capsys):
        # the one run through argv=None: the module entry point parses sys.argv
        root = Path(cvue.__file__).resolve().parents[2]
        argv = ["roundtrip", str(root / "configs" / "paper_point.json"), "--trials", "100",
                "--format", "json"]
        src = str(root / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "cvue", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run(argv, capsys)[1]


def test_config_hash_ignores_out_path(tmp_path):
    raw = json.loads(json.dumps(BASE))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    a = load_config(path, {"out": "/tmp/x"})
    b = load_config(path, {"out": "/tmp/y"})
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize(
    "channel", [None, {"transmittance": 0.8, "excess_noise": 0.001, "convention": "symplectic"}]
)
def test_to_dict_is_the_asdict_form(channel, config_file):
    # the config hash is taken over this dict, so it must not drift
    config = load_config(config_file(channel=channel))
    expected = {
        "protocol": dataclasses.asdict(config.protocol),
        "channel": None if channel is None else dataclasses.asdict(config.channel),
        "seed": config.seed,
        "trials": config.trials,
        "format": config.fmt,
        "figure": config.figure,
        "strategy": config.strategy,
        "grid": config.grid,
        "rejection_samples": config.rejection_samples,
    }
    assert config.to_dict() == expected
    assert json.dumps(config.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize(
    "make_record",
    [
        lambda params: check_against_bound(
            run_cloning_game(
                params, make_strategy("heterodyne_split"), 50, np.random.default_rng(1)
            ),
            params,
        ),
        security_report,
        lambda params: game_equivalence_test(params, 20, 10, np.random.default_rng(2))[0],
    ],
    ids=["BoundCheck", "SecurityReport", "EquivalenceReport"],
)
def test_record_as_dict_is_the_asdict_form(make_record, config_file):
    record = make_record(load_config(config_file()).protocol)
    assert record.as_dict() == dataclasses.asdict(record)
    assert list(record.as_dict()) == list(dataclasses.asdict(record))


def test_load_config_reads_bytes_alike(tmp_path):
    # a str path, a pathlib.Path and CRLF line ends load one config
    text = json.dumps(dict(BASE, channel={"transmittance": 0.9}), indent=2)
    unix, dos = tmp_path / "unix.json", tmp_path / "dos.json"
    unix.write_bytes(text.encode())
    dos.write_bytes(text.replace("\n", "\r\n").encode())
    assert b"\r\n" in dos.read_bytes()
    configs = [load_config(str(unix)), load_config(unix), load_config(str(dos)), load_config(dos)]
    assert all(config == configs[0] for config in configs)
    assert len({config_hash(config) for config in configs}) == 1


def test_defaults_come_from_run_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"protocol": BASE["protocol"], "seed": 3}))
    config = load_config(path)
    assert config == RunConfig(protocol=config.protocol, seed=3)


def test_flag_overrides(tmp_path):
    raw = json.loads(json.dumps(BASE))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path, {"seed": 99, "trials": 7, "format": "json"})
    assert (cfg.seed, cfg.trials, cfg.fmt) == (99, 7, "json")
