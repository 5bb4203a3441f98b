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
from cvue.adversary import STRATEGY_IDS
from cvue.cli import COMMANDS, build_parser, main
from cvue.config import config_hash, load_config
from cvue.bounds import FIGURE_IDS, chernoff_failure, eps_df, exact_failure, figure_data
from cvue.reference import load_key


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

    def test_missing_file(self, capsys):
        code, _, err = run(["bounds", "/nonexistent/config.json"], capsys)
        assert code == 2

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
        ],
    )
    def test_bad_figure_grid_names_its_key(self, figure, grid, key, config_file, capsys):
        code, out, err = run(["bounds", config_file(figure=figure, grid=grid)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: grid {key} must")

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

    def test_bad_format_flag_rejected_by_argparse(self, config_file, capsys):
        with pytest.raises(SystemExit):
            main(["bounds", config_file(), "--format", "xml"])

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


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "cvue.reference"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # scipy takes most of a process's start-up and the runtime needs none of
    # it; cvue.reference holds test oracles that no subcommand may use
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


SHIPPED_CONFIGS = sorted((Path(cvue.__file__).resolve().parents[2] / "configs").glob("*.json"))

# sha256 of `bounds` stdout on configs/fig2a.json with `figure` set, as the
# indenting json.dumps wrote it (x86-64 Linux, CPython 3.11, numpy 2.4)
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

# `keygen` stdout of every shipped config, in the config's own format: the key
# offsets pin the bits of stats.ndtri and stats.truncated_normal
KEYGEN_SHA256 = {
    "attack_heterodyne": "384000e2f1ae449a3b106b97c98cb1e1cea976ddd554cb57bd781c47ce1076e9",
    "ebcheck": "776d88f044fcf025d5f6f837cc880ebd040607a27abe8e93e2005a1062c97b12",
    "fig2a": "b62c90dac0dc8b92ba9def02db18f8c86b1e5117af7920824af51ced29cdf970",
    "noisy_link": "ef8f39815bc3d8dd41d4279ef665eec4c4232676e484f2c9fb17ca53ceacc9bb",
    "paper_point": "268d050d732f15834225345627c50d1fc426ef1c7d950d8a45264e2591ce1d9d",
}

# `ebcheck configs/ebcheck.json --trials 20 --format json`: a change to the
# order or the laws of its draws shows here
EBCHECK_SHA256 = "b4e70deecd2319a8ed32974c38c1bcdd54f9c3610c22e91026eb4e18d3c55244"

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


class TestJsonOutputBytes:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_stdout_is_indented_json_dumps(self, command, config, capsys):
        # --trials keeps ebcheck on the N=1000 configs short; the layout is the same
        code, out, _ = run([command, str(config), "--format", "json", "--trials", "20"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("figure,fmt", sorted(BOUNDS_SHA256))
    def test_bounds_bytes_unchanged(self, figure, fmt, tmp_path, capsys):
        raw = json.loads((SHIPPED_CONFIGS[0].parent / "fig2a.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "figure": figure}))
        code, out, _ = run(["bounds", str(path), "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_SHA256[figure, fmt]

    def test_keygen_pins_cover_every_shipped_config(self):
        assert sorted(KEYGEN_SHA256) == [p.stem for p in SHIPPED_CONFIGS]

    @pytest.mark.parametrize("config", sorted(KEYGEN_SHA256))
    def test_keygen_bytes_unchanged(self, config, capsys):
        path = SHIPPED_CONFIGS[0].parent / f"{config}.json"
        code, out, _ = run(["keygen", str(path)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == KEYGEN_SHA256[config]

    def test_ebcheck_bytes_pinned(self, capsys):
        path = SHIPPED_CONFIGS[0].parent / "ebcheck.json"
        code, out, _ = run(["ebcheck", str(path), "--trials", "20", "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EBCHECK_SHA256

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
        assert hashlib.sha256(out.encode()).hexdigest() == digests[strategy]


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_carries_between_calls(self, config_file, tmp_path, capsys):
        path = config_file()
        build_parser.cache_clear()
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


def test_config_hash_ignores_out_path(tmp_path):
    raw = json.loads(json.dumps(BASE))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    a = load_config(path, {"out": "/tmp/x"})
    b = load_config(path, {"out": "/tmp/y"})
    assert config_hash(a) == config_hash(b)


def test_flag_overrides(tmp_path):
    raw = json.loads(json.dumps(BASE))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path, {"seed": 99, "trials": 7, "format": "json"})
    assert (cfg.seed, cfg.trials, cfg.fmt) == (99, 7, "json")
