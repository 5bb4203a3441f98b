"""Command-line surface: keygen, roundtrip, bounds, attack, ebcheck.

Every subcommand loads one JSON config file, applies the shared flag
overrides (--seed, --trials, --out, --format), runs deterministically from
the seed, and writes CSV or JSON to the output path (stdout by default).
Tables carry a comment row echoing the config hash. Exit code 0 on
success, 2 on validation or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import adversary, bounds, ebprep, protocol
from .channel import noisy_ber, noisy_variance
from .codec import bits_to_hex
from .config import RunConfig, config_hash, load_config

EPILOG = """\
commands:
  keygen    - generate a key and write it as JSON
  roundtrip - Monte-Carlo decryption-failure rate next to the analytic bounds
  bounds    - closed-form security report or figure data tables
  attack    - cloning-game Monte Carlo for a concrete strategy
  ebcheck   - entanglement-based preparation equivalence checks

bounds figure columns (grid coordinates first, value last):
  report - one row of beta, eps_df, failure_exact, tau, win_bound, asymptotic_margin
           plus the parameter echo
  fig1   - alpha, squeezing, margin (negative margin = asymptotically securable)
  fig2a  - squeezing, transmittance, beta_noisy (excess noise fixed, default 0.001)
  fig2b  - transmittance, excess_noise, beta_noisy (squeezing fixed, default 3.6)
  fig4   - msg_len, ideal, conjugate_coding, cv_scheme (winning-probability bounds)
"""


def render_csv(columns, rows, digest: str) -> str:
    # every value is a Python int or float, whose repr is its shortest form
    lines = [f"# config={digest}", ",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


# JSON output is json.dumps(payload, sort_keys=True, indent=2) byte for byte.
# The indenting json.dumps runs in pure Python. This writer lays out dicts and
# lists itself as a %-template with one %s per scalar (dict keys included),
# and takes all the scalar tokens from one call of the C encoder, which runs
# when no indent is set. With a newline item separator its output splits
# into the tokens, since no encoded scalar holds a raw newline (ensure_ascii
# escapes every control and non-ASCII character).
_SCALAR_ENCODER = json.JSONEncoder(separators=("\n", ":"))
_CONTAINERS = (dict, list, tuple)


def _lines(items: list[str], indent: str, brackets: str) -> str:
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _template(value, indent: str, scalars: list) -> str:
    """The layout of ``value``, appending its scalars to ``scalars`` in order."""
    if not isinstance(value, _CONTAINERS):
        scalars.append(value)
        return "%s"
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            scalars.append(key)
            items.append("%s: " + _template(value[key], inner, scalars))
        return _lines(items, indent, "{}")
    types = set(map(type, value))
    if not any(issubclass(t, _CONTAINERS) for t in types):
        scalars.extend(value)
        return _lines(["%s"] * len(value), indent, "[]")
    widths = set(map(len, value)) if all(issubclass(t, (list, tuple)) for t in types) else ()
    if len(widths) == 1:
        # equal-width rows (the rows of a table): flattened, one row layout
        flat = list(itertools.chain.from_iterable(value))
        if not any(issubclass(t, _CONTAINERS) for t in set(map(type, flat))):
            scalars.extend(flat)
            (width,) = widths
            row = _lines(["%s"] * width, inner, "[]") if width else "[]"
            return _lines([row] * len(value), indent, "[]")
    return _lines([_template(v, inner, scalars) for v in value], indent, "[]")


def render_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    except that a non-str dict key raises TypeError."""
    scalars = []
    template = _template(payload, "", scalars)
    tokens = _SCALAR_ENCODER.encode(scalars)[1:-1].split("\n") if scalars else []
    return template % tuple(tokens) + "\n"


def emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def write_table(columns, rows, config: RunConfig) -> None:
    digest = config_hash(config)
    if config.fmt == "csv":
        emit(render_csv(columns, rows, digest), config.out)
    else:
        payload = {
            "config_hash": digest,
            "columns": list(columns),
            "rows": rows,
        }
        emit(render_json(payload), config.out)


def write_record(record: dict, config: RunConfig) -> None:
    if config.fmt == "csv":
        columns = list(record)
        write_table(columns, [[record[c] for c in columns]], config)
    else:
        payload = {"config_hash": config_hash(config), **record}
        emit(render_json(payload), config.out)


# --- key serialization ----------------------------------------------------

def key_to_dict(key: protocol.QecmKey, config: RunConfig) -> dict:
    """Key file schema: s/phi as hex bit strings, k as a decimal array."""
    return {
        "s": bits_to_hex(key.pad),
        "phi": bits_to_hex(key.directions),
        "k": [float(v) for v in key.offsets],
        "label": int(key.label),
        "params": config.to_dict()["protocol"],
    }


# --- subcommands ------------------------------------------------------------

def cmd_keygen(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    key = protocol.key_gen(config.protocol, rng)
    payload = {"config_hash": config_hash(config), **key_to_dict(key, config)}
    emit(render_json(payload), config.out)
    return 0


def cmd_roundtrip(config: RunConfig) -> int:
    params = config.protocol
    beta = bounds.ber_analytic(params.alpha, params.squeezing)
    # the flip probability the trials draw with, so both failure bounds are taken at it
    trial_beta = (
        beta if config.channel is None
        else noisy_ber(params.alpha, params.squeezing, config.channel)
    )
    record = {
        "trials": config.trials,
        "beta_analytic": beta,
        "eps_df": bounds.chernoff_failure(params.num_modes, params.max_errors, trial_beta),
        "failure_exact": bounds.exact_failure(params.num_modes, params.max_errors, trial_beta),
    }
    if config.channel is not None:
        record["beta_noisy"] = trial_beta
        record["noisy_variance"] = noisy_variance(params.squeezing, config.channel)
    if config.trials > 0:
        rng = np.random.default_rng(config.seed)
        result = protocol.run_round_trip(params, config.trials, rng, channel=config.channel)
        record.update(
            failures=result.failures,
            failure_rate=result.failure_rate,
            failure_rate_low=result.interval[0],
            failure_rate_high=result.interval[1],
            flip_rate=result.flip_rate,
            modes_total=result.modes_total,
        )
    write_record(record, config)
    return 0


def cmd_bounds(config: RunConfig) -> int:
    if config.figure == "report":
        report = bounds.security_report(config.protocol)
        record = report.as_dict()
        write_record(record, config)
        return 0
    columns, rows = bounds.figure_data(config.figure, config.grid)
    write_table(columns, rows, config)
    return 0


def cmd_attack(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    strategy = adversary.make_strategy(config.strategy)
    outcome = adversary.run_cloning_game(config.protocol, strategy, config.trials, rng)
    check = adversary.check_against_bound(outcome, config.protocol)
    payload = {
        "config_hash": config_hash(config),
        "outcome": outcome.as_dict(),
        "bound_check": check.as_dict(),
    }
    emit(render_json(payload), config.out)
    return 0


def cmd_ebcheck(config: RunConfig) -> int:
    params = config.protocol
    samples = config.rejection_samples
    rng = np.random.default_rng(config.seed)
    # first, so that a squeezing the oracle cannot serve fails before any sampling
    accepted, _, cond_cov, attempts = ebprep.eb_rejection_oracle(
        params.squeezing, params.alpha, samples, rng
    )
    report = ebprep.game_equivalence_test(params, config.trials, rng)
    direct, _ = ebprep.eb_outcomes(np.ones(samples), params.alpha, params.squeezing, rng)
    # each arm against the closed-form law, so that an arm that is wrong fails
    # even when the other is wrong the same way
    ks = {}
    for arm, outcomes in (("accepted", accepted), ("direct", direct)):
        ks[f"ks_statistic_{arm}"], ks[f"ks_pvalue_{arm}"] = ebprep.outcome_ks(
            outcomes, params.squeezing, params.alpha
        )
    payload = {
        "config_hash": config_hash(config),
        "equivalence": report.as_dict(),
        "rejection_oracle": {
            "samples": samples,
            "attempts": attempts,
            "acceptance_ratio": samples / attempts,
            "expected_ratio": ebprep.window_mass(params.squeezing, params.alpha),
            "conditional_cov_error": ebprep.conditional_cov_error(cond_cov, params.squeezing),
            **ks,
        },
    }
    emit(render_json(payload), config.out)
    return 0


COMMANDS = {
    "keygen": cmd_keygen,
    "roundtrip": cmd_roundtrip,
    "bounds": cmd_bounds,
    "attack": cmd_attack,
    "ebcheck": cmd_ebcheck,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on first use and then reused:
    building it costs more than a small roundtrip run."""
    parser = argparse.ArgumentParser(
        prog="cvue",
        description="Continuous-variable unclonable-encryption simulator",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(COMMANDS), metavar="command", help="listed below")
    parser.add_argument("config", help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--trials", type=int, default=None, help="override the trial count")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", default=None, choices=["csv", "json"], help="output format")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "out": args.out,
        "format": args.format,
    }
    try:
        config = load_config(args.config, overrides)
        return COMMANDS[args.command](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
