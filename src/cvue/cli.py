"""Command-line surface: keygen, roundtrip, bounds, attack, ebcheck.

Every subcommand loads one JSON config file and applies the shared flag
overrides (--seed, --trials, --out, --format). A command is a function from
the config to its result, run deterministically from the seed: a record
dict, or (names, columns) for a figure table, its columns equally long 1-D
arrays. ``main`` renders the result once, stamped with the config hash, and
writes it to the output path (stdout by default): CSV or JSON for roundtrip
and bounds, JSON for the others. A figure table has one writer,
``render_table``, which spells each distinct value of a column once; a
record is one JSON object or one CSV row. CSV carries a comment row echoing
the config hash. Exit code 0 on success, 2 on validation or I/O failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import adversary, bounds, ebprep, protocol
from .channel import noisy_variance
from .codec import bits_to_hex
from .config import FORMATS, RunConfig, config_hash, load_config

# json.dumps builds an encoder per call when given a non-default argument
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)
# each option and how its value is read: by a type, or as one of a tuple of choices
OPTIONS = {"--seed": int, "--trials": int, "--out": str, "--format": FORMATS}
USAGE = "usage: cvue [-h] [--seed N] [--trials N] [--out PATH] [--format {csv,json}] command config\n"
HELP = USAGE + """
options, before or after the command, as --name value or --name=value:
  -h, --help           show this help and exit
  --seed N             override the master seed
  --trials N           override the trial count
  --out PATH           output path (default: stdout)
  --format {csv,json}  output format

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


def render_json(payload) -> str:
    # one line: json.dumps(payload, sort_keys=True), whose C encoder runs only with no indent
    return _JSON_ENCODER.encode(payload) + "\n"


def _spell(column: np.ndarray, encode, prefix: str, suffix: str, out: np.ndarray) -> None:
    """Write the text of each cell of a column, with ``prefix`` and ``suffix``
    attached, to ``out``. Its distinct values, by bit pattern so that 0.0 and
    -0.0 stay apart, are spelt by one ``encode`` of their list, split on
    ", ": no number token holds ", "."""
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    # np.unique(keys, return_inverse=True) without its fixed cost of ~15 us a call
    order = keys.argsort()
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)  # where a new distinct value starts
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    texts = encode(ordered[starts].view(column.dtype).tolist())[1:-1].split(", ")
    if prefix or suffix:
        texts = [prefix + text + suffix for text in texts]
    out[order] = np.array(texts, dtype=object)[starts.cumsum() - 1]


def render_table(names, columns, digest: str, fmt: str) -> str:
    """A figure table of equally long 1-D columns as CSV (``repr`` of each
    value) or as the one-line JSON object of its columns, config hash and
    rows, byte for byte what ``json.dumps(..., sort_keys=True)`` writes of
    the rows. Each cell is gathered from the text of its column's distinct
    values, and the cells, in row order, are joined once."""
    if fmt == "json":
        encode, joiner, first, between, last = _JSON_ENCODER.encode, ", ", "[", "", "]"
        # the rows come last in key order: open the empty list and fill it
        head = render_json({"columns": list(names), "config_hash": digest, "rows": []})[:-3]
        tail = "]}\n"
    else:
        encode, joiner, first, between, last = repr, "", "", ",", "\n"
        head, tail = f"# config={digest}\n{','.join(names)}\n", ""
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for i, column in enumerate(columns):
        prefix = first if i == 0 else ""
        suffix = last if i == len(columns) - 1 else between
        _spell(column, encode, prefix, suffix, cells[:, i])
    return head + joiner.join(cells.ravel().tolist()) + tail


def render(result, config: RunConfig) -> str:
    """A command's result as output text in the config's format, stamped with
    the config hash: a record dict is one CSV row or a JSON object, a
    (names, columns) figure table goes through ``render_table``."""
    digest = config_hash(config)
    if isinstance(result, dict):
        if config.fmt == "json":
            return render_json({"config_hash": digest, **result})
        # every value is a Python int or float, whose repr is its shortest form
        return f"# config={digest}\n{','.join(result)}\n{','.join(map(repr, result.values()))}\n"
    return render_table(*result, digest, config.fmt)


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

def cmd_keygen(config: RunConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    return key_to_dict(protocol.key_gen(config.protocol, rng), config)


def cmd_roundtrip(config: RunConfig) -> dict:
    params = config.protocol
    # the flip probability the trials draw with, so both failure bounds are taken at it
    trial_beta = protocol.trial_ber(params, config.channel)
    record = {
        "trials": config.trials,
        "beta_analytic": bounds.ber_analytic(params.alpha, params.squeezing),
        "eps_df": bounds.chernoff_failure(params.num_modes, params.max_errors, trial_beta),
        "failure_exact": bounds.exact_failure(params.num_modes, params.max_errors, trial_beta),
    }
    if config.channel is not None:
        record["beta_noisy"] = trial_beta
        record["noisy_variance"] = noisy_variance(params.squeezing, config.channel)
    if config.trials > 0:
        rng = np.random.default_rng(config.seed)
        record.update(protocol.run_round_trip(params, config.trials, rng, channel=config.channel))
    return record


def cmd_bounds(config: RunConfig):
    """The security report as a record, or a figure's (names, columns) table."""
    if config.figure == "report":
        return bounds.security_report(config.protocol)
    return bounds.figure_columns(config.figure, config.grid)


def cmd_attack(config: RunConfig) -> dict:
    rng = np.random.default_rng(config.seed)
    strategy = adversary.make_strategy(config.strategy)
    outcome = adversary.run_cloning_game(config.protocol, strategy, config.trials, rng)
    check = adversary.check_against_bound(outcome, config.protocol)
    return {"outcome": outcome, "bound_check": check}


def cmd_ebcheck(config: RunConfig) -> dict:
    params = config.protocol
    samples = config.rejection_samples
    rng = np.random.default_rng(config.seed)
    # first, so that a squeezing the oracle cannot serve fails before any sampling
    accepted, attempts = ebprep.eb_rejection_oracle(params.squeezing, params.alpha, samples, rng)
    equivalence, direct = ebprep.game_equivalence_test(params, config.trials, samples, rng)
    # each arm against the closed-form law, so that an arm that is wrong fails
    # even when the other is wrong the same way
    ks = {}
    for arm, outcomes in (("accepted", accepted), ("direct", direct)):
        ks[f"ks_statistic_{arm}"], ks[f"ks_pvalue_{arm}"] = ebprep.outcome_ks(
            outcomes, params.squeezing, params.alpha
        )
    return {
        "equivalence": equivalence,
        "rejection_oracle": {
            "samples": samples,
            "attempts": attempts,
            "acceptance_ratio": samples / attempts,
            "expected_ratio": ebprep.window_mass(params.squeezing, params.alpha),
            **ks,
        },
    }


COMMANDS = {
    "keygen": cmd_keygen,
    "roundtrip": cmd_roundtrip,
    "bounds": cmd_bounds,
    "attack": cmd_attack,
    "ebcheck": cmd_ebcheck,
}


def usage_error(message: str):
    sys.stderr.write(f"{USAGE}cvue: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv=None) -> tuple[str, str, dict]:
    """The command, config path and options in ``argv`` (``sys.argv[1:]`` by default).
    ``-h``/``--help`` anywhere prints the help and exits 0; a usage error exits 2."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        raise SystemExit(0)
    positionals, overrides, tokens = [], {}, iter(argv)
    for token in tokens:
        name, equals, value = token.partition("=")
        if not token.startswith("-"):
            positionals.append(token)
        elif (kind := OPTIONS.get(name)) is None:
            usage_error(f"unrecognized arguments: {token}")
        elif not equals and (value := next(tokens, "--")).startswith("--"):
            usage_error(f"argument {name}: expected one argument")
        elif isinstance(kind, tuple) and value not in kind:
            usage_error(f"argument {name}: invalid choice: {value!r}")
        else:
            try:
                overrides[name[2:]] = value if isinstance(kind, tuple) else kind(value)
            except ValueError:
                usage_error(f"argument {name}: invalid int value: {value!r}")
    if len(positionals) != 2:
        usage_error(f"expected a command and a config path, got: {' '.join(positionals)}")
    if positionals[0] not in COMMANDS:
        usage_error(f"argument command: invalid choice: {positionals[0]!r}")
    return *positionals, overrides


def main(argv=None) -> int:
    command, path, overrides = parse_args(argv)
    try:
        config = load_config(path, overrides)
        if command not in ("roundtrip", "bounds") and config.fmt != "json":
            # --format applies to roundtrip and bounds; the others write JSON,
            # and the config hash covers the format the bytes are written in
            config = dataclasses.replace(config, fmt="json")
        text = render(COMMANDS[command](config), config)
        if config.out is None:
            sys.stdout.write(text)
        else:
            Path(config.out).write_text(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
