"""The four workloads: set-up, the op cycle, and how one op runs and is checked.

CLI ops go through ``cvue.cli.main(argv)`` in process, on configs that are
derived from the shipped ``configs/*.json`` through ``load_config``. The
bch-roundtrip messages use the library API the README shows. child.py
imports this module inside the set-up timer, so it imports nothing that
the program does not import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cvue
from cvue import cli
from cvue.config import load_config

import checks

STRATEGIES = ("heterodyne_split", "forward_to_bob", "measure_guess_basis")
FIGURES = ("report", "fig1", "fig2a", "fig2b", "fig4")
# 0 flips, ~14 flips (the paper point), ~30 flips (near t) and ~70 (beyond t).
# The paper point comes twice, so the median message lies inside its group
# instead of on the edge between two decode costs.
SQUEEZING_LEVELS = (6.0, 3.4, 3.1, 3.4, 2.6)
BEYOND_T = 2.6

# Op sizes. A trial op takes 30-60 ms on a 2-vCPU x86-64 VM, so a 25 s run
# holds over 200 of them and at least 10 lie beyond the 95th percentile.
ROUNDTRIP_TRIALS = 1000
ATTACK_TRIALS = {64: 250, 1000: 45}
EB_TRIALS = 20
EB_REJECTION_SAMPLES = 40

PROTOCOL_KEYS = ("msg_len", "num_modes", "max_errors", "alpha", "squeezing", "codec_scheme")
CHANNEL_KEYS = ("transmittance", "excess_noise", "convention")


@dataclass
class Op:
    kind: str  # roundtrip | bounds | attack | ebcheck | message
    label: str
    main: bool  # counted in trials_per_s and the op latency percentiles
    side: bool  # counted in side_per_s
    argv: list = field(default_factory=list)  # CLI ops; the seed is appended per op
    context: dict = field(default_factory=dict)  # what the check and the replay need


@dataclass
class OpResult:
    elapsed: float
    units: int
    output: bytes  # what the digest covers
    problems: list
    value: object  # the parsed CLI payload or the recovered plaintext


# --- set-up -------------------------------------------------------------------


def derive_config(base, path: Path, **changes) -> str:
    """Write ``base`` (a RunConfig from load_config) back in the README
    schema with ``changes`` applied, and validate it by loading it again."""
    p = base.protocol
    raw = {
        "protocol": {k: getattr(p, k) for k in PROTOCOL_KEYS},
        "seed": base.seed,
        "trials": base.trials,
        "format": base.fmt,
        "figure": base.figure,
        "strategy": base.strategy,
        "grid": base.grid,
        "rejection_samples": base.rejection_samples,
    }
    if base.channel is not None:
        raw["channel"] = {k: getattr(base.channel, k) for k in CHANNEL_KEYS}
    raw.update(changes)
    path.write_text(json.dumps(raw))
    load_config(path)
    return str(path)


def oracle_roundtrip(root: Path, gen: Path, tracer) -> list[Op]:
    """Round trips alternate between the paper point and the noisy link;
    between them run the bounds report and the four figure tables."""
    paper = str(root / "configs" / "paper_point.json")
    noisy = str(root / "configs" / "noisy_link.json")
    with tracer.span("config.load"):
        load_config(paper)
    with tracer.span("config.load"):
        load_config(noisy)
    with tracer.span("config.load"):
        fig_base = load_config(root / "configs" / "fig2a.json")
    bounds_ops = [Op("bounds", "report", False, True, ["bounds", paper, "--format", "json"])]
    for fig in FIGURES[1:]:
        with tracer.span("config.load"):
            path = derive_config(fig_base, gen / f"{fig}.json", figure=fig, format="json")
        bounds_ops.append(Op("bounds", fig, False, True, ["bounds", path]))
    cycle = []
    for i in range(2 * len(bounds_ops)):
        config, label = (paper, "paper") if i % 2 == 0 else (noisy, "noisy")
        cycle.append(
            Op(
                "roundtrip", label, True, False,
                ["roundtrip", config, "--trials", str(ROUNDTRIP_TRIALS), "--format", "json"],
                {"noisy": label == "noisy", "trials": ROUNDTRIP_TRIALS},
            )
        )
        cycle.append(bounds_ops[i % len(bounds_ops)])
    return cycle


def bch_roundtrip(root: Path, gen: Path, tracer) -> list[Op]:
    """One message per op through key_gen, encrypt and decrypt with the
    shortened BCH(1023 -> 1000) codec, cycling over the squeezing levels."""
    with tracer.span("config.load"):
        base = load_config(root / "configs" / "paper_point.json").protocol
    spec = cvue.concrete_spec(base.num_modes, base.max_errors)
    levels = {
        r: cvue.ProtocolParams(
            msg_len=spec.msg_len, num_modes=base.num_modes, max_errors=base.max_errors,
            alpha=base.alpha, squeezing=r, codec_scheme="concrete",
        )
        for r in SQUEEZING_LEVELS
    }
    with tracer.span("codec.make_codec"):
        codec = levels[base.squeezing].make_codec()  # the code does not depend on r
    cycle = []
    for r in SQUEEZING_LEVELS:
        params = levels[r]
        expected_flips = params.num_modes * checks.ber_closed_form(params.alpha, r)
        cycle.append(
            Op(
                "message", f"r={r}", True, r == BEYOND_T,
                context={"params": params, "codec": codec, "always_ok": expected_flips < 1e-6},
            )
        )
    return cycle


def cloning_game(root: Path, gen: Path, tracer) -> list[Op]:
    """Attack ops rotate over the three strategies, alternating the shipped
    N=64 game with the N=1000 paper point."""
    bases = {}
    for name in ("attack_heterodyne.json", "paper_point.json"):
        with tracer.span("config.load"):
            base = load_config(root / "configs" / name)
        bases[base.protocol.num_modes] = base
    cycle = []
    for strategy in STRATEGIES:
        for modes, base in bases.items():
            with tracer.span("config.load"):
                path = derive_config(
                    base, gen / f"{strategy}.n{modes}.json", strategy=strategy, format="json"
                )
            trials = ATTACK_TRIALS[modes]
            cycle.append(
                Op(
                    "attack", f"{strategy}.n{modes}", True, modes == 1000,
                    ["attack", path, "--trials", str(trials)],
                    {"params": base.protocol, "trials": trials},
                )
            )
    return cycle


def eb_check(root: Path, gen: Path, tracer) -> list[Op]:
    """ebcheck ops of two shapes, alternating: many equivalence trials with
    one rejection sample, and one trial with many rejection samples."""
    with tracer.span("config.load"):
        base = load_config(root / "configs" / "ebcheck.json")
    with tracer.span("config.load"):
        trial_heavy = derive_config(base, gen / "trials.json", rejection_samples=1, format="json")
    with tracer.span("config.load"):
        rejection_heavy = derive_config(
            base, gen / "rejection.json", rejection_samples=EB_REJECTION_SAMPLES, format="json"
        )
    return [
        Op("ebcheck", "trials", True, False,
           ["ebcheck", trial_heavy, "--trials", str(EB_TRIALS)], {"trials": EB_TRIALS}),
        Op("ebcheck", "rejection", False, True,
           ["ebcheck", rejection_heavy, "--trials", "1"], {"trials": 1}),
    ]


WORKLOADS = {
    "oracle-roundtrip": oracle_roundtrip,
    "bch-roundtrip": bch_roundtrip,
    "cloning-game": cloning_game,
    "eb-check": eb_check,
}


# --- running one op -------------------------------------------------------------


def op_seed(seed: int, index: int) -> int:
    """The op's 64-bit seed, spawned from the run seed by SeedSequence."""
    state = np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)
    return int(state[0])


def _cli_units(op: Op, out: dict) -> int:
    if op.kind == "roundtrip":
        return out["trials"]
    if op.kind == "bounds":
        return 1 if op.label == "report" else len(out["rows"])
    if op.kind == "attack":
        return out["outcome"]["trials"]
    return out["equivalence"]["trials"] if op.main else out["rejection_oracle"]["samples"]


def _cli_problems(op: Op, out: dict) -> list[str]:
    if op.kind == "roundtrip":
        return checks.check_roundtrip(out, op.context["noisy"])
    if op.kind == "bounds":
        return checks.check_bounds(out, op.label)
    if op.kind == "attack":
        return checks.check_attack(out, op.context["params"])
    return checks.check_ebcheck(out)


def run_cli(op: Op, seed: int) -> OpResult:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv + ["--seed", str(seed)])
    elapsed = time.perf_counter() - start
    text = buf.getvalue()
    if code != 0:
        return OpResult(elapsed, 0, text.encode(), [f"exit code {code}"], None)
    out = json.loads(text)
    return OpResult(elapsed, _cli_units(op, out), text.encode(), _cli_problems(op, out), out)


def run_message(op: Op, seed: int) -> OpResult:
    params, codec = op.context["params"], op.context["codec"]
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    key = cvue.key_gen(params, rng)
    message = rng.integers(0, 2, params.msg_len, dtype=np.uint8)
    cipher = cvue.encrypt(key, message, params, codec)
    recovered = cvue.decrypt(key, cipher, params, codec, rng)
    elapsed = time.perf_counter() - start
    output = b"none" if recovered is None else np.asarray(recovered, dtype=np.uint8).tobytes()
    problems = checks.check_message(message, recovered, op.context["always_ok"])
    return OpResult(elapsed, 1, output, problems, recovered)


def run_op(op: Op, seed: int) -> OpResult:
    return run_message(op, seed) if op.kind == "message" else run_cli(op, seed)
