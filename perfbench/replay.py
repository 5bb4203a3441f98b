"""Traced replay of one op: the library calls its CLI subcommand (or the
README message path) makes, with the same seed, each inside a span.

Public functions are looked up by name once; one that is gone is reported
as a missing span and ends that op's replay instead of crashing the run.
``replay`` says whether the replay reproduced the untraced op: the same
failures, flips, wins, p-values and plaintexts.
"""

from __future__ import annotations

import importlib
import json

import numpy as np

from spans import layer_metrics
from workloads import STRATEGIES

PUBLIC = {
    "load_config": ("cvue.config", "load_config"),
    "ber_analytic": ("cvue.bounds", "ber_analytic"),
    "eps_df": ("cvue.bounds", "eps_df"),
    "security_report": ("cvue.bounds", "security_report"),
    "figure_data": ("cvue.bounds", "figure_data"),
    "noisy_ber": ("cvue.channel", "noisy_ber"),
    "noisy_variance": ("cvue.channel", "noisy_variance"),
    "run_round_trip": ("cvue.protocol", "run_round_trip"),
    "key_gen": ("cvue.protocol", "key_gen"),
    "encrypt": ("cvue.protocol", "encrypt"),
    "measure_codeword": ("cvue.protocol", "measure_codeword"),
    "base_encrypt": ("cvue.codec", "base_encrypt"),
    "base_decrypt": ("cvue.codec", "base_decrypt"),
    "make_strategy": ("cvue.adversary", "make_strategy"),
    "run_cloning_game": ("cvue.adversary", "run_cloning_game"),
    "check_against_bound": ("cvue.adversary", "check_against_bound"),
    "game_equivalence_test": ("cvue.ebprep", "game_equivalence_test"),
    "RestrictedEprSpec": ("cvue.ebprep", "RestrictedEprSpec"),
    "sample_eb_mode": ("cvue.ebprep", "sample_eb_mode"),
    "two_mode_squeezed": ("cvue.gaussian", "two_mode_squeezed"),
    "homodyne_sample": ("cvue.gaussian", "homodyne_sample"),
    "Quadrature": ("cvue.gaussian", "Quadrature"),
    "ks_2samp": ("scipy.stats", "ks_2samp"),
}


def resolve() -> dict:
    """name -> the public function, or None where the program lacks it."""
    found = {}
    for name, (module, attr) in PUBLIC.items():
        try:
            found[name] = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            found[name] = None
    return found


def _need(fn, name, t):
    """A public name called outside a span; reported as missing when gone."""
    if fn[name] is None:
        t.missing.add(name)
        raise LookupError(f"no public name {name!r}")
    return fn[name]


def _plain(value):
    """The value as the CLI's JSON output would carry it."""
    return json.loads(json.dumps(value))


def _load(op, seed, t, fn):
    overrides = {"seed": seed, "trials": op.context.get("trials")}
    return t.call("config.load", fn["load_config"], op.argv[1], overrides)


def _roundtrip(op, seed, t, fn):
    cfg = _load(op, seed, t, fn)
    params = cfg.protocol
    t.call("bounds.ber_analytic", fn["ber_analytic"], params.alpha, params.squeezing)
    t.call(
        "bounds.eps_df", fn["eps_df"],
        params.num_modes, params.max_errors, params.alpha, params.squeezing,
    )
    name = "protocol.run_round_trip"
    if cfg.channel is not None:
        t.call("channel.noisy_ber", fn["noisy_ber"], params.alpha, params.squeezing, cfg.channel)
        t.call("channel.noisy_variance", fn["noisy_variance"], params.squeezing, cfg.channel)
        name = "protocol.run_round_trip_noisy"
    rng = np.random.default_rng(cfg.seed)
    result = t.call(
        name, fn["run_round_trip"], params, cfg.trials, rng,
        channel=cfg.channel, units=cfg.trials,
    )
    return {"failures": result.failures, "flip_rate": result.flip_rate}


def _roundtrip_seen(out):
    return {"failures": out["failures"], "flip_rate": out["flip_rate"]}


def _bounds(op, seed, t, fn):
    cfg = _load(op, seed, t, fn)
    if cfg.figure == "report":
        report = t.call("bounds.report", fn["security_report"], cfg.protocol)
        return _plain(report.as_dict())
    _columns, rows = t.call(f"bounds.{cfg.figure}", fn["figure_data"], cfg.figure, cfg.grid)
    return _plain([list(row) for row in rows])


def _bounds_seen(out):
    if "rows" in out:
        return out["rows"]
    return {k: v for k, v in out.items() if k != "config_hash"}


def _attack(op, seed, t, fn):
    cfg = _load(op, seed, t, fn)
    rng = np.random.default_rng(cfg.seed)
    strategy = _need(fn, "make_strategy", t)(cfg.strategy)
    outcome = t.call(
        f"adversary.game.{cfg.strategy}.n{cfg.protocol.num_modes}",
        fn["run_cloning_game"], cfg.protocol, strategy, cfg.trials, rng, units=cfg.trials,
    )
    check = t.call("adversary.check", fn["check_against_bound"], outcome, cfg.protocol)
    return _plain({"outcome": outcome.as_dict(), "bound_check": check.as_dict()})


def _attack_seen(out):
    return {"outcome": out["outcome"], "bound_check": out["bound_check"]}


def _ebcheck(op, seed, t, fn):
    cfg = _load(op, seed, t, fn)
    params = cfg.protocol
    rng = np.random.default_rng(cfg.seed)
    report = t.call(
        "ebprep.equivalence", fn["game_equivalence_test"], params, cfg.trials, rng,
        units=cfg.trials,
    )
    # eb_rejection_oracle replayed through its public parts
    q = _need(fn, "Quadrature", t).Q
    spec = _need(fn, "RestrictedEprSpec", t)(params.squeezing, 1, params.alpha)
    lo, hi = spec.interval
    center = params.alpha
    accepted = np.empty(cfg.rejection_samples)
    attempts = 0
    for i in range(cfg.rejection_samples):
        with t.span("ebprep.rejection"):
            state = t.call(
                "gaussian.two_mode_squeezed", fn["two_mode_squeezed"],
                params.squeezing, np.array([center, 0.0, center, 0.0]),
            )
            while True:
                attempts += 1
                record = t.call("gaussian.homodyne_sample", fn["homodyne_sample"], state, 0, q, rng)
                if lo < record.outcome < hi:
                    break
        accepted[i] = record.outcome
    t.counts["ebprep.rejection_samples"] += cfg.rejection_samples
    t.counts["ebprep.rejection_attempts"] += attempts
    direct = np.array(
        [
            t.call("ebprep.sample_eb_mode", fn["sample_eb_mode"], spec, rng, q)[0]
            for _ in range(cfg.rejection_samples)
        ]
    )
    ks = t.call("stats.ks_2samp", fn["ks_2samp"], accepted, direct)
    return _plain(
        {"equivalence": report.as_dict(), "attempts": attempts, "ks_pvalue": float(ks.pvalue)}
    )


def _ebcheck_seen(out):
    rej = out["rejection_oracle"]
    return {
        "equivalence": out["equivalence"],
        "attempts": rej["attempts"],
        "ks_pvalue": rej["ks_pvalue"],
    }


def _message(op, seed, t, fn):
    params, codec = op.context["params"], op.context["codec"]
    rng = np.random.default_rng(seed)
    key = t.call("protocol.key_gen", fn["key_gen"], params, rng)
    message = rng.integers(0, 2, params.msg_len, dtype=np.uint8)
    cipher = t.call("protocol.encrypt", fn["encrypt"], key, message, params, codec)
    # decrypt replayed as its public parts: measure, decode, unpad
    estimate = t.call("protocol.measure", fn["measure_codeword"], key, cipher, rng)
    codeword = codec.encode(_need(fn, "base_encrypt", t)(key.pad, message))
    flips = int(np.count_nonzero(estimate != codeword))
    bucket = "w0" if flips == 0 else "le_t" if flips <= params.max_errors else "gt_t"
    decoded = t.call(f"bch.decode.{bucket}", codec.decode, estimate)
    if decoded is None:
        t.counts["bch.decode_none"] += 1
        return None
    return t.call("codec.base_decrypt", fn["base_decrypt"], key.pad, decoded).tobytes()


def _message_seen(recovered):
    return None if recovered is None else np.asarray(recovered, dtype=np.uint8).tobytes()


REPLAYS = {
    "roundtrip": (_roundtrip, _roundtrip_seen),
    "bounds": (_bounds, _bounds_seen),
    "attack": (_attack, _attack_seen),
    "ebcheck": (_ebcheck, _ebcheck_seen),
    "message": (_message, _message_seen),
}


def replay(op, seed, tracer, fn, seen) -> bool:
    """Replay ``op`` under ``tracer``; True when it reproduced ``seen``, the
    untraced op's value. A missing public function ends the replay (False)."""
    run, expected = REPLAYS[op.kind]
    try:
        value = run(op, seed, tracer, fn)
    except LookupError:
        return False
    if seen is None and op.kind != "message":
        return False  # the untraced op failed; there is nothing to reproduce
    return value == expected(seen)


# per-layer metric -> (span, time field, divided by, scale)
LAYERS = {
    "protocol.run_round_trip.us_per_trial": ("protocol.run_round_trip", "self_s", "units", 1e6),
    "protocol.run_round_trip_noisy.us_per_trial": (
        "protocol.run_round_trip_noisy", "self_s", "units", 1e6
    ),
    "protocol.key_gen_ms": ("protocol.key_gen", "self_s", "calls", 1e3),
    "protocol.encrypt_ms": ("protocol.encrypt", "self_s", "calls", 1e3),
    "protocol.measure_ms": ("protocol.measure", "self_s", "calls", 1e3),
    "bch.decode_ms.w0": ("bch.decode.w0", "self_s", "calls", 1e3),
    "bch.decode_ms.le_t": ("bch.decode.le_t", "self_s", "calls", 1e3),
    "bch.decode_ms.gt_t": ("bch.decode.gt_t", "self_s", "calls", 1e3),
    "bounds.report_us": ("bounds.report", "self_s", "calls", 1e6),
    "bounds.fig1_ms": ("bounds.fig1", "self_s", "calls", 1e3),
    "bounds.fig2a_ms": ("bounds.fig2a", "self_s", "calls", 1e3),
    "bounds.fig2b_ms": ("bounds.fig2b", "self_s", "calls", 1e3),
    "bounds.fig4_ms": ("bounds.fig4", "self_s", "calls", 1e3),
    "channel.noisy_ber_us": ("channel.noisy_ber", "self_s", "calls", 1e6),
    **{
        f"adversary.game_us.{s}.n{n}": (f"adversary.game.{s}.n{n}", "self_s", "units", 1e6)
        for s in STRATEGIES
        for n in (64, 1000)
    },
    "adversary.check_us": ("adversary.check", "self_s", "calls", 1e6),
    "ebprep.equivalence_ms_per_trial": ("ebprep.equivalence", "self_s", "units", 1e3),
    # a rejection sample's whole cost, its gaussian calls included
    "ebprep.rejection_us_per_sample": ("ebprep.rejection", "total_s", "calls", 1e6),
    "ebprep.sample_eb_mode_us": ("ebprep.sample_eb_mode", "self_s", "calls", 1e6),
    "gaussian.two_mode_squeezed_us": ("gaussian.two_mode_squeezed", "self_s", "calls", 1e6),
    "gaussian.homodyne_sample_us": ("gaussian.homodyne_sample", "self_s", "calls", 1e6),
    "stats.ks_2samp_ms": ("stats.ks_2samp", "self_s", "calls", 1e3),
}


def trace_metrics(tracer, replays: int, matched: int, traced_s: float, plain_s: float):
    """The per-layer metrics of a traced run, and its span summary."""
    summary = tracer.summary()
    out = layer_metrics(summary, LAYERS)
    decodes = sum(summary.get(f"bch.decode.{b}", {}).get("calls", 0) for b in ("w0", "le_t", "gt_t"))
    none = tracer.counts["bch.decode_none"]
    attempts = tracer.counts["ebprep.rejection_attempts"]
    out.update(
        {
            "bch.decodes": decodes,
            "bch.decode_none": none,
            "bch.decode_ok_ratio": (decodes - none) / decodes if decodes else 0.0,
            "ebprep.rejection_accept_ratio": (
                tracer.counts["ebprep.rejection_samples"] / attempts if attempts else 0.0
            ),
            "trace.overhead_frac": traced_s / plain_s - 1.0,
            "trace.replay_match_frac": matched / replays,
            "trace.missing_spans": len(tracer.missing),
        }
    )
    return out, summary
