"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module stays within a desk-scale runtime budget (the
Monte-Carlo criterion runs 1e5 x 1000 modes in a few seconds).
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import erf, erfc
from scipy.stats import binom, ks_2samp

from cvue.adversary import check_against_bound, make_strategy, run_cloning_game
from cvue.bounds import (
    asymptotic_margin,
    ber_analytic,
    eps_df,
    exact_failure,
    tau,
)
from cvue.channel import ChannelParams, noisy_ber
from cvue.cli import main
from cvue.codec import random_bits
from cvue.ebprep import eb_rejection_oracle
from cvue.protocol import ProtocolParams, key_gen, run_round_trip, sample_key_offset
from cvue.reference import eb_prepare, monogamy_bound_exact, monogamy_bound_relaxed

REFERENCE = ProtocolParams(892, 1000, 35, 0.4, 3.4)


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_1_ber_reproduction():
    beta = ber_analytic(0.4, 3.4)
    assert abs(beta - 0.014) <= 5e-4
    report(1, f"ber_analytic(0.4, 3.4) = {beta:.6f} within 0.014 +- 0.0005")


def test_criterion_2_decryption_failure_bound():
    value = eps_df(1000, 35, 0.4, 3.4)
    assert 5.7e-6 <= value <= 8.3e-6
    exact = exact_failure(1000, 35, ber_analytic(0.4, 3.4))
    assert abs(exact - 7.43e-7) <= 1e-9
    report(
        2,
        f"eps_df(1000, 35, 0.4, 3.4) = {value:.3e} in [5.7e-6, 8.3e-6]; "
        f"exact tail P[Bin(1000, beta) > 35] = {exact:.4e}",
    )


# one-sided 5-sigma mass: a count whose binomial tail is smaller refutes the
# failure probability the tail is taken at
TAIL_5SIGMA = math.erfc(5 / math.sqrt(2)) / 2


def check_failure_count(result):
    """The failure count of a REFERENCE round trip does not refute eps_df, and
    agrees with the exact tail.

    Comparing the failure rate with eps_df cannot resolve it: one failure in
    1e5 trials is a rate of 1e-5 > 6.9e-6, and at the exact tail 7.43e-7 one
    or more failures come in ~7 % of runs."""
    failures, trials = result.failures, result.trials
    exact = exact_failure(1000, 35, ber_analytic(0.4, 3.4))
    assert binom.sf(failures - 1, trials, eps_df(1000, 35, 0.4, 3.4)) > TAIL_5SIGMA
    assert binom.sf(failures - 1, trials, exact) > TAIL_5SIGMA
    assert binom.cdf(failures, trials, exact) > TAIL_5SIGMA


def test_criterion_3_monte_carlo_vs_analytic():
    result = run_round_trip(REFERENCE, 100_000, np.random.default_rng(1003))
    beta = ber_analytic(0.4, 3.4)
    sd = math.sqrt(beta * (1 - beta) / result.modes_total)
    assert result.modes_total >= 10**6
    assert abs(result.flip_rate - beta) <= 5 * sd
    bound = eps_df(1000, 35, 0.4, 3.4)
    # the simulation must not refute the Chernoff bound: its confidence
    # interval has to contain values at or below eps_df
    assert result.interval[0] <= bound
    check_failure_count(result)
    report(
        3,
        f"flip rate {result.flip_rate:.6f} vs beta {beta:.6f} over {result.modes_total:.0e} "
        f"modes; {result.failures} failures in 1e5 trials, interval {result.interval} "
        f"consistent with eps_df {bound:.2e}",
    )


@pytest.mark.parametrize("seed", [26, 31, 32])
def test_criterion_3_failure_count_on_seeds_with_failures(seed):
    # these seeds see failures: a failure rate above eps_df, but a count that
    # refutes neither eps_df nor the exact tail
    result = run_round_trip(REFERENCE, 100_000, np.random.default_rng(seed))
    assert result.failure_rate > eps_df(1000, 35, 0.4, 3.4)
    check_failure_count(result)


def test_criterion_4_noise_model():
    channel = ChannelParams(0.8, 0.001)
    beta = noisy_ber(0.4, 3.5, channel)
    assert abs(beta - 0.182) <= 2e-3
    params = ProtocolParams(500, 1000, 35, 0.4, 3.5)
    result = run_round_trip(params, 1000, np.random.default_rng(1004), channel=channel)
    sd = math.sqrt(beta * (1 - beta) / result.modes_total)
    assert result.modes_total >= 10**6
    assert abs(result.flip_rate - beta) <= 5 * sd
    report(
        4,
        f"noisy_ber = {beta:.6f} (0.182 +- 0.002); simulated flip rate "
        f"{result.flip_rate:.6f} within 5 sigma at {result.modes_total:.0e} modes",
    )


def test_criterion_5_monogamy_identities():
    for n in range(2, 66, 2):
        assert monogamy_bound_exact(n, 0.5, 0.5) == 1.0
    for n, x in [(n, x) for n in (2, 8, 16, 64) for x in np.linspace(0.01, 1.0, 25)]:
        exact = monogamy_bound_exact(n, x / 2, x / 2)
        relaxed = monogamy_bound_relaxed(n, x / 2, x / 2)
        assert exact <= relaxed * (1 + 1e-12)
    hand = (1 + 4 * (1 / 8) + (1 / 8) ** 2) / 6
    assert abs(monogamy_bound_exact(4, 1 / 16, 1 / 16) - hand) <= 1e-12
    report(
        5,
        "Vandermonde point exactly 1 for N in {2..64}; exact <= relaxed on 100-point "
        f"grid; N=4 hand value matched to 1e-12 ({hand:.12f})",
    )


def test_criterion_6_tau_evaluation():
    value = tau(1000, 35, 0.4)
    assert abs(value - 930.0) <= 0.1
    report(6, f"tau(1000, 35, 0.4) = {value:.4f} within 930.0 +- 0.1")


def test_criterion_7_asymptotic_region():
    alphas = np.linspace(0.02, 2.0, 200)
    insecure = asymptotic_margin(alphas, 3.0)
    secure = asymptotic_margin(alphas, 4.0)
    assert np.all(insecure >= 0)
    assert np.any(secure < 0)
    report(
        7,
        f"margin >= 0 for all 200 grid alphas at r=3.0 (min {insecure.min():.4f}); "
        f"negative margin exists at r=4.0 (min {secure.min():.4f})",
    )


def test_criterion_8_eb_equivalence():
    rng = np.random.default_rng(1008)
    # 1e5 entanglement-derived offsets vs the key-generation sampler
    codec = REFERENCE.make_codec()
    key = key_gen(REFERENCE, rng)
    message = random_bits(REFERENCE.msg_len, rng)
    derived = np.concatenate(
        [
            eb_prepare(REFERENCE, key.pad, key.directions, message, rng, codec)[1]
            for _ in range(100)
        ]
    )
    direct = sample_key_offset(0.4, 3.4, rng, size=100_000)
    ks = ks_2samp(derived, direct)
    assert derived.size == 100_000
    assert ks.pvalue > 0.01

    ch = math.cosh(3.4)
    _, _, cipher = eb_prepare(REFERENCE, key.pad, key.directions, message, rng, codec)
    want = np.where(key.directions[:, None] == 0, [1 / ch, ch], [ch, 1 / ch])
    assert np.max(np.abs(cipher.cov_diag - want)) <= 1e-10

    accepted = 3000
    _, _, cond_cov, attempts = eb_rejection_oracle(3.4, 0.4, accepted, rng)
    assert np.max(np.abs(cond_cov - np.diag([1 / ch, ch]))) <= 1e-10
    sigma = math.sqrt(0.5 * ch)
    expected = float(erf(0.4 / (sigma * math.sqrt(2.0))))
    sd = math.sqrt(expected * (1 - expected) / attempts)
    assert abs(accepted / attempts - expected) <= 5 * sd
    report(
        8,
        f"KS p = {ks.pvalue:.3f} on 1e5 offsets; conditional covariance within 1e-10; "
        f"acceptance ratio {accepted / attempts:.4f} vs {expected:.4f} within 5 sigma",
    )


def test_criterion_9_attack_harness():
    rng = np.random.default_rng(1009)
    params = ProtocolParams(500, 1000, 35, 0.4, 3.4)
    outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 1000, rng)
    snr = 2 * 0.4**2 / (1 + 1 / math.cosh(3.4))
    want = 0.5 * erfc(math.sqrt(snr / 2))
    bits = 1000 * params.num_modes
    sd = math.sqrt(want * (1 - want) / bits)
    assert bits >= 10**6
    assert abs(outcome.per_bit_error_rates[0] - want) <= 5 * sd
    assert abs(outcome.per_bit_error_rates[1] - want) <= 5 * sd

    checks = []
    grids = [
        (ProtocolParams(16, 64, 6, 0.4, 3.4), 2000),      # bound vacuous (=1)
        (ProtocolParams(32, 32, 0, 0.25, 3.4), 4000),     # bound ~ 1.7e-2
    ]
    strategies = ("heterodyne_split", "forward_to_bob", "measure_guess_basis")
    # one seed per (grid, strategy) pair, in this fixed order
    for i, ((game_params, trials), strategy_id) in enumerate(itertools.product(grids, strategies)):
        game = run_cloning_game(
            game_params, make_strategy(strategy_id), trials,
            np.random.default_rng(np.random.SeedSequence(1009, spawn_key=(i,))),
        )
        check = check_against_bound(game, game_params)
        assert check.holds, (strategy_id, game_params, check)
        checks.append(check)
    assert any(not c.vacuous for c in checks)
    report(
        9,
        f"heterodyne per-bit error {outcome.per_bit_error_rates[0]:.5f} vs analytic "
        f"{want:.5f} at 1e6 modes; win-rate upper confidence below the bound for "
        f"{len(checks)} strategy/parameter pairs (incl. non-vacuous bounds)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    base = {
        "protocol": {
            "msg_len": 16,
            "num_modes": 32,
            "max_errors": 2,
            "alpha": 0.4,
            "squeezing": 3.4,
        },
        "seed": 1010,
        "trials": 300,
        "format": "csv",
    }
    cases = {
        "keygen": {},
        "roundtrip": {},
        "bounds": {"figure": "fig4", "grid": {"msg_len": [50, 500, 10]}},
        "attack": {"strategy": "measure_guess_basis", "trials": 150},
        "ebcheck": {"trials": 25, "rejection_samples": 150},
    }
    for command, extra in cases.items():
        raw = json.loads(json.dumps(base))
        raw.update(extra)
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(raw))
        first = tmp_path / f"{command}.first"
        second = tmp_path / f"{command}.second"
        assert main([command, str(config), "--out", str(first)]) == 0
        assert main([command, str(config), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), command
    report(10, "all five subcommands byte-identical across reruns at fixed seed")
