import math
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import binom, chi2_contingency, multivariate_normal, norm

from cvue import adversary
from cvue.adversary import (
    STRATEGY_IDS,
    check_against_bound,
    make_strategy,
    run_cloning_game,
    split_flip_probs,
)
from cvue.bounds import tau, win_prob_bound
from cvue.codec import random_bits
from cvue.config import load_config
from cvue.protocol import (
    MAX_SQUEEZING,
    CipherState,
    ProtocolParams,
    encrypt,
    key_gen,
    run_round_trip,
)
from cvue.reference import (
    apply_beamsplitter,
    cipher_modes,
    decode_half,
    heterodyne_split,
    noise_forward_to_bob,
    noise_heterodyne_split,
    noise_measure_guess_basis,
    tensor,
    vacuum_state,
)
from cvue.stats import two_proportion_ztest

TINY = ProtocolParams(4, 8, 1, 0.4, 3.4)


def heterodyne_bit_error(alpha, squeezing):
    # independent oracle from the attack's signal-to-noise ratio 2a^2/(1 + 1/cosh r):
    # error = erfc(sqrt(SNR/2)) / 2
    snr = 2 * alpha**2 / (1 + 1 / math.cosh(squeezing))
    return 0.5 * erfc(math.sqrt(snr / 2))


def split_flip_probs_exact(alpha, squeezing):
    """(one-port, both-port) flip probabilities of the beamsplitter attack from
    scipy's normal and bivariate-normal CDFs.

    Per mode the two players' centered outcomes are bivariate normal with
    variance (1/cosh r + 1)/4 each and covariance (1/cosh r - 1)/4.
    """
    # cell probabilities from the splitter construction: centered outcomes are
    # w_b = (x + v)/sqrt2, w_c = (x - v)/sqrt2 with x ~ N(alpha, 1/(2 cosh r)), v ~ N(0, 1/2)
    scale = math.sqrt(0.5)
    mean = [alpha * scale, alpha * scale]
    vx = 1 / (2 * math.cosh(squeezing))
    var_b = (vx + 0.5) / 2
    cov_bc = (vx - 0.5) / 2
    p11 = float(
        multivariate_normal.cdf(
            [0.0, 0.0], mean=mean, cov=[[var_b, cov_bc], [cov_bc, var_b]]
        )
    )
    p_single = float(norm.cdf(-mean[0] / math.sqrt(var_b)))
    return p_single, p11


def heterodyne_joint_win_exact(params):
    """Exact winning probability of the beamsplitter attack on small instances.

    The win needs both error counts to stay within the budget, summed over the
    multinomial distribution of the four per-bit outcomes.
    """
    n, t = params.num_modes, params.max_errors
    p_single, p11 = split_flip_probs_exact(params.alpha, params.squeezing)
    p10 = p_single - p11
    p01 = p_single - p11
    p00 = 1 - p10 - p01 - p11
    total = 0.0
    for n11 in range(t + 1):
        for n10 in range(t + 1 - n11):
            for n01 in range(t + 1 - n11):
                n00 = n - n11 - n10 - n01
                if n00 < 0:
                    continue
                coeff = comb(n, n11) * comb(n - n11, n10) * comb(n - n11 - n10, n01)
                total += coeff * p11**n11 * p10**n10 * p01**n01 * p00**n00
    return total


class TestSplitFlipProbs:
    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.4, 1.0, 2.5])
    @pytest.mark.parametrize("squeezing", [0.0, 0.3, 1.0, 2.0, 3.4, 6.0, 12.0])
    def test_matches_bivariate_normal_cdf(self, alpha, squeezing):
        p, p11 = split_flip_probs(alpha, squeezing)
        p_want, p11_want = split_flip_probs_exact(alpha, squeezing)
        assert abs(p - p_want) < 1e-9
        assert abs(p11 - p11_want) < 1e-9

    @pytest.mark.parametrize("alpha", [1e-12, 0.4, 1e300])
    @pytest.mark.parametrize("squeezing", [0.0, 3.4, MAX_SQUEEZING])
    def test_finite_and_feasible_at_extremes(self, alpha, squeezing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, p11 = split_flip_probs(alpha, squeezing)
        assert math.isfinite(p) and math.isfinite(p11)
        assert 0.0 <= p <= 0.5
        assert max(0.0, 2 * p - 1) <= p11 <= p
        params = ProtocolParams(2, 8, 1, alpha, squeezing)
        for strategy_id in STRATEGY_IDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bob, charlie = make_strategy(strategy_id)(params, 50, np.random.default_rng(24))
            assert 0 <= bob.min() and bob.max() <= 8 and 0 <= charlie.min() and charlie.max() <= 8

    def test_feasible_across_grid(self):
        # Phi(h) - 2 T(h, sqrt cosh r) rounds an ulp below 0 at strong
        # squeezing, e.g. alpha 0.0685, r 12.5; the clip keeps it a probability
        for alpha in np.geomspace(1e-12, 40.0, 60):
            for squeezing in np.linspace(0.0, 40.0, 81):
                p, p11 = split_flip_probs(float(alpha), float(squeezing))
                assert max(0.0, 2 * p - 1) <= p11 <= p
        params = ProtocolParams(4, 16, 2, 0.06847614692913304, 12.5)
        bob, charlie = make_strategy("heterodyne_split")(params, 100, np.random.default_rng(23))
        assert np.all(charlie <= params.num_modes)

    def test_unsqueezed_ports_flip_independently(self):
        # r = 0: the ports' noises are uncorrelated, so p11 = p^2
        for alpha in (1e-12, 0.1, 0.4, 2.0):
            p, p11 = split_flip_probs(alpha, 0.0)
            assert math.isclose(p11, p * p, rel_tol=1e-12)

    def test_one_port_is_the_heterodyne_bit_error(self):
        for alpha, squeezing in ((0.4, 3.4), (0.1, 1.0), (1.5, 7.0)):
            p, _ = split_flip_probs(alpha, squeezing)
            assert math.isclose(p, heterodyne_bit_error(alpha, squeezing), rel_tol=1e-12)


SHIPPED_DIR = Path(adversary.__file__).resolve().parents[2] / "configs"
port_flip_prob = adversary._port_flip_prob


class TestFlipLawCache:
    @pytest.mark.parametrize("path", sorted(SHIPPED_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_cached_values_are_the_computed_ones(self, path):
        params = load_config(path).protocol
        alpha, r = params.alpha, params.squeezing
        for _ in range(2):  # a miss, then a hit
            assert split_flip_probs(alpha, r) == split_flip_probs.__wrapped__(alpha, r)
            cosh_r = math.cosh(r)
            assert port_flip_prob(alpha, cosh_r) == port_flip_prob.__wrapped__(alpha, cosh_r)

    @pytest.mark.parametrize(
        "strategy_id,cached",
        [("heterodyne_split", split_flip_probs), ("measure_guess_basis", port_flip_prob)],
    )
    def test_second_game_hits_the_cache(self, strategy_id, cached):
        strategy = make_strategy(strategy_id)
        run_cloning_game(TINY, strategy, 10, np.random.default_rng(1))
        hits = cached.cache_info().hits
        run_cloning_game(TINY, strategy, 10, np.random.default_rng(2))
        assert cached.cache_info().hits > hits

    def test_invalid_alpha_raises_every_call(self):
        # lru_cache keeps no exception, so a bad input never becomes a cached value
        for _ in range(2):
            with pytest.raises(ValueError, match="alpha"):
                split_flip_probs(math.nan, 3.4)


def _joint_count_table(fast, slow, num_modes):
    """2 x K table of (bob, charlie) pair counts from two samples; pairs the
    pooled sample sees fewer than 10 times share one bin."""
    codes = [bob * (num_modes + 1) + charlie for bob, charlie in (fast, slow)]
    size = (num_modes + 1) ** 2
    table = np.array([np.bincount(c, minlength=size) for c in codes])
    pooled = table.sum(axis=0)
    rare = pooled < 10
    return np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])


class TestKernelsMatchGaussianNoise:
    """Each flip-count kernel against its (block, N) Gaussian-noise oracle in
    cvue.reference: a chi-square test of homogeneity on joint counts."""

    @pytest.mark.parametrize(
        "strategy_id, oracle",
        [
            ("heterodyne_split", noise_heterodyne_split),
            ("forward_to_bob", noise_forward_to_bob),
            ("measure_guess_basis", noise_measure_guess_basis),
        ],
    )
    @pytest.mark.parametrize(
        "params",
        [ProtocolParams(4, 16, 2, 0.4, 1.0), ProtocolParams(4, 16, 2, 0.4, 3.4)],
        ids=["r1", "r3.4"],
    )
    def test_joint_counts_match_noise_kernel(self, strategy_id, oracle, params):
        trials = 20_000
        fast = make_strategy(strategy_id)(params, trials, np.random.default_rng(21))
        slow = oracle(params, trials, np.random.default_rng(22))
        for counts in (*fast, *slow):
            assert counts.shape == (trials,)
        table = _joint_count_table(fast, slow, params.num_modes)
        assert table.shape[1] > 5
        assert chi2_contingency(table).pvalue > 1e-3


class TestHeterodyneSplit:
    def test_port_marginals(self):
        params = ProtocolParams(8, 16, 1, 0.4, 2.0)
        rng = np.random.default_rng(0)
        key = key_gen(params, rng)
        cipher = encrypt(key, random_bits(8, rng), params, params.make_codec())
        bob, charlie = heterodyne_split(cipher)
        assert np.allclose(bob.disp, cipher.disp / math.sqrt(2))
        assert np.allclose(charlie.disp, cipher.disp / math.sqrt(2))
        # measured variance per port is (1/2 + 1/(2 cosh r))/2 on the squeezed axis
        ch = math.cosh(2.0)
        for i in range(16):
            axis = int(key.directions[i])
            got = bob.cov_diag[i, axis] / 2
            assert np.isclose(got, 0.5 * (0.5 + 1 / (2 * ch)))

    def test_matches_gaussian_beamsplitter(self):
        params = ProtocolParams(4, 8, 1, 0.4, 3.4)
        rng = np.random.default_rng(1)
        key = key_gen(params, rng)
        cipher = encrypt(key, random_bits(4, rng), params, params.make_codec())
        bob, charlie = heterodyne_split(cipher)
        for i, mode in enumerate(cipher_modes(cipher)):
            joint = apply_beamsplitter(tensor(vacuum_state(1), mode), (0, 1), 0.5)
            for port, half in ((0, bob), (1, charlie)):
                sl = slice(2 * port, 2 * port + 2)
                assert np.allclose(np.abs(joint.disp[sl]), np.abs(half.disp[i]))
                assert np.allclose(np.diag(joint.cov[sl, sl]), half.cov_diag[i])

    def test_vacuum_input_gives_vacua(self):
        cipher = CipherState(np.zeros((3, 2)), np.ones((3, 2)))
        bob, charlie = heterodyne_split(cipher)
        assert np.allclose(bob.cov_diag, 1.0)
        assert np.allclose(charlie.disp, 0.0)


class TestDecodeHalf:
    def test_per_bit_error_matches_snr_formula(self):
        alpha, r = 0.4, 3.4
        params = ProtocolParams(500, 1000, 35, alpha, r)
        rng = np.random.default_rng(2)
        outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 1000, rng)
        want = heterodyne_bit_error(alpha, r)
        n_bits = 1000 * params.num_modes
        sd = math.sqrt(want * (1 - want) / n_bits)
        assert abs(outcome["bit_error_bob"] - want) < 5 * sd
        assert abs(outcome["bit_error_charlie"] - want) < 5 * sd

    def test_strong_squeezing_limit(self):
        alpha = 0.4
        params = ProtocolParams(500, 1000, 35, alpha, 12.0)
        rng = np.random.default_rng(3)
        outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 300, rng)
        want = 0.5 * erfc(alpha)  # 1/cosh r -> 0
        sd = math.sqrt(want * (1 - want) / (300 * 1000))
        assert abs(outcome["bit_error_bob"] - want) < 5 * sd

    def test_vanishing_displacement_gives_coin_flip(self):
        params = ProtocolParams(100, 200, 10, 1e-9, 3.4)
        rng = np.random.default_rng(4)
        outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 500, rng)
        sd = math.sqrt(0.25 / (500 * 200))
        assert abs(outcome["bit_error_bob"] - 0.5) < 5 * sd

    def test_port_marginal_statistics(self):
        # the per-port sampling path (independent of the joint game path)
        # reproduces the same per-bit error law
        from cvue.protocol import QecmKey, measure_codeword

        alpha, r = 0.4, 3.4
        params = ProtocolParams(250, 500, 20, alpha, r)
        rng = np.random.default_rng(20)
        codec = params.make_codec()
        flips = 0
        modes = 0
        for _ in range(1000):
            key = key_gen(params, rng)
            message = random_bits(250, rng)
            cipher = encrypt(key, message, params, codec)
            truth = codec.encode(key.pad ^ message)
            bob, _ = heterodyne_split(cipher)
            port_key = QecmKey(key.pad, key.directions, key.offsets * math.sqrt(0.5))
            est = measure_codeword(port_key, bob, rng)
            flips += int(np.count_nonzero(est != truth))
            modes += params.num_modes
        want = heterodyne_bit_error(alpha, r)
        sd = math.sqrt(want * (1 - want) / modes)
        assert abs(flips / modes - want) < 5 * sd

    def test_decode_half_round_trip(self):
        # generous error budget: each player alone decodes reliably
        params = ProtocolParams(8, 64, 28, 0.4, 3.4)
        rng = np.random.default_rng(5)
        codec = params.make_codec()
        key = key_gen(params, rng)
        message = random_bits(8, rng)
        cipher = encrypt(key, message, params, codec)
        bob, _ = heterodyne_split(cipher)
        assert np.array_equal(decode_half(bob, key, params, codec, rng), message)

    def test_decode_half_failure_propagates(self):
        params = ProtocolParams(8, 64, 1, 0.4, 3.4)
        rng = np.random.default_rng(6)
        codec = params.make_codec()
        key = key_gen(params, rng)
        message = random_bits(8, rng)
        cipher = encrypt(key, message, params, codec)
        flipped = CipherState(-cipher.disp, cipher.cov_diag)  # every bit lands wrong
        assert decode_half(flipped, key, params, codec, rng) is None


class TestCloningGame:
    # the concrete set plays through a shortened BCH(15 -> 14, t=3) code
    @pytest.mark.parametrize(
        "params",
        [TINY, ProtocolParams(4, 14, 3, 0.4, 3.4, "concrete")],
        ids=["oracle", "concrete"],
    )
    def test_heterodyne_win_rate_matches_exact_oracle(self, params):
        rng = np.random.default_rng(7)
        outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 20_000, rng)
        exact = heterodyne_joint_win_exact(params)
        sd = math.sqrt(exact * (1 - exact) / outcome["trials"])
        assert abs(outcome["win_rate"] - exact) < 5 * sd

    def test_measure_guess_basis_win_rate(self):
        rng = np.random.default_rng(8)
        outcome = run_cloning_game(TINY, make_strategy("measure_guess_basis"), 20_000, rng)
        # identical records: win prob is a single player's success probability
        beta = heterodyne_bit_error(TINY.alpha, TINY.squeezing)
        exact = float(binom.cdf(TINY.max_errors, TINY.num_modes, beta))
        sd = math.sqrt(exact * (1 - exact) / outcome["trials"])
        assert abs(outcome["win_rate"] - exact) < 5 * sd
        assert outcome["successes_bob"] == outcome["successes_charlie"]

    def test_identical_copies_beat_independent_noise(self):
        # correlation structure matters: classical copying wins more often
        rng = np.random.default_rng(9)
        het = run_cloning_game(TINY, make_strategy("heterodyne_split"), 10_000, rng)
        copy = run_cloning_game(TINY, make_strategy("measure_guess_basis"), 10_000, rng)
        assert copy["wins"] > het["wins"]

    def test_forward_to_bob_win_rate(self):
        rng = np.random.default_rng(10)
        outcome = run_cloning_game(TINY, make_strategy("forward_to_bob"), 20_000, rng)
        beta = 0.014233207919441758
        p_bob = float(binom.cdf(1, 8, beta))
        exact = p_bob * 2.0**-4  # Charlie guesses 4 bits blind
        sd = math.sqrt(exact * (1 - exact) / outcome["trials"])
        assert abs(outcome["win_rate"] - exact) < 5 * sd

    def test_forward_bob_matches_honest_round_trip(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        rng = np.random.default_rng(11)
        outcome = run_cloning_game(params, make_strategy("forward_to_bob"), 10_000, rng)
        honest = run_round_trip(params, 100_000, np.random.default_rng(12))
        z, _ = two_proportion_ztest(
            outcome["trials"] - outcome["successes_bob"],
            outcome["trials"],
            honest["failures"],
            100_000,
        )
        assert abs(z) < 5

    def test_blind_guess_never_wins_at_long_messages(self):
        params = ProtocolParams(40, 80, 2, 0.4, 3.4)
        rng = np.random.default_rng(13)
        outcome = run_cloning_game(params, make_strategy("forward_to_bob"), 20_000, rng)
        assert outcome["wins"] == 0

    def test_marginal_error_symmetry(self):
        params = ProtocolParams(16, 64, 3, 0.4, 3.4)
        rng = np.random.default_rng(14)
        outcome = run_cloning_game(params, make_strategy("heterodyne_split"), 3000, rng)
        bits = 3000 * 64
        z, _ = two_proportion_ztest(
            round(outcome["bit_error_bob"] * bits),
            bits,
            round(outcome["bit_error_charlie"] * bits),
            bits,
        )
        assert abs(z) < 5

    def test_zero_trials(self):
        outcome = run_cloning_game(TINY, make_strategy("heterodyne_split"), 0,
                                   np.random.default_rng(15))
        assert outcome["trials"] == 0 and outcome["wins"] == 0
        assert (outcome["win_rate_low"], outcome["win_rate_high"]) == (0.0, 1.0)

    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_blocks_tally_the_strategy_draws(self, strategy_id, monkeypatch):
        # 50 trials in blocks of 7, ..., 7, 1 tally the counts the strategy
        # draws for those blocks, in order, from the same seed
        strategy = make_strategy(strategy_id)
        monkeypatch.setattr(adversary, "GAME_BLOCK", 7)
        outcome = run_cloning_game(TINY, strategy, 50, np.random.default_rng(16))
        rng = np.random.default_rng(16)
        blocks = [strategy(TINY, b, rng) for b in [7] * 7 + [1]]
        bob, charlie = (np.concatenate(player) for player in zip(*blocks))
        if strategy_id == "forward_to_bob":
            charlie_budget, charlie_bits = 0, TINY.msg_len
        else:
            charlie_budget, charlie_bits = TINY.max_errors, TINY.num_modes
        bob_ok, charlie_ok = bob <= TINY.max_errors, charlie <= charlie_budget
        assert outcome["wins"] == np.count_nonzero(bob_ok & charlie_ok)
        assert (outcome["successes_bob"], outcome["successes_charlie"]) == (
            np.count_nonzero(bob_ok), np.count_nonzero(charlie_ok)
        )
        assert (outcome["bit_error_bob"], outcome["bit_error_charlie"]) == (
            bob.sum() / (50 * TINY.num_modes), charlie.sum() / (50 * charlie_bits)
        )

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            make_strategy("teleport")
        assert set(STRATEGY_IDS) == {
            "heterodyne_split", "forward_to_bob", "measure_guess_basis"
        }


class TestBoundCheck:
    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_vacuous_bound_recorded(self, strategy_id):
        rng = np.random.default_rng(16)
        outcome = run_cloning_game(TINY, make_strategy(strategy_id), 2000, rng)
        check = check_against_bound(outcome, TINY)
        assert check["vacuous"]
        assert check["win_bound"] == 1.0
        assert check["holds"]

    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_non_vacuous_bound_holds(self, strategy_id):
        # n = N, t = 0, small alpha: bound = 2^(tau - n) ~ 1.7e-2
        params = ProtocolParams(32, 32, 0, 0.25, 3.4)
        rng = np.random.default_rng(17)
        outcome = run_cloning_game(params, make_strategy(strategy_id), 4000, rng)
        check = check_against_bound(outcome, params)
        assert not check["vacuous"]
        assert check["win_bound"] == win_prob_bound(32, tau(32, 0, 0.25))
        assert check["holds"]
        assert check["slack"] > 0
