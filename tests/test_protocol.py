import hashlib
import math
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2_contingency, chisquare, norm

from cvue import protocol
from cvue.bounds import ber_analytic, exact_failure
from cvue.channel import ChannelParams, noisy_ber
from cvue.codec import random_bits
from cvue.protocol import (
    CipherState,
    ProtocolParams,
    QecmKey,
    balanced_string_rank,
    decrypt,
    encrypt,
    key_gen,
    measure_codeword,
    run_round_trip,
    sample_key_offset,
)
from cvue.reference import (
    Quadrature,
    balanced_string_unrank,
    cipher_modes,
    homodyne_sample,
    run_round_trip_binomial,
    run_round_trip_states,
    validate_key,
)
from cvue.stats import two_proportion_ztest

REFERENCE = ProtocolParams(892, 1000, 35, 0.4, 3.4)
SMALL = ProtocolParams(16, 32, 2, 0.4, 3.4)
# two-sided 5-sigma normal mass
TAIL = math.erfc(5 / math.sqrt(2))


def assert_count_fits(count, trials, p):
    # an exact binomial tail no likelier than a 5-sigma deviation, either side
    assert binom.cdf(count, trials, p) > TAIL / 2
    assert binom.sf(count - 1, trials, p) > TAIL / 2


def truncated_sd(alpha, r):
    # closed-form standard deviation of N(0, cosh(r) tanh^2(r)/2) on (-a tanh r, a tanh r)
    sigma = math.sqrt(0.5 * math.cosh(r)) * math.tanh(r)
    c = alpha * math.tanh(r) / sigma
    mass = 2 * norm.cdf(c) - 1
    return sigma * math.sqrt(1 - 2 * c * norm.pdf(c) / mass)


class TestParams:
    def test_odd_num_modes_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ProtocolParams(8, 15, 2, 0.4, 3.4)

    def test_alpha_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            ProtocolParams(8, 16, 2, 0.0, 3.4)

    def test_squeezing_nonnegative(self):
        with pytest.raises(ValueError, match="squeezing"):
            ProtocolParams(8, 16, 2, 0.4, -1.0)

    def test_codec_errors_propagate(self):
        with pytest.raises(ValueError, match="num_modes/2"):
            ProtocolParams(8, 16, 8, 0.4, 3.4)


class TestKeyOffsets:
    def test_samples_inside_open_interval(self):
        rng = np.random.default_rng(0)
        alpha, r = 0.4, 3.4
        k = sample_key_offset(alpha, r, rng, size=1_000_000)
        assert np.all(np.abs(k) < alpha * math.tanh(r))

    def test_moments_match_truncated_normal(self):
        rng = np.random.default_rng(1)
        alpha, r = 0.4, 3.4
        k = sample_key_offset(alpha, r, rng, size=1_000_000)
        sd = truncated_sd(alpha, r)
        assert abs(k.mean()) < 5 * sd / math.sqrt(k.size)
        # delta-method error for the sd of a (near-uniform) bounded sample
        assert abs(k.std() - sd) < 5 * sd / math.sqrt(k.size)

    def test_zero_squeezing_returns_zero(self):
        rng = np.random.default_rng(2)
        assert sample_key_offset(0.4, 0.0, rng) == 0.0
        assert np.all(sample_key_offset(0.4, 0.0, rng, size=5) == 0.0)

    def test_scalar_form(self):
        rng = np.random.default_rng(3)
        value = sample_key_offset(0.4, 3.4, rng)
        assert isinstance(value, float)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_key_offset(-1.0, 3.4, rng)
        with pytest.raises(ValueError):
            sample_key_offset(0.4, -0.1, rng)


class TestBalancedStrings:
    def test_exhaustive_bijection(self):
        length = 8
        seen = set()
        for ones in combinations(range(length), length // 2):
            bits = np.zeros(length, dtype=np.uint8)
            bits[list(ones)] = 1
            label = balanced_string_rank(bits)
            assert np.array_equal(balanced_string_unrank(label, length), bits)
            seen.add(label)
        assert seen == set(range(comb(length, length // 2)))

    def test_rank_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20)  :
            bits = np.zeros(1000, dtype=np.uint8)
            bits[rng.choice(1000, 500, replace=False)] = 1
            positions = np.flatnonzero(bits)
            direct = sum(comb(int(p), i + 1) for i, p in enumerate(positions))
            assert balanced_string_rank(bits) == direct

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda k: st.permutations([1] * k + [0] * k)))
    def test_unrank_inverts_rank(self, ones_and_zeros):
        bits = np.array(ones_and_zeros, dtype=np.uint8)
        label = balanced_string_rank(bits)
        assert 0 <= label < comb(bits.size, bits.size // 2)
        assert np.array_equal(balanced_string_unrank(label, bits.size), bits)

    @pytest.mark.parametrize("length", [2, 8, 64, 1000])
    def test_smallest_and_largest_labels(self, length):
        # colex order: the ones sit lowest at label 0 and highest at the last label
        half = length // 2
        lowest = np.array([1] * half + [0] * half, dtype=np.uint8)
        last = comb(length, half) - 1
        assert np.array_equal(balanced_string_unrank(0, length), lowest)
        assert np.array_equal(balanced_string_unrank(last, length), lowest[::-1])
        assert balanced_string_rank(lowest) == 0
        assert balanced_string_rank(lowest[::-1]) == last

    def test_unrank_range_check(self):
        with pytest.raises(ValueError, match="range"):
            balanced_string_unrank(comb(8, 4), 8)


class TestKeyGen:
    def test_weight_exactly_half(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            key = key_gen(SMALL, rng)
            assert int(key.directions.sum()) == SMALL.num_modes // 2

    def test_label_matches_directions(self):
        rng = np.random.default_rng(7)
        key = key_gen(REFERENCE, rng)
        assert balanced_string_rank(key.directions) == key.label
        assert np.array_equal(
            balanced_string_unrank(key.label, REFERENCE.num_modes), key.directions
        )

    def test_balanced_string_uniformity(self):
        # every one of the C(8,4)=70 strings occurs with frequency 1/70
        params = ProtocolParams(4, 8, 1, 0.4, 3.4)
        rng = np.random.default_rng(8)
        draws = 100_000
        counts = np.zeros(70, dtype=int)
        for _ in range(draws):
            counts[key_gen(params, rng).label] += 1
        expected = draws / 70
        sd = math.sqrt(draws * (1 / 70) * (69 / 70))
        assert np.all(np.abs(counts - expected) < 5 * sd)
        assert chisquare(counts).pvalue > 0.01

    def test_pad_bits_unbiased(self):
        params = ProtocolParams(16, 16, 1, 0.4, 3.4)
        rng = np.random.default_rng(9)
        draws = 20_000
        totals = np.zeros(16)
        for _ in range(draws):
            totals += key_gen(params, rng).pad
        sd = math.sqrt(draws * 0.25)
        assert np.all(np.abs(totals - draws / 2) < 5 * sd)

    def test_offsets_inside_interval(self):
        rng = np.random.default_rng(10)
        key = key_gen(REFERENCE, rng)
        bound = REFERENCE.alpha * math.tanh(REFERENCE.squeezing)
        assert np.all(np.abs(key.offsets) < bound)
        validate_key(key, REFERENCE)

    @pytest.mark.parametrize("squeezing", [60.0, 70.0, 80.0, 700.0])
    def test_offsets_distinct_and_inside_at_large_squeezing(self, squeezing):
        # the window is some 1e-13 to 1e-152 of the normal's width here
        params = ProtocolParams(16, 64, 6, 0.4, squeezing)
        key = key_gen(params, np.random.default_rng(11))
        bound = params.alpha * math.tanh(squeezing)
        assert np.unique(key.offsets).size == params.num_modes
        assert np.all(np.abs(key.offsets) < bound)

    def test_zero_squeezing_warns_and_zeroes_offsets(self):
        params = ProtocolParams(8, 16, 2, 0.4, 0.0)
        rng = np.random.default_rng(11)
        with pytest.warns(UserWarning, match="zero squeezing"):
            key = key_gen(params, rng)
        assert np.all(key.offsets == 0.0)

    def test_unbalanced_key_rejected(self):
        with pytest.raises(ValueError, match="Hamming weight"):
            QecmKey(np.zeros(4, dtype=np.uint8), np.array([1, 1, 1, 0], dtype=np.uint8),
                    np.zeros(4))

    def test_validate_key_catches_out_of_interval_offsets(self):
        rng = np.random.default_rng(13)
        key = key_gen(SMALL, rng)
        bad = np.array(key.offsets)
        bad[0] = SMALL.alpha  # outside (-a tanh r, a tanh r)
        tampered = QecmKey(key.pad, key.directions, bad)
        with pytest.raises(ValueError, match="truncation interval"):
            validate_key(tampered, SMALL)


def crafted_key(params, codeword_bits, directions, offsets):
    """Key whose oracle-codec codeword equals codeword_bits for message=codeword_bits[:n]."""
    return QecmKey(
        np.zeros(params.msg_len, dtype=np.uint8),
        np.asarray(directions, dtype=np.uint8),
        np.asarray(offsets, dtype=float),
    )


class TestEncrypt:
    def test_mode_descriptors_bit0_qdirection(self):
        params = ProtocolParams(2, 4, 1, 0.4, 3.4)
        key = crafted_key(params, None, [0, 0, 1, 1], [0.1, 0.0, 0.0, 0.0])
        message = np.array([0, 0], dtype=np.uint8)  # codeword 0000
        cipher = encrypt(key, message, params, params.make_codec())
        ch = math.cosh(3.4)
        assert np.allclose(cipher.disp[0], [0.4 + 0.1, 0.0])
        assert np.allclose(cipher.cov_diag[0], [1 / ch, ch])

    def test_mode_descriptors_bit1_pdirection(self):
        params = ProtocolParams(2, 4, 1, 0.4, 3.4)
        key = crafted_key(params, None, [1, 1, 0, 0], [-0.05, 0.0, 0.0, 0.0])
        message = np.array([1, 0], dtype=np.uint8)  # codeword 1000
        cipher = encrypt(key, message, params, params.make_codec())
        ch = math.cosh(3.4)
        assert np.allclose(cipher.disp[0], [0.0, -0.4 - 0.05])
        assert np.allclose(cipher.cov_diag[0], [ch, 1 / ch])

    def test_zero_squeezing_gives_displaced_vacua(self):
        params = ProtocolParams(2, 4, 1, 0.4, 0.0)
        key = crafted_key(params, None, [0, 1, 0, 1], [0.0] * 4)
        cipher = encrypt(key, np.array([1, 1], dtype=np.uint8), params, params.make_codec())
        assert np.allclose(cipher.cov_diag, 1.0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(14)
        key = key_gen(SMALL, rng)
        with pytest.raises(ValueError, match="length"):
            encrypt(key, np.zeros(5, dtype=np.uint8), SMALL, SMALL.make_codec())

    @pytest.mark.parametrize(
        "params",
        [ProtocolParams(4, 8, 1, 0.4, 3.4), ProtocolParams(4, 14, 3, 0.4, 3.4, "concrete")],
        ids=["oracle", "concrete"],
    )
    @pytest.mark.parametrize(
        "bad", [[2, 0, 3, 1], [0.5, 0, 1, 1], [-1, 0, 1, 1], [math.nan, 0, 1, 1]]
    )
    def test_non_binary_message_rejected(self, params, bad):
        key = key_gen(params, np.random.default_rng(16))
        with pytest.raises(ValueError, match="bits"):
            encrypt(key, np.array(bad), params, params.make_codec())
        # booleans and 0/1 floats are bits
        encrypt(key, np.array([True, False, True, True]), params, params.make_codec())
        encrypt(key, np.array([1.0, 0.0, 0.0, 1.0]), params, params.make_codec())

    def test_cipherstate_mode_accessor(self):
        rng = np.random.default_rng(15)
        key = key_gen(SMALL, rng)
        cipher = encrypt(key, random_bits(16, rng), SMALL, SMALL.make_codec())
        modes = cipher_modes(cipher)
        assert len(modes) == 32
        state = modes[3]
        assert state.num_modes == 1
        assert np.allclose(np.diag(state.cov), cipher.cov_diag[3])

    def test_cipherstate_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CipherState(np.zeros((2, 2)), np.array([[1.0, -1.0], [1.0, 1.0]]))


class TestDecrypt:
    def test_key_and_cipher_mode_counts_must_match(self):
        # a shorter key would otherwise index only the cipher's first modes
        rng = np.random.default_rng(20)
        cipher = encrypt(key_gen(SMALL, rng), random_bits(16, rng), SMALL, SMALL.make_codec())
        short = key_gen(ProtocolParams(8, 16, 2, 0.4, 3.4), rng)
        for key in (short, key_gen(REFERENCE, rng)):
            with pytest.raises(ValueError, match="mode count"):
                measure_codeword(key, cipher, rng)

    def test_threshold_sign_convention(self):
        # outcome above threshold -> bit 0; below -> bit 1; tiny variance pins it
        params = ProtocolParams(2, 4, 1, 0.3, 18.0)
        offsets = [0.1, -0.2, 0.0, 0.05]
        key = crafted_key(params, None, [0, 1, 0, 1], offsets)
        disp = np.zeros((4, 2))
        for i, (d, k) in enumerate(zip(key.directions, offsets)):
            disp[i, d] = k + (0.3 if i % 2 == 0 else -0.3)
        cov = np.full((4, 2), 1e-12)
        rng = np.random.default_rng(16)
        bits = measure_codeword(key, CipherState(disp, cov), rng)
        assert bits.tolist() == [0, 1, 0, 1]

    def test_round_trip_noiseless(self):
        rng = np.random.default_rng(17)
        codec = SMALL.make_codec()
        for _ in range(50):
            key = key_gen(SMALL, rng)
            message = random_bits(SMALL.msg_len, rng)
            cipher = encrypt(key, message, SMALL, codec)
            out = decrypt(key, cipher, SMALL, codec, rng)
            # with beta=0.0142 and t=2 an occasional failure is legitimate
            assert out is None or out.shape == message.shape

    def test_concrete_codec_end_to_end(self):
        # shortened BCH (30, 15, t=3): the protocol needs an even mode count
        params = ProtocolParams(15, 30, 3, 0.4, 3.6, codec_scheme="concrete")
        rng = np.random.default_rng(18)
        codec = params.make_codec()
        ok = 0
        for _ in range(100):
            key = key_gen(params, rng)
            message = random_bits(15, rng)
            cipher = encrypt(key, message, params, codec)
            out = decrypt(key, cipher, params, codec, rng)
            ok += out is not None and np.array_equal(out, message)
        # failure prob = P[Bin(30, 0.0077) > 3] ~ 1e-4
        assert ok >= 98

    def test_outcome_moments_given_key(self):
        # homodyne outcome along the keyed axis: mean alpha(-1)^c + k, var 1/(2 cosh r)
        params = ProtocolParams(2, 4, 1, 0.4, 3.4)
        offsets = [0.15, -0.3, 0.05, 0.0]
        key = crafted_key(params, None, [0, 1, 1, 0], offsets)
        message = np.array([1, 0], dtype=np.uint8)  # codeword 1000
        cipher = encrypt(key, message, params, params.make_codec())
        rng = np.random.default_rng(19)
        draws = 20_000
        mode = cipher_modes(cipher)[0]
        outs = np.array(
            [homodyne_sample(mode, 0, Quadrature.Q, rng)[0] for _ in range(draws)]
        )
        want_mean = -0.4 + 0.15
        want_var = 1 / (2 * math.cosh(3.4))
        assert abs(outs.mean() - want_mean) < 5 * math.sqrt(want_var / draws)
        assert abs(outs.var() - want_var) < 5 * want_var * math.sqrt(2 / draws)


# sha256 of the CipherState bytes (disp then cov_diag) and of the measured
# codeword bits for one message at seed 2400: (squeezing, codec) -> digests.
# The concrete rows run the paper-point BCH(1000, t 35) encoder, the oracle
# rows N = 64; every key holds both direction bits.
MESSAGE_SHA256 = {
    (6.0, "concrete"): ("6f113e43b49b870d0cdc6bc91afb1f675501b717ac6323ad489a278b20b97493",
                        "053f2f96276c96fade213a9c9a610534efa7be418eb91259b43103ddfc25e5e6"),
    (6.0, "oracle"): ("fd593e5d1e0d9cf98bfef1ff2ac0ef3c3821e240682c455c31895090838f60e3",
                      "a7d06feffc4d088d18fb5c36dbe90ed790279952107cad42965baf3ce3580e0d"),
    (3.4, "concrete"): ("4e6f1786b30c3c1562a209f64850642ea81bc0251359bea958cfd74ad4f15ce3",
                        "a9ed97229f507a3318318bed8d745423c99320917ed99e44db1ab080f180aca3"),
    (3.4, "oracle"): ("f46b4ffa0e5856f4d5a3c0e84b9a9a3903514ba6e48d3f4f44be5a67609ba785",
                      "d443e31357ec33ff4ea07203c1fda6bb46948257bde1f0d3b5fb730022da566a"),
    (2.6, "concrete"): ("34647ce5b0e5216c6cf746ef4c3649c2b63d0a9f3e794e7a5e4cabae15759726",
                        "125627963a877926c5877eff3d2cc61a6fe1bd519987c331e06d05ab43c538d5"),
    (2.6, "oracle"): ("813c88940716d8acb3af624751855510807d761573bf9182a615ea24eac815a9",
                      "403d14987d866e4568cfae7502945870c9fb883c714c1a458a57497e5a6c8eaf"),
}


@pytest.mark.parametrize("squeezing,scheme", sorted(MESSAGE_SHA256))
def test_encrypt_and_measure_bits_are_pinned(squeezing, scheme):
    k, n, t = (675, 1000, 35) if scheme == "concrete" else (16, 64, 6)
    params = ProtocolParams(k, n, t, 0.4, squeezing, scheme)
    rng = np.random.default_rng(2400)
    key = key_gen(params, rng)
    message = rng.integers(0, 2, k, dtype=np.uint8)
    cipher = encrypt(key, message, params, params.make_codec())
    bits = measure_codeword(key, cipher, rng)
    # every (direction, codeword bit) pair occurs, so the pins cover all four
    codeword = params.make_codec().encode(message)
    assert len(set(zip(key.directions.tolist(), codeword.tolist()))) == 4
    digests = (
        hashlib.sha256(cipher.disp.tobytes() + cipher.cov_diag.tobytes()).hexdigest(),
        hashlib.sha256(bits.tobytes()).hexdigest(),
    )
    assert digests == MESSAGE_SHA256[squeezing, scheme]


class TestRoundTrip:
    def test_fast_path_matches_reference(self):
        fast = run_round_trip(SMALL, 40_000, np.random.default_rng(20))
        slow = run_round_trip_states(SMALL, 4_000, np.random.default_rng(21))
        z_fail, _ = two_proportion_ztest(
            fast.failures, fast.trials, slow.failures, slow.trials
        )
        z_flip, _ = two_proportion_ztest(
            fast.mode_flips, fast.modes_total, slow.mode_flips, slow.modes_total
        )
        assert abs(z_fail) < 5
        assert abs(z_flip) < 5

    def test_flip_events_iid_across_modes(self):
        params = ProtocolParams(16, 64, 3, 0.4, 2.0)
        rng = np.random.default_rng(22)
        trials = 4000
        per_mode = np.zeros(64)
        codec = params.make_codec()
        for _ in range(trials):
            key = key_gen(params, rng)
            message = random_bits(16, rng)
            cipher = encrypt(key, message, params, codec)
            truth = codec.encode(key.pad ^ message)
            per_mode += measure_codeword(key, cipher, rng) != truth
        assert chisquare(per_mode).pvalue > 0.01

    def test_zero_squeezing_flip_rate(self):
        # degenerate displaced-vacuum regime: flip rate is erfc(alpha)/2
        params = ProtocolParams(100, 200, 10, 0.4, 0.0)
        result = run_round_trip(params, 5000, np.random.default_rng(31))
        want = 0.2858038224766658
        sd = math.sqrt(want * (1 - want) / result.modes_total)
        assert abs(result.flip_rate - want) < 5 * sd

    def test_strong_squeezing_never_flips(self):
        params = ProtocolParams(500, 1000, 35, 0.4, 10.0)
        assert protocol.trial_ber(params) == 0.0
        for trials in (1000, 10**12):
            result = run_round_trip(params, trials, np.random.default_rng(23))
            assert result.mode_flips == 0
            assert result.failures == 0

    def test_failure_rate_below_chernoff_bound(self):
        # moderate regime where failures actually occur
        from cvue.bounds import eps_df

        params = ProtocolParams(32, 64, 8, 0.4, 2.0)
        result = run_round_trip(params, 30_000, np.random.default_rng(24))
        assert result.failures > 0
        assert result.failure_rate <= eps_df(64, 8, 0.4, 2.0)

    def test_failures_match_exact_tail(self):
        params = ProtocolParams(32, 64, 8, 0.4, 2.0)
        result = run_round_trip(params, 30_000, np.random.default_rng(32))
        assert_count_fits(result.failures, result.trials, exact_failure(64, 8, ber_analytic(0.4, 2.0)))

    @pytest.mark.parametrize(
        "channel", [None, ChannelParams(0.9, 0.01)], ids=["identity", "lossy"]
    )
    def test_state_level_failures_match_exact_tail(self, channel):
        # ties the closed-form tail to homodyne outcomes of real cipherstates,
        # in a regime where a third or more of the trials fail
        params = ProtocolParams(15, 30, 3, 0.4, 2.2)
        result = run_round_trip_states(params, 2000, np.random.default_rng(33), channel=channel)
        beta = ber_analytic(0.4, 2.2) if channel is None else noisy_ber(0.4, 2.2, channel)
        assert_count_fits(result.failures, result.trials, exact_failure(30, 3, beta))

    @pytest.mark.parametrize("total", ["failures", "mode_flips"])
    def test_histogram_matches_per_trial_kernel(self, total):
        # about 29 % of the trials fail here; both samplers' totals over seeds
        # fall in the same bins, cut at the quantiles of the exact law
        params = ProtocolParams(15, 30, 3, 0.4, 2.4)
        trials, seeds = 500, 400
        fast = [getattr(run_round_trip(params, trials, np.random.default_rng(s)), total)
                for s in range(seeds)]
        slow = [getattr(run_round_trip_binomial(params, trials, np.random.default_rng(s)), total)
                for s in range(seeds, 2 * seeds)]
        beta = ber_analytic(0.4, 2.4)
        law = (binom(trials, exact_failure(30, 3, beta)) if total == "failures"
               else binom(trials * 30, beta))
        edges = np.unique(law.ppf(np.linspace(0.0, 1.0, 9)[1:-1]))
        table = [np.bincount(np.searchsorted(edges, x, side="right"), minlength=edges.size + 1)
                 for x in (fast, slow)]
        assert chi2_contingency(table).pvalue > 1e-3

    def test_deep_tail_point_in_1e12_trials(self):
        # the exact tail is ~2e-83: no failure in 1e12 trials, and the flip rate
        # resolves beta to 5 sigma of 1e15 modes; one draw per trial would take
        # about 35 hours
        params = ProtocolParams(892, 1000, 35, 0.4, 4.5)
        beta = ber_analytic(0.4, 4.5)
        assert exact_failure(1000, 35, beta) < 1e-30
        result = run_round_trip(params, 10**12, np.random.default_rng(35))
        assert result.failures == 0
        assert abs(result.flip_rate - beta) < 5 * math.sqrt(beta * (1 - beta) / result.modes_total)

    def test_tail_cells_keep_their_mass_at_the_largest_trial_count(self):
        # 9.2e15 trials expect 6.8e9 failures, resolved to 1.2e-5 relative: a
        # tail mass lost to rounding in the multinomial would show here
        trials = (2**63 - 1) // 1000
        result = run_round_trip(REFERENCE, trials, np.random.default_rng(36))
        assert_count_fits(result.failures, trials, exact_failure(1000, 35, ber_analytic(0.4, 3.4)))
        with pytest.raises(ValueError, match="2\\*\\*63"):
            run_round_trip(REFERENCE, trials + 1, np.random.default_rng(36))

    @pytest.mark.parametrize("num_modes, alpha, r", [(1000, 0.4, 3.4), (1000, 0.4, 0.0),
                                                     (32, 0.4, 3.4), (2, 0.4, 1.0),
                                                     (1000, 0.4, 8.0)])
    def test_flip_count_cells_are_the_binomial_pmf(self, num_modes, alpha, r):
        beta = ber_analytic(alpha, r)
        counts, masses = protocol.flip_count_cells(num_modes, beta)
        # ascending flip counts with the mode moved last, and no gap
        kept = np.sort(counts)
        assert np.all(np.diff(kept) == 1)
        assert masses[-1] == masses.max()
        assert np.array_equal(counts[:-1], kept[kept != counts[-1]])
        assert masses.min() >= protocol.FLIP_CELL_MASS
        np.testing.assert_allclose(masses, binom.pmf(counts, num_modes, beta), rtol=1e-11)
        dropped = binom.cdf(kept[0] - 1, num_modes, beta) + binom.sf(kept[-1], num_modes, beta)
        assert dropped <= (num_modes + 1) * protocol.FLIP_CELL_MASS
        assert not counts.flags.writeable and not masses.flags.writeable
        # numpy's multinomial draws cell j at masses[j] / (1 - masses[:j].sum()),
        # the mass left formed by subtraction; with the mode last it stays within
        # 1e-9 of the mass left summed from the last cell back, even for a cell
        # of 1e-60
        by_subtraction = 1.0 - np.concatenate(([0.0], np.cumsum(masses[:-1])))
        summed = np.cumsum(masses[::-1])[::-1]
        np.testing.assert_allclose(masses / by_subtraction, masses / summed, rtol=1e-9)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_round_trip(SMALL, -1, np.random.default_rng(37))

    def test_generous_error_budget_never_fails(self):
        params = ProtocolParams(8, 32, 15, 0.4, 3.4)
        result = run_round_trip(params, 5000, np.random.default_rng(25))
        assert result.failures == 0

    def test_zero_trials(self):
        rng = np.random.default_rng(26)
        state = rng.bit_generator.state
        result = run_round_trip(SMALL, 0, rng)
        assert result.trials == 0
        assert result.failure_rate == 0.0
        assert result.interval == (0.0, 1.0)
        assert result.mode_flips == result.failures == 0
        assert rng.bit_generator.state == state

    def test_oracle_and_bch_failure_rates_agree(self):
        # a bounded-distance decoder can never return the true message once
        # the flip count exceeds t, so both codecs fail on exactly the same
        # event and the two failure rates must agree statistically
        oracle = ProtocolParams(15, 30, 3, 0.4, 2.2, codec_scheme="oracle")
        concrete = ProtocolParams(15, 30, 3, 0.4, 2.2, codec_scheme="concrete")
        a = run_round_trip_states(oracle, 3000, np.random.default_rng(28))
        b = run_round_trip_states(concrete, 3000, np.random.default_rng(29))
        assert a.failures > 0  # regime chosen so failures actually happen
        z, _ = two_proportion_ztest(a.failures, a.trials, b.failures, b.trials)
        assert abs(z) < 5

    def test_measurement_path_matches_single_mode_sampler(self):
        # vectorized measurement vs per-mode homodyne_sample: same flip law
        params = ProtocolParams(16, 64, 3, 0.4, 2.0)
        rng = np.random.default_rng(30)
        codec = params.make_codec()
        flips_vec = flips_obj = 0
        modes = 0
        for _ in range(400):
            key = key_gen(params, rng)
            message = random_bits(16, rng)
            cipher = encrypt(key, message, params, codec)
            truth = codec.encode(key.pad ^ message)
            flips_vec += int(np.count_nonzero(measure_codeword(key, cipher, rng) != truth))
            outcomes = np.array(
                [
                    homodyne_sample(mode, 0, Quadrature(int(d)), rng)[0]
                    for mode, d in zip(cipher_modes(cipher), key.directions)
                ]
            )
            bits = (outcomes - key.offsets < 0).astype(np.uint8)
            flips_obj += int(np.count_nonzero(bits != truth))
            modes += params.num_modes
        z, _ = two_proportion_ztest(flips_vec, modes, flips_obj, modes)
        assert abs(z) < 5

    def test_deterministic_given_seed(self):
        a = run_round_trip(SMALL, 5000, np.random.default_rng(27))
        b = run_round_trip(SMALL, 5000, np.random.default_rng(27))
        assert a == b
