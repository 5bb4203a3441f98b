import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import ks_2samp

from cvue import ebprep
from cvue.adversary import split_flip_probs
from cvue.bounds import tau
from cvue.codec import random_bits
from cvue.ebprep import (
    eb_outcomes,
    eb_rejection_oracle,
    game_equivalence_test,
)
from cvue.protocol import (
    ProtocolParams,
    QecmKey,
    encrypt,
    key_gen,
    sample_key_offset,
)
from cvue.reference import (
    Quadrature,
    condition_on_homodyne,
    eb_prepare,
    game_equivalence_states,
    homodyne_sample,
    noise_flips,
    two_mode_squeezed,
)
from cvue.stats import ks_test, two_proportion_ztest

REFERENCE = ProtocolParams(892, 1000, 35, 0.4, 3.4)


def acceptance_mass(alpha, squeezing):
    # normal mass of (-alpha, alpha) for N(0, cosh(r)/2)
    sigma = math.sqrt(0.5 * math.cosh(squeezing))
    return float(erf(alpha / (sigma * math.sqrt(2.0))))


class TestSampleEbMode:
    """Per-mode sampling of the challenger outcome, its offset and the
    conditional remote mode (eb_outcomes, eb_prepare)."""

    def test_conditional_covariance_exact(self):
        params = ProtocolParams(50, 100, 5, 0.4, 3.4)
        rng = np.random.default_rng(0)
        codec = params.make_codec()
        ch = math.cosh(3.4)
        for _ in range(100):
            key = key_gen(params, rng)
            _, _, cipher = eb_prepare(
                params, key.pad, key.directions, random_bits(50, rng), rng, codec
            )
            q_modes = key.directions == Quadrature.Q
            assert np.allclose(cipher.cov_diag[q_modes], [1 / ch, ch], atol=1e-14)
            assert np.allclose(cipher.cov_diag[~q_modes], [ch, 1 / ch], atol=1e-14)

    def test_outcome_inside_window(self):
        rng = np.random.default_rng(1)
        for sign in (1, -1):
            lo, hi = sign * 0.4 - 0.4, sign * 0.4 + 0.4
            u, _ = eb_outcomes(np.full(2000, sign), 0.4, 3.4, rng)
            assert np.all((lo < u) & (u < hi))

    def test_displacement_tracks_outcome(self):
        params = ProtocolParams(2, 4, 1, 0.3, 2.0)
        rng = np.random.default_rng(2)
        # zero pad, message 10 -> codeword 1000; mode 0 is a 1 bit (sign -1) along Q
        pad = np.zeros(2, dtype=np.uint8)
        directions = np.array([0, 0, 1, 1], dtype=np.uint8)
        message = np.array([1, 0], dtype=np.uint8)
        u, _, cipher = eb_prepare(params, pad, directions, message, rng, params.make_codec())
        want = -0.3 + (u[0] + 0.3) * math.tanh(2.0)
        assert np.isclose(cipher.disp[0, 0], want)

    def test_derived_offsets_match_keygen_distribution(self):
        # the two samplers draw from the same truncated normal
        rng = np.random.default_rng(3)
        draws = 100_000
        u, _ = eb_outcomes(np.ones(draws), 0.4, 3.4, rng)
        derived = (u - 0.4) * math.tanh(3.4)
        direct = sample_key_offset(0.4, 3.4, rng, size=draws)
        assert ks_2samp(derived, direct).pvalue > 0.01


class TestEbPrepare:
    def test_cipherstate_matches_direct_encryption_bit_exactly(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        rng = np.random.default_rng(4)
        codec = params.make_codec()
        key = key_gen(params, rng)
        message = random_bits(16, rng)
        _, offsets, cipher = eb_prepare(params, key.pad, key.directions, message, rng, codec)
        eb_key = QecmKey(key.pad, key.directions, offsets)
        direct = encrypt(eb_key, message, params, codec)
        assert np.array_equal(cipher.disp, direct.disp)
        assert np.array_equal(cipher.cov_diag, direct.cov_diag)

    def test_offsets_inside_truncation_interval(self):
        rng = np.random.default_rng(5)
        codec = REFERENCE.make_codec()
        key = key_gen(REFERENCE, rng)
        message = random_bits(REFERENCE.msg_len, rng)
        bound = REFERENCE.alpha * math.tanh(REFERENCE.squeezing)
        for _ in range(20):
            outcomes, offsets, _ = eb_prepare(
                REFERENCE, key.pad, key.directions, message, rng, codec
            )
            assert np.all(np.abs(offsets) < bound)
            assert np.all(np.abs(outcomes) < 2 * REFERENCE.alpha)

    @pytest.mark.parametrize(
        "params",
        [ProtocolParams(4, 8, 1, 0.4, 3.4), ProtocolParams(4, 14, 3, 0.4, 3.4, "concrete")],
        ids=["oracle", "concrete"],
    )
    @pytest.mark.parametrize("bad", [[2, 0, 3, 1], [0.5, 0, 1, 1], [-1, 0, 1, 1]])
    def test_non_binary_message_rejected(self, params, bad):
        rng = np.random.default_rng(7)
        key = key_gen(params, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="message bits must be 0 or 1"):
            eb_prepare(params, key.pad, key.directions, np.array(bad), rng, params.make_codec())
        assert rng.bit_generator.state == state  # refused before any sampling

    def test_zero_squeezing_rejected(self):
        params = ProtocolParams(8, 16, 2, 0.4, 0.0)
        rng = np.random.default_rng(6)
        with pytest.warns(UserWarning):
            key = key_gen(params, rng)
        with pytest.raises(ValueError, match="positive squeezing"):
            eb_prepare(params, key.pad, key.directions, random_bits(8, rng), rng,
                       params.make_codec())


class TestRejectionOracle:
    def test_conditional_matches_closed_form(self):
        # the remote mode each accepted outcome u leaves, from the pair's
        # covariance in the reference: diag(1/cosh r, cosh r), q mean
        # alpha + (u - alpha) tanh r
        rng = np.random.default_rng(7)
        ch = math.cosh(3.4)
        u, _ = eb_rejection_oracle(3.4, 0.4, 20, rng)
        state = two_mode_squeezed(3.4, np.array([0.4, 0.0, 0.4, 0.0]))
        for outcome in u:
            mode = condition_on_homodyne(state, 0, Quadrature.Q, outcome)
            assert np.allclose(mode.cov, np.diag([1 / ch, ch]), atol=1e-10)
            want = 0.4 + (outcome - 0.4) * math.tanh(3.4)
            assert np.allclose(mode.disp, [want, 0.0], atol=1e-10)

    @pytest.mark.parametrize("squeezing, samples", [(0.5, 200), (3.4, 50), (6.0, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_match_the_reference_homodyne_loop(self, squeezing, samples, seed):
        # the blocks are one stream of challenger homodyne draws (half of the
        # runs at r = 3.4 and 6 need a second block): the accepted outcomes
        # and the draws through the last are the reference's, one
        # homodyne_sample at a time, bit for bit
        u, attempts = eb_rejection_oracle(squeezing, 0.4, samples, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        state = two_mode_squeezed(squeezing, np.array([0.4, 0.0, 0.4, 0.0]))
        want, draws = [], 0
        while len(want) < samples:
            outcome, _ = homodyne_sample(state, 0, Quadrature.Q, rng)
            draws += 1
            if 0.0 < outcome < 0.8:
                want.append(outcome)
        assert u.tolist() == want
        assert attempts == draws

    def test_acceptance_ratio(self):
        rng = np.random.default_rng(8)
        accepted = 2000
        _, attempts = eb_rejection_oracle(3.4, 0.4, accepted, rng)
        want = acceptance_mass(0.4, 3.4)
        sd = math.sqrt(want * (1 - want) / attempts)
        assert abs(accepted / attempts - want) < 5 * sd
        # one sample per call: attempts counts the draws through the accepted
        # one, so it is geometric with mean 1/p
        calls = 4000
        tries = np.array([eb_rejection_oracle(3.4, 0.4, 1, rng)[1] for _ in range(calls)])
        assert tries.min() >= 1
        assert abs(tries.mean() - 1 / want) < 5 * math.sqrt((1 - want) / want**2 / calls)

    def test_distribution_matches_inverse_cdf_sampler(self):
        rng = np.random.default_rng(9)
        draws = 5000
        rejected_u = eb_rejection_oracle(3.4, 0.4, draws, rng)[0]
        direct_u, _ = eb_outcomes(np.ones(draws), 0.4, 3.4, rng)
        assert ks_2samp(rejected_u, direct_u).pvalue > 0.01

    def test_window_mass_keeps_its_accuracy_at_large_squeezing(self):
        # erf(alpha / sqrt(cosh r)), 2.71e-18 at r = 80; hi - lo of the CDF gave 0.0
        mass = ebprep.window_mass(80.0, 0.4)
        assert mass == pytest.approx(acceptance_mass(0.4, 80.0), rel=1e-14, abs=0)
        assert mass == pytest.approx(2.71e-18, rel=1e-3, abs=0)

    def test_validation(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="squeezing"):
            eb_rejection_oracle(0.0, 0.4, 10, rng)
        with pytest.raises(ValueError, match="alpha"):
            eb_rejection_oracle(3.4, 0.0, 10, rng)
        # a window too narrow to fill fails before drawing anything
        state = rng.bit_generator.state
        for squeezing in (40.0, 710.47):
            with pytest.raises(ValueError, match="squeezing"):
                eb_rejection_oracle(squeezing, 0.4, 20, rng)
        assert rng.bit_generator.state == state


class TestGameEquivalence:
    def test_candidate_reconstruction_and_range(self):
        params = ProtocolParams(16, 64, 3, 0.4, 3.4)
        report, _ = game_equivalence_test(params, 200, 2000, np.random.default_rng(10))
        # u = k/tanh(r) +- alpha holds to floating precision
        assert report["max_candidate_error"] < 1e-9 * params.alpha
        assert report["outcome_range_ok"]

    def test_flip_rates_agree(self):
        report, _ = game_equivalence_test(REFERENCE, 1000, 2000, np.random.default_rng(11))
        assert abs(report["z_statistic"]) < 5
        assert report["modes_per_trial"] == 1000
        assert report["trials"] == 1000

    def test_needs_trials(self):
        for trials, samples in ((0, 10), (10, 0)):
            with pytest.raises(ValueError):
                game_equivalence_test(REFERENCE, trials, samples, np.random.default_rng(12))

    @pytest.mark.parametrize(
        "params",
        [ProtocolParams(16, 32, 2, 0.4, 2.0), ProtocolParams(15, 30, 3, 0.4, 2.0, "concrete")],
        ids=["oracle", "concrete"],
    )
    def test_matches_object_loop(self, params):
        fast, _ = game_equivalence_test(params, 4000, 2000, np.random.default_rng(16))
        slow = game_equivalence_states(params, 1000, np.random.default_rng(17))
        fast_modes = fast["trials"] * fast["modes_per_trial"]
        slow_modes = slow["trials"] * slow["modes_per_trial"]
        for arm in ("flip_rate_direct", "flip_rate_eb"):
            fast_flips = round(fast[arm] * fast_modes)
            slow_flips = round(slow[arm] * slow_modes)
            z, _ = two_proportion_ztest(fast_flips, fast_modes, slow_flips, slow_modes)
            assert abs(z) < 5, arm
        assert slow["max_candidate_error"] < 1e-9 * params.alpha
        assert slow["outcome_range_ok"]

    @pytest.mark.parametrize("squeezing", [2.0, 3.4])
    def test_arms_match_the_per_mode_noise_count(self, squeezing):
        # the Binomial arms against noise_flips' per-mode count, 1.2e6 modes each
        params = ProtocolParams(892, 1000, 35, 0.4, squeezing)
        report, _ = game_equivalence_test(params, 1200, 10, np.random.default_rng(22))
        modes = report["trials"] * report["modes_per_trial"]
        oracle = noise_flips(params, modes, np.random.default_rng(23))
        for arm in ("flip_rate_direct", "flip_rate_eb"):
            flips = round(report[arm] * modes)
            z, _ = two_proportion_ztest(flips, modes, oracle, modes)
            assert abs(z) < 5, arm

    @pytest.mark.parametrize("trials", [1, 10**5])
    def test_one_draw_of_samples_modes(self, trials, monkeypatch):
        # the checks cost O(samples) whatever trials is: trials only sizes the flip arms
        shapes = []

        def counted(signs, alpha, squeezing, rng):
            shapes.append(signs.shape)
            return eb_outcomes(signs, alpha, squeezing, rng)

        monkeypatch.setattr(ebprep, "eb_outcomes", counted)
        report, sided = game_equivalence_test(REFERENCE, trials, 300, np.random.default_rng(24))
        assert shapes == [(300,)] and sided.shape == (300,)
        assert report["trials"] == trials and report["modes_per_trial"] == 1000

    def test_sided_outcomes_follow_the_bit_0_law(self, monkeypatch):
        # s u for uniform signs s, checked against the (0, 2 alpha) law that
        # cmd_ebcheck tests them on; both signs are drawn
        drawn = []

        def kept(signs, alpha, squeezing, rng):
            drawn.append(signs.copy())
            return eb_outcomes(signs, alpha, squeezing, rng)

        monkeypatch.setattr(ebprep, "eb_outcomes", kept)
        _, sided = game_equivalence_test(REFERENCE, 1, 5000, np.random.default_rng(25))
        assert set(drawn[0].tolist()) == {1.0, -1.0}
        assert np.all((0.0 < sided) & (sided < 2.0 * REFERENCE.alpha))
        assert ebprep.outcome_ks(sided, REFERENCE.squeezing, REFERENCE.alpha)[1] > 0.01

    @staticmethod
    def run_with_draw_changed(params, change, seed):
        """game_equivalence_test on one draw of 64 outcomes, with
        ``change(signs, outcomes, offsets)`` applied to it before the checks."""

        def changed(signs, alpha, squeezing, rng):
            outcomes, offsets = eb_outcomes(signs, alpha, squeezing, rng)
            change(signs, outcomes, offsets)
            return outcomes, offsets

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ebprep, "eb_outcomes", changed)
            report, _ = game_equivalence_test(params, 10, 64, np.random.default_rng(seed))
        return report

    @pytest.mark.parametrize("which", ["first", "last"])
    def test_misderived_offsets_are_seen(self, which):
        # the first or the last offset 1e-6 off: u = k/tanh(r) +- alpha fails
        def skew(signs, outcomes, offsets):
            offsets[0 if which == "first" else -1] += 1e-6

        params = ProtocolParams(16, 64, 3, 0.4, 3.4)
        report = self.run_with_draw_changed(params, skew, 19)
        assert report["max_candidate_error"] > 1e-9
        assert report["outcome_range_ok"]

    @pytest.mark.parametrize("edge", ["near", "far"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("which", ["first", "last"])
    def test_outcome_outside_its_window_is_seen(self, which, sign, edge):
        # the first or the last outcome of one sign just past an edge of its
        # window, (0, 2 alpha) for a +1 sign and (-2 alpha, 0) for a -1, with a
        # consistent offset: the range check fails, the candidate check does not
        params = ProtocolParams(16, 64, 3, 0.4, 3.4)
        alpha, tanh_r = params.alpha, math.tanh(params.squeezing)

        def move(signs, outcomes, offsets):
            mode = np.flatnonzero(signs == sign)[0 if which == "first" else -1]
            sided = -1e-3 if edge == "near" else 2.0 * alpha * (1.0 + 1e-3)
            outcomes[mode] = sign * sided
            offsets[mode] = (outcomes[mode] - sign * alpha) * tanh_r

        report = self.run_with_draw_changed(params, move, 20)
        assert not report["outcome_range_ok"]
        assert report["max_candidate_error"] < 1e-9 * alpha

    def test_report_serializes(self):
        params = ProtocolParams(8, 16, 1, 0.4, 3.4)
        report, _ = game_equivalence_test(params, 20, 50, np.random.default_rng(13))
        # the keys of the record, in order; it survives a JSON round trip
        assert list(report) == [
            "trials", "modes_per_trial", "flip_rate_direct", "flip_rate_eb",
            "z_statistic", "p_value", "max_candidate_error", "outcome_range_ok",
        ]
        assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rng: sample_key_offset(math.nan, 3.4, rng, size=3), "alpha"),
        (lambda rng: sample_key_offset(0.4, math.nan, rng, size=3), "squeezing"),
        (lambda rng: eb_rejection_oracle(3.4, math.nan, 5, rng), "alpha"),
        (lambda rng: eb_rejection_oracle(math.nan, 0.4, 5, rng), "squeezing"),
        (lambda rng: eb_outcomes(np.ones(3), 0.4, math.nan, rng), "squeezing"),
        (lambda rng: tau(1000, 35, math.nan), "alpha"),
    ],
    ids=["key_offset-alpha", "key_offset-squeezing", "oracle-alpha", "oracle-squeezing",
         "eb_outcomes-squeezing", "tau-alpha"],
)
def test_nan_argument_is_named(call, name):
    # NaN fails every comparison, so a guard written `x <= 0` lets it through
    with pytest.raises(ValueError, match=name):
        call(np.random.default_rng(0))


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan, math.inf])
def test_eb_outcomes_rejects_alpha_before_drawing(alpha):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="alpha"):
        eb_outcomes(np.ones(3), alpha, 3.4, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rng: sample_key_offset(0.4, 800.0, rng, size=3), "squeezing"),
        (lambda rng: sample_key_offset(0.4, math.inf, rng, size=3), "squeezing"),
        (lambda rng: sample_key_offset(math.inf, 3.4, rng, size=3), "alpha"),
        (lambda rng: sample_key_offset(math.inf, 0.0, rng, size=3), "alpha"),
        (lambda rng: eb_outcomes(np.ones(3), 0.4, 800.0, rng), "squeezing"),
        (lambda rng: eb_rejection_oracle(800.0, 0.4, 5, rng), "squeezing"),
        (lambda rng: eb_rejection_oracle(3.4, math.inf, 5, rng), "alpha"),
        (lambda rng: ebprep.window_mass(800.0, 0.4), "squeezing"),
        (lambda rng: ebprep.window_mass(3.4, -1.0), "alpha"),
        (lambda rng: ebprep.window_mass(3.4, 0.0), "alpha"),
        (lambda rng: ebprep.outcome_ks(np.full(3, 0.4), 800.0, 0.4), "squeezing"),
        (lambda rng: split_flip_probs(-1.0, 3.4), "alpha"),
        (lambda rng: split_flip_probs(0.0, 3.4), "alpha"),
        (lambda rng: split_flip_probs(math.nan, 3.4), "alpha"),
        (lambda rng: split_flip_probs(0.4, 800.0), "squeezing"),
        (lambda rng: split_flip_probs(0.4, -1.0), "squeezing"),
        (lambda rng: split_flip_probs(0.4, math.nan), "squeezing"),
    ],
    ids=["key_offset-r800", "key_offset-rinf", "key_offset-alpha-inf", "key_offset-alpha-inf-r0",
         "eb_outcomes-r800", "oracle-r800", "oracle-alpha-inf", "window_mass-r800",
         "window_mass-alpha-neg", "window_mass-alpha-0",
         "outcome_ks-r800", "split-alpha-neg", "split-alpha-0", "split-alpha-nan",
         "split-r800", "split-r-neg", "split-r-nan"],
)
def test_sampler_entry_points_share_one_domain(call, name):
    # the checks ProtocolParams makes for the CLI, made where library calls enter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            call(np.random.default_rng(0))


def test_outcome_ks_accepts_outcomes_at_large_squeezing():
    # r = 60: the window is 1.5e-13 of the challenger's width wide
    rng = np.random.default_rng(33)
    outcomes, _ = eb_outcomes(np.ones(2000), 0.4, 60.0, rng)
    assert ebprep.outcome_ks(outcomes, 60.0, 0.4)[1] > 1e-3


def test_outcome_ks_where_the_window_mass_underflows():
    # alpha 1e-200 at r = 700: erf(alpha / (sigma sqrt 2)) is 0.0, and the law
    # is uniform on (0, 2 alpha) to double precision
    rng = np.random.default_rng(34)
    assert ebprep.window_mass(700.0, 1e-200) == 0.0
    outcomes, _ = eb_outcomes(np.ones(5), 1e-200, 700.0, rng)
    statistic, pvalue = ebprep.outcome_ks(outcomes, 700.0, 1e-200)
    assert (statistic, pvalue) == ks_test(outcomes, lambda u: u / 2e-200)
    assert 0.0 < statistic < 1.0 and 0.0 <= pvalue <= 1.0


@pytest.mark.parametrize("ratio", [2.0**-26, 2.0**-28])
def test_outcome_ks_cdf_is_continuous_at_the_uniform_cutoff(ratio):
    # on either side of alpha / (sigma sqrt 2) = 2^-27 the erf form and the
    # uniform CDF agree to double precision
    squeezing = 3.4
    alpha = ratio * math.sqrt(math.cosh(squeezing))
    outcomes, _ = eb_outcomes(np.ones(200), alpha, squeezing, np.random.default_rng(35))
    got = ebprep.outcome_ks(outcomes, squeezing, alpha)
    uniform = ks_test(outcomes, lambda u: u / (2.0 * alpha))
    assert got == pytest.approx(uniform, rel=1e-9, abs=1e-12)
