import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from cvue.bounds import ber_analytic
from cvue.channel import (
    CONVENTIONS,
    ChannelParams,
    displacement_scale,
    flip_probability,
    noisy_ber,
    noisy_variance,
)
from cvue.protocol import MAX_SQUEEZING, ProtocolParams, encrypt, key_gen, run_round_trip
from cvue.reference import apply_channel, identity_channel, run_round_trip_states
from cvue.codec import random_bits


class TestParams:
    def test_transmittance_range(self):
        with pytest.raises(ValueError, match="transmittance"):
            ChannelParams(0.0)
        with pytest.raises(ValueError, match="transmittance"):
            ChannelParams(1.2)

    def test_excess_noise_nonnegative(self):
        with pytest.raises(ValueError, match="excess noise"):
            ChannelParams(0.8, -0.1)

    def test_convention_checked(self):
        with pytest.raises(ValueError, match="convention"):
            ChannelParams(0.8, 0.0, "other")


class TestNoisyVariance:
    def test_identity_channel_reduces_to_squeezed_variance(self):
        for r in (0.0, 1.0, 3.5):
            assert np.isclose(noisy_variance(r, identity_channel()), 1 / math.cosh(r))

    def test_reference_value(self):
        # 0.8/cosh(3.5) + 0.2 + 0.0008 = 0.24907179529613407
        v = noisy_variance(3.5, ChannelParams(0.8, 0.001))
        assert np.isclose(v, 0.24907179529613407, rtol=1e-12)

    def test_opaque_limit_is_vacuum(self):
        v = noisy_variance(3.5, ChannelParams(1e-12, 0.0))
        assert np.isclose(v, 1.0, atol=1e-9)


class TestNoisyBer:
    def test_identity_channel_matches_analytic(self):
        for alpha, r in [(0.4, 3.4), (0.2, 2.0)]:
            assert np.isclose(
                noisy_ber(alpha, r, identity_channel()), ber_analytic(alpha, r), rtol=1e-12
            )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.floats(0.0, exclude_min=True, allow_infinity=False),
        st.floats(0.0, MAX_SQUEEZING),
        st.sampled_from(CONVENTIONS),
    )
    def test_lossless_noiseless_channel_is_analytic(self, alpha, squeezing, convention):
        expected = ber_analytic(alpha, squeezing)
        got = noisy_ber(alpha, squeezing, ChannelParams(1.0, 0.0, convention))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_reference_value(self):
        beta = noisy_ber(0.4, 3.5, ChannelParams(0.8, 0.001))
        assert np.isclose(beta, 0.18226115012380562, rtol=1e-12)

    def test_monotone_in_excess_noise(self):
        values = [noisy_ber(0.4, 3.5, ChannelParams(0.8, xi)) for xi in np.linspace(0, 0.2, 30)]
        assert np.all(np.diff(values) > 0)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            noisy_ber(0.0, 3.5, identity_channel())

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_huge_alpha_is_warning_free(self, convention):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert noisy_ber(1e300, MAX_SQUEEZING, ChannelParams(1.0, 0.0, convention)) == 0.0
            assert noisy_ber(1e300, 3.5, ChannelParams(0.5, 1e300, convention)) == 0.0
            channel = ChannelParams(0.8, 0.001, convention)
            small, huge = noisy_ber(0.4, 3.5, channel), noisy_ber(1e300, 3.5, channel)
        sd = math.sqrt(noisy_variance(3.5, channel))
        assert small == flip_probability(displacement_scale(channel) * 0.4, sd)
        assert huge == 0.0

    @pytest.mark.parametrize("ratio", [26.0, 26.64, 27.0, 27.29, 27.31, 28.0])
    def test_near_erfc_cutoff_is_the_plain_formula(self, ratio):
        channel = ChannelParams(0.8, 0.001)
        sd = math.sqrt(noisy_variance(3.5, channel))
        alpha = ratio * sd / displacement_scale(channel)
        want = 0.5 * math.erfc(displacement_scale(channel) * alpha / sd)
        assert noisy_ber(alpha, 3.5, channel) == want

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("transmittance,excess_noise", [
        (1.0, 0.0), (0.8, 0.001), (0.3, 0.2), (0.5, 1e300), (1e-300, 0.0),
    ])
    @pytest.mark.parametrize("squeezing", [0.0, 0.7, 3.5, 40.0, MAX_SQUEEZING])
    def test_scalar_path_is_flip_probability(
        self, squeezing, transmittance, excess_noise, convention
    ):
        # the float path gives the array kernel's bits, past ERFC_ZERO too
        channel = ChannelParams(transmittance, excess_noise, convention)
        sd = math.sqrt(noisy_variance(squeezing, channel))
        for alpha in (1e-300, 0.05, 0.4, 3.0, 30.0, 1e300):
            want = flip_probability(displacement_scale(channel) * alpha, sd)
            got = noisy_ber(alpha, squeezing, channel)
            assert type(got) is float
            assert got == want, alpha

    def test_array_alpha_is_refused_by_name(self):
        with pytest.raises(ValueError, match="alpha must be a scalar"):
            noisy_ber(np.array([0.4, 0.5]), 3.5, ChannelParams(0.8, 0.001))


class TestApplyChannel:
    def _cipher(self, params, seed=0):
        rng = np.random.default_rng(seed)
        key = key_gen(params, rng)
        message = random_bits(params.msg_len, rng)
        return key, encrypt(key, message, params, params.make_codec())

    def test_identity_is_bit_exact(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        _, cipher = self._cipher(params)
        out = apply_channel(cipher, identity_channel())
        assert out is cipher

    def test_descriptor_map(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        _, cipher = self._cipher(params)
        ch = ChannelParams(0.8, 0.01)
        out = apply_channel(cipher, ch)
        assert np.allclose(out.disp, 0.8 * cipher.disp)
        assert np.allclose(out.cov_diag, 0.8 * cipher.cov_diag + (0.2 + 0.8 * 0.01))
        assert np.all(out.cov_diag > 0)

    def test_symplectic_convention_scales_by_sqrt(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        _, cipher = self._cipher(params)
        ch = ChannelParams(0.64, 0.0, convention="symplectic")
        out = apply_channel(cipher, ch)
        assert np.allclose(out.disp, 0.8 * cipher.disp)
        assert displacement_scale(ch) == 0.8

    def test_opaque_limit_kills_displacement(self):
        params = ProtocolParams(16, 32, 2, 0.4, 3.4)
        _, cipher = self._cipher(params)
        out = apply_channel(cipher, ChannelParams(1e-9, 0.0))
        assert np.allclose(out.disp, 0.0, atol=1e-8)
        assert np.allclose(out.cov_diag, 1.0, atol=1e-6)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("transmittance", [0.6, 0.8, 0.95])
    @pytest.mark.parametrize("excess_noise", [0.0, 0.001, 0.01])
    def test_flip_rate_matches_formula(self, transmittance, excess_noise):
        params = ProtocolParams(500, 1000, 35, 0.4, 3.6)
        channel = ChannelParams(transmittance, excess_noise)
        result = run_round_trip(
            params, 1000, np.random.default_rng(hash((transmittance, excess_noise)) % 2**32),
            channel=channel,
        )
        beta = noisy_ber(0.4, 3.6, channel)
        sd = math.sqrt(beta * (1 - beta) / result.modes_total)
        assert abs(result.flip_rate - beta) < 5 * sd

    def test_symplectic_convention_flip_rate(self):
        params = ProtocolParams(500, 1000, 35, 0.4, 3.6)
        channel = ChannelParams(0.8, 0.001, convention="symplectic")
        result = run_round_trip(params, 1000, np.random.default_rng(42), channel=channel)
        beta = 0.5 * erfc(
            math.sqrt(0.8) * 0.4 / math.sqrt(noisy_variance(3.6, channel))
        )
        sd = math.sqrt(beta * (1 - beta) / result.modes_total)
        assert abs(result.flip_rate - beta) < 5 * sd

    def test_object_path_with_rescaled_thresholds(self):
        # full state-level pipeline incl. threshold rescaling reproduces the formula
        params = ProtocolParams(50, 100, 10, 0.4, 3.5)
        channel = ChannelParams(0.8, 0.001)
        result = run_round_trip_states(
            params, 2000, np.random.default_rng(43), channel=channel
        )
        beta = noisy_ber(0.4, 3.5, channel)
        sd = math.sqrt(beta * (1 - beta) / result.modes_total)
        assert abs(result.flip_rate - beta) < 5 * sd

