"""Entanglement-based state preparation and its equivalence to prepare-and-send.

Instead of drawing a threshold offset and preparing a squeezed coherent
state directly, the challenger keeps one arm of a displaced two-mode
squeezed state whose homodyne outcome is restricted to a width-2*alpha
window around the displacement. Measuring the challenger arm yields an
outcome u from a truncated normal; the offset k = (u -+ alpha) * tanh(r)
then has exactly the key-generation distribution, and the remote arm
collapses to exactly the encryption map's squeezed coherent state.

The restricted entangled state is represented procedurally through these
measurement statistics (the truncation makes the joint state non-Gaussian,
but every protocol-relevant quantity factors through the challenger's
homodyne). A rejection-sampling oracle built from the unrestricted
two-mode squeezed state provides an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .codec import base_encrypt, random_bits
from .gaussian import GaussianState, Quadrature, homodyne_sample, two_mode_squeezed
from .protocol import (
    CipherState, ProtocolParams, QecmKey, _mode_arrays, encrypt, key_gen, measure_codeword
)
from .stats import normal_window, truncated_normal, two_proportion_ztest


@dataclass(frozen=True)
class RestrictedEprSpec:
    """One mode's restricted entangled-pair parameters.

    ``sign`` (+1/-1) encodes the codeword bit; the challenger's homodyne
    outcome is restricted to (sign*alpha - alpha, sign*alpha + alpha).
    """

    squeezing: float
    sign: int
    alpha: float

    def __post_init__(self):
        if self.squeezing <= 0:
            raise ValueError("squeezing must be positive (tanh r = 0 collapses the offsets)")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def interval(self) -> tuple[float, float]:
        center = self.sign * self.alpha
        return (center - self.alpha, center + self.alpha)


def _challenger_sigma(squeezing: float) -> float:
    # the challenger marginal is N(sign*alpha, cosh(r)/2), restricted to the window
    return math.sqrt(0.5 * math.cosh(squeezing))


def window_mass(squeezing: float, alpha: float) -> float:
    """Normal mass of the restriction window: the expected acceptance ratio
    of eb_rejection_oracle."""
    lo, hi = normal_window(_challenger_sigma(squeezing), alpha)
    return float(hi - lo)


def sample_eb_mode(
    spec: RestrictedEprSpec,
    rng: np.random.Generator,
    direction: Quadrature = Quadrature.Q,
) -> tuple[float, GaussianState]:
    """Sample the challenger outcome and the conditional remote mode.

    The remote mode has displacement sign*alpha + (u - sign*alpha) tanh(r)
    along ``direction`` and covariance diag(1/cosh r, cosh r) in that axis
    ordering, i.e. exactly an encryption-map squeezed coherent state.
    """
    center = spec.sign * spec.alpha
    u = float(center + truncated_normal(_challenger_sigma(spec.squeezing), spec.alpha, rng))
    axis_value = center + (u - center) * math.tanh(spec.squeezing)
    ch = math.cosh(spec.squeezing)
    if direction == Quadrature.Q:
        disp, cov = (axis_value, 0.0), np.diag([1.0 / ch, ch])
    else:
        disp, cov = (0.0, axis_value), np.diag([ch, 1.0 / ch])
    return u, GaussianState(1, np.array(disp), cov)


@dataclass(frozen=True)
class EbChallengeRecord:
    """Per-mode challenger outcomes, the derived offsets, and the cipherstate."""

    outcomes: np.ndarray
    offsets: np.ndarray
    cipher: CipherState

    def __post_init__(self):
        if self.outcomes.shape != self.offsets.shape:
            raise ValueError("outcomes and offsets must have equal length")
        if self.outcomes.size != self.cipher.num_modes:
            raise ValueError("record length must match the cipherstate")


def eb_prepare(
    params: ProtocolParams,
    pad: np.ndarray,
    directions: np.ndarray,
    message: np.ndarray,
    rng: np.random.Generator,
    codec,
) -> EbChallengeRecord:
    """Prepare a cipherstate the entanglement-based way.

    Runs the classical layer with the given pad, then per mode samples the
    challenger outcome and derives the offset; the resulting conditional
    cipherstate has exactly the direct encryption map's per-mode descriptors.
    """
    if params.squeezing <= 0:
        raise ValueError("entanglement-based preparation needs positive squeezing")
    codeword = codec.encode(base_encrypt(pad, message))
    signs = 1.0 - 2.0 * np.asarray(codeword, dtype=float)
    sigma = _challenger_sigma(params.squeezing)
    outcomes = signs * params.alpha + truncated_normal(sigma, params.alpha, rng, signs.size)
    shifted = outcomes - signs * params.alpha
    if np.any(np.abs(shifted) >= params.alpha):
        raise AssertionError("challenger outcome escaped the restriction window")
    offsets = shifted * math.tanh(params.squeezing)
    disp, cov = _mode_arrays(codeword, directions, offsets, params.alpha, params.squeezing)
    return EbChallengeRecord(outcomes, offsets, CipherState(disp, cov))


def eb_rejection_oracle(
    squeezing: float, alpha: float, sign: int, rng: np.random.Generator
) -> tuple[float, GaussianState, int]:
    """Independent realization of the restricted pair: build the displaced
    two-mode squeezed state, homodyne the challenger arm, and retry until the
    outcome lands in the restriction window.

    Returns (outcome, conditional remote mode, attempts); the expected
    acceptance ratio is window_mass(squeezing, alpha).
    """
    spec = RestrictedEprSpec(squeezing, sign, alpha)  # validates arguments
    center = sign * alpha
    state = two_mode_squeezed(squeezing, np.array([center, 0.0, center, 0.0]))
    lo, hi = spec.interval
    attempts = 0
    while True:
        attempts += 1
        record = homodyne_sample(state, 0, Quadrature.Q, rng)
        if lo < record.outcome < hi:
            return record.outcome, record.conditional_state, attempts


@dataclass(frozen=True)
class EquivalenceReport:
    """Statistical comparison of prepare-and-send vs entanglement-based runs."""

    trials: int
    modes_per_trial: int
    flip_rate_direct: float
    flip_rate_eb: float
    z_statistic: float
    p_value: float
    max_candidate_error: float
    outcome_range_ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


def game_equivalence_test(
    params: ProtocolParams, trials: int, rng: np.random.Generator
) -> EquivalenceReport:
    """Check the two preparations agree where the protocol can see.

    Per trial, one fresh key/message is run through the direct encryption
    map and one through eb_prepare (same pad and directions), and honest
    decryption flips are accumulated for both arms; the flip rates are
    compared with a two-proportion z-test. Also verifies algebraically that
    the challenger outcome is offset/tanh(r) +- alpha and that every outcome
    lies in (-2 alpha, 2 alpha).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    tanh_r = math.tanh(params.squeezing)
    flips_direct = flips_eb = 0
    modes = params.num_modes
    max_candidate_err = 0.0
    range_ok = True
    for child in rng.spawn(trials):
        codec = params.make_codec()
        key = key_gen(params, child)
        message = random_bits(params.msg_len, child)
        codeword = codec.encode(base_encrypt(key.pad, message))
        signs = 1.0 - 2.0 * codeword.astype(float)

        cipher = encrypt(key, message, params, codec)
        est = measure_codeword(key, cipher, child)
        flips_direct += int(np.count_nonzero(est != codeword))

        record = eb_prepare(params, key.pad, key.directions, message, child, codec)
        eb_key = QecmKey(key.pad, key.directions, record.offsets, key.label)
        est_eb = measure_codeword(eb_key, record.cipher, child)
        flips_eb += int(np.count_nonzero(est_eb != codeword))

        reconstructed = record.offsets / tanh_r + signs * params.alpha
        max_candidate_err = max(
            max_candidate_err, float(np.max(np.abs(reconstructed - record.outcomes)))
        )
        if np.any(np.abs(record.outcomes) >= 2.0 * params.alpha):
            range_ok = False
    total = trials * modes
    z, p = two_proportion_ztest(flips_direct, total, flips_eb, total)
    return EquivalenceReport(
        trials=trials,
        modes_per_trial=modes,
        flip_rate_direct=flips_direct / total,
        flip_rate_eb=flips_eb / total,
        z_statistic=z,
        p_value=p,
        max_candidate_error=max_candidate_err,
        outcome_range_ok=range_ok,
    )
