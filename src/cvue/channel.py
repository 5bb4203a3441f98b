"""Thermal-loss channel with excess noise, in shot-noise units.

The channel is described by a transmittance T in (0, 1] and an
input-referred excess-noise power xi >= 0. Covariances transform as
G -> T*G + (1 - T + T*xi) * I under either convention; the displacement
scaling is where the two conventions differ:

* ``paper``      - displacement scales linearly by T, the input-referred
                   convention the noisy-BER formula assumes (default).
* ``symplectic`` - displacement scales by sqrt(T), the standard attenuator
                   symplectic map.

A receiver that knows the channel rescales its thresholds by the same
factor as the displacement.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .stats import erfc

CONVENTIONS = ("paper", "symplectic")
# erfc is 0.0 in double past 27.3: clamping an argument there changes no value
ERFC_ZERO = 27.3
# largest squeezing r whose cosh(r) is a finite float (about 710.48)
MAX_SQUEEZING = math.acosh(sys.float_info.max)
SQUEEZING_RANGE = f"squeezing must be nonnegative and at most {MAX_SQUEEZING} (cosh r finite)"


@dataclass(frozen=True)
class ChannelParams:
    """Transmittance / excess-noise description of the optical link."""

    transmittance: float
    excess_noise: float = 0.0
    convention: str = "paper"

    def __post_init__(self):
        if not 0.0 < self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in (0, 1]")
        # written so that NaN fails the comparison
        if not 0 <= self.excess_noise < math.inf:
            raise ValueError("excess noise must be nonnegative and finite")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")


def displacement_scale(channel: ChannelParams) -> float:
    """Factor applied to displacements (and to decryption thresholds)."""
    if channel.convention == "paper":
        return channel.transmittance
    return math.sqrt(channel.transmittance)


def noisy_variance(squeezing: float, channel: ChannelParams) -> float:
    """Effective quadrature variance T/cosh r + (1-T) + T*xi on the squeezed axis.

    The measurement variance is half this quantity, matching the noiseless
    convention where the squeezed-axis value is 1/cosh r.
    """
    return _variance(math.cosh(squeezing), channel.transmittance, channel.excess_noise)


def _variance(cosh_r, transmittance, excess_noise):
    return transmittance / cosh_r + (1.0 - transmittance) + transmittance * excess_noise


def flip_probability(mean, sd):
    """0.5 erfc(mean / sd): the probability that an outcome N(mean, sd^2 / 2)
    falls below the threshold 0. erfc is 0.0 past ERFC_ZERO, so clamping
    there changes no value; it keeps a huge mean from overflowing."""
    return 0.5 * erfc(np.minimum(mean, ERFC_ZERO * sd) / sd)


def noisy_ber(alpha: float, squeezing: float, channel: ChannelParams) -> float:
    """Per-mode bit error rate after the channel.

    Under the ``paper`` convention this is
    erfc(T*alpha / sqrt(T/cosh r + (1-T) + T*xi)) / 2; the ``symplectic``
    convention replaces T*alpha by sqrt(T)*alpha.
    """
    if isinstance(alpha, np.ndarray):
        raise ValueError("alpha must be a scalar; noisy_ber_grid takes arrays")
    # written so that NaN fails the checks
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= squeezing <= MAX_SQUEEZING:
        raise ValueError(SQUEEZING_RANGE)
    # flip_probability on floats: math.erfc gives the bits stats.erfc does
    mean = displacement_scale(channel) * alpha
    sd = math.sqrt(noisy_variance(squeezing, channel))
    return 0.5 * math.erfc(min(mean, ERFC_ZERO * sd) / sd)


def noisy_ber_grid(alpha: float, squeezing, transmittance, excess_noise) -> np.ndarray:
    """``noisy_ber`` under the ``paper`` convention over arrays of squeezing,
    transmittance and excess noise, broadcast together: each value equals,
    bit for bit, the scalar call with ``ChannelParams(T, xi)``, and every
    value is checked as ChannelParams and noisy_ber check it."""
    squeezing = np.asarray(squeezing, dtype=float)
    transmittance = np.asarray(transmittance, dtype=float)
    excess_noise = np.asarray(excess_noise, dtype=float)
    if not ((0.0 < transmittance) & (transmittance <= 1.0)).all():
        raise ValueError("transmittance must lie in (0, 1]")
    if not ((0 <= excess_noise) & (excess_noise < math.inf)).all():
        raise ValueError("excess noise must be nonnegative and finite")
    if not (np.asarray(alpha) > 0).all():
        raise ValueError("alpha must be positive")
    if not ((squeezing >= 0) & (squeezing <= MAX_SQUEEZING)).all():
        raise ValueError(SQUEEZING_RANGE)
    # math.cosh, as noisy_variance takes it: np.cosh differs from it by an
    # ulp on some arguments
    cosh_r = np.vectorize(math.cosh, otypes=[float])(squeezing)
    sd = np.sqrt(_variance(cosh_r, transmittance, excess_noise))
    return flip_probability(transmittance * np.asarray(alpha, dtype=float), sd)

