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
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

CONVENTIONS = ("paper", "symplectic")
# erfc is 0.0 in double past 27.3: clamping an argument there changes no value
ERFC_ZERO = 27.3


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


def identity_channel() -> ChannelParams:
    return ChannelParams(1.0, 0.0)


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
    t = channel.transmittance
    return t / math.cosh(squeezing) + (1.0 - t) + t * channel.excess_noise


def noisy_ber(alpha: float, squeezing: float, channel: ChannelParams):
    """Per-mode bit error rate after the channel.

    Under the ``paper`` convention this is
    erfc(T*alpha / sqrt(T/cosh r + (1-T) + T*xi)) / 2; the ``symplectic``
    convention replaces T*alpha by sqrt(T)*alpha.
    """
    if (np.asarray(alpha) <= 0).any():
        raise ValueError("alpha must be positive")
    mean = displacement_scale(channel) * np.asarray(alpha, dtype=float)
    sd = math.sqrt(noisy_variance(squeezing, channel))
    out = 0.5 * erfc(np.minimum(mean, ERFC_ZERO * sd) / sd)
    return float(out) if np.isscalar(alpha) else out


def fiber_transmittance(length_km: float, loss_db_per_km: float = 0.22) -> float:
    """Transmittance of a fibre span (default 0.22 dB/km, 1550 nm telecom)."""
    if length_km < 0:
        raise ValueError("length must be nonnegative")
    return 10.0 ** (-loss_db_per_km * length_km / 10.0)
