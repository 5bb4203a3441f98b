"""The encryption scheme: key generation, encryption to squeezed modes, decryption.

Key material is a triple (pad, directions, offsets); the label indexing the
balanced direction string is derived from it. Each codeword bit is encoded
as a displaced squeezed state: displacement alpha*(-1)^bit + offset along
the keyed quadrature, squeezed along that same quadrature. Decryption
homodynes each mode along the keyed direction and thresholds at the offset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import ber_analytic
from .channel import MAX_SQUEEZING, SQUEEZING_RANGE, noisy_ber
from .codec import (
    SCHEMES,
    OracleCodec,
    base_decrypt,
    base_encrypt,
    check_message_bits,
    concrete_spec,
    random_bits,
)
from .stats import truncated_normal, wilson_interval

# trials per binomial draw in run_round_trip and the cloning game: caps a count
# array at 8 MB; draws made in blocks are the very numbers one draw gives
ROUND_TRIP_BLOCK = 1 << 20


@dataclass(frozen=True)
class ProtocolParams:
    """All scheme parameters for one security level.

    Attributes:
        msg_len: plaintext length n in bits.
        num_modes: codeword length N = number of optical modes (even).
        max_errors: bit errors t the code corrects.
        alpha: displacement magnitude (> 0).
        squeezing: squeezing parameter r (>= 0).
        codec_scheme: 'oracle' or 'concrete'.

    The XOR one-time pad is msg_len bits long.
    """

    msg_len: int
    num_modes: int
    max_errors: int
    alpha: float
    squeezing: float
    codec_scheme: str = "oracle"

    def __post_init__(self):
        if self.num_modes % 2 != 0:
            raise ValueError("num_modes must be even (balanced direction string)")
        # written so that NaN fails the comparison
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 <= self.squeezing <= MAX_SQUEEZING:
            raise ValueError(SQUEEZING_RANGE)
        if self.msg_len < 1:
            raise ValueError("message length must be positive")
        if self.msg_len > self.num_modes:
            raise ValueError("message length cannot exceed codeword length")
        if self.max_errors < 0:
            raise ValueError("correctable error count must be nonnegative")
        if self.max_errors >= self.num_modes / 2:
            raise ValueError("correctable error count must be below num_modes/2")
        if self.codec_scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.codec_scheme == "concrete":
            carried = concrete_spec(self.num_modes, self.max_errors).msg_len
            if carried != self.msg_len:
                raise ValueError(
                    f"shortened BCH of length {self.num_modes} with t={self.max_errors} "
                    f"carries {carried} message bits, not {self.msg_len}"
                )

    def make_codec(self):
        """A fresh oracle codec, or the shared concrete BCH code."""
        if self.codec_scheme == "oracle":
            return OracleCodec(self.msg_len, self.num_modes, self.max_errors)
        return concrete_spec(self.num_modes, self.max_errors)


@dataclass(frozen=True)
class QecmKey:
    """Decryption key: XOR pad, per-mode directions, per-mode threshold offsets.

    ``directions`` are bits (0 = Q, 1 = P) with Hamming weight exactly half
    the length. ``label`` is derived, not stored: the colexicographic rank
    of the direction string among all balanced strings, computed on read.
    """

    pad: np.ndarray
    directions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        pad = np.asarray(self.pad, dtype=np.uint8)
        dirs = np.asarray(self.directions, dtype=np.uint8)
        offs = np.asarray(self.offsets, dtype=float)
        if dirs.ndim != 1 or offs.shape != dirs.shape:
            raise ValueError("directions and offsets must be 1-d and equal length")
        if dirs.size % 2 != 0 or int(dirs.sum()) != dirs.size // 2:
            raise ValueError("directions must have Hamming weight exactly N/2")
        object.__setattr__(self, "pad", pad)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "offsets", offs)

    @property
    def num_modes(self) -> int:
        return self.directions.size

    @property
    def label(self) -> int:
        return balanced_string_rank(self.directions)


@dataclass(frozen=True)
class CipherState:
    """Product of N single-mode Gaussian states, stored compactly.

    ``disp[i]`` is the (q, p) displacement of mode i and ``cov_diag[i]`` the
    diagonal of its (diagonal) covariance matrix.
    """

    disp: np.ndarray
    cov_diag: np.ndarray

    def __post_init__(self):
        disp = np.asarray(self.disp, dtype=float)
        cov = np.asarray(self.cov_diag, dtype=float)
        if disp.ndim != 2 or disp.shape[1] != 2 or cov.shape != disp.shape:
            raise ValueError("disp and cov_diag must both have shape (N, 2)")
        if np.any(cov <= 0):
            raise ValueError("covariance entries must be positive")
        object.__setattr__(self, "disp", disp)
        object.__setattr__(self, "cov_diag", cov)

    @property
    def num_modes(self) -> int:
        return self.disp.shape[0]


def sample_key_offset(
    alpha: float, squeezing: float, rng: np.random.Generator, size=None
):
    """Threshold offsets: centered normal with variance cosh(r) tanh^2(r) / 2,
    truncated to the open interval (-alpha tanh r, alpha tanh r).

    Zero squeezing collapses the interval to {0} and returns zeros.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if squeezing < 0:
        raise ValueError("squeezing must be nonnegative")
    if squeezing == 0:
        return 0.0 if size is None else np.zeros(size)
    sigma = math.sqrt(0.5 * math.cosh(squeezing)) * math.tanh(squeezing)
    out = truncated_normal(sigma, alpha * math.tanh(squeezing), rng, size)
    return float(out) if size is None else out


def balanced_string_rank(bits: np.ndarray) -> int:
    """Colexicographic rank of a fixed-weight bit string among its weight class.

    The rank is sum_i C(p_i, i+1) over the ascending one-positions p_i; the
    binomials are maintained incrementally in exact integer arithmetic, which
    at 1000 modes is ~1000x faster than independent comb() calls.
    """
    positions = np.flatnonzero(np.asarray(bits, dtype=np.uint8))
    rank = 0
    value = 1  # C(j, i) along the walk
    j = 0
    i = 0
    for p in positions:
        p = int(p)
        while j < p:
            # C(j+1, i); the boundary j+1 == i (all lower positions set) is C(i, i) = 1
            value = 1 if j + 1 == i else value * (j + 1) // (j + 1 - i)
            j += 1
        value = value * (j - i) // (i + 1)
        i += 1
        rank += value
    return rank


def key_gen(params: ProtocolParams, rng: np.random.Generator) -> QecmKey:
    """Run key generation: uniform pad, uniform balanced direction string,
    i.i.d. truncated-normal offsets."""
    n = params.num_modes
    if params.squeezing == 0:
        warnings.warn(
            "zero squeezing: offsets are forced to 0 and the cipherstates are "
            "displaced vacua with no direction hiding",
            stacklevel=2,
        )
    pad = random_bits(params.msg_len, rng)
    ones = rng.choice(n, size=n // 2, replace=False)
    directions = np.zeros(n, dtype=np.uint8)
    directions[ones] = 1
    offsets = sample_key_offset(params.alpha, params.squeezing, rng, size=n)
    return QecmKey(pad, directions, offsets)


def _mode_arrays(codeword, directions, offsets, alpha, squeezing):
    """Displacement/covariance arrays for the per-bit squeezed-state encoding."""
    signs = 1.0 - 2.0 * np.asarray(codeword, dtype=float)
    axis_value = alpha * signs + offsets
    n = signs.size
    dirs = np.asarray(directions, dtype=np.uint8)
    disp = np.zeros((n, 2))
    disp[np.arange(n), dirs] = axis_value
    ch = math.cosh(squeezing)
    cov = np.empty((n, 2))
    cov[np.arange(n), dirs] = 1.0 / ch
    cov[np.arange(n), 1 - dirs] = ch
    return disp, cov


def encrypt(key: QecmKey, message: np.ndarray, params: ProtocolParams, codec) -> CipherState:
    """Encrypt a plaintext into a cipherstate (pad, encode, modulate)."""
    message = np.asarray(message)
    if message.shape != (params.msg_len,):
        raise ValueError(f"message must have length {params.msg_len}")
    check_message_bits(message)
    codeword = codec.encode(base_encrypt(key.pad, message))
    disp, cov = _mode_arrays(
        codeword, key.directions, key.offsets, params.alpha, params.squeezing
    )
    return CipherState(disp, cov)


def measure_codeword(
    key: QecmKey,
    cipher: CipherState,
    rng: np.random.Generator,
    threshold_scale: float = 1.0,
) -> np.ndarray:
    """Homodyne every mode along its keyed direction and threshold at the
    (scaled) offset; outcome exactly at threshold decodes to bit 0."""
    n = cipher.num_modes
    idx = np.arange(n)
    dirs = key.directions
    mean = cipher.disp[idx, dirs]
    std = np.sqrt(cipher.cov_diag[idx, dirs] / 2.0)
    outcomes = rng.normal(mean, std)
    return (outcomes - threshold_scale * key.offsets < 0).astype(np.uint8)


def decrypt(
    key: QecmKey,
    cipher: CipherState,
    params: ProtocolParams,
    codec,
    rng: np.random.Generator,
    threshold_scale: float = 1.0,
):
    """Decrypt a cipherstate; returns the plaintext bits or None on decode failure.

    ``threshold_scale`` rescales the offset thresholds, matching how a lossy
    channel rescales the displacement (see the channel module).
    """
    if cipher.num_modes != params.num_modes:
        raise ValueError("cipherstate size does not match params")
    estimate = measure_codeword(key, cipher, rng, threshold_scale)
    decoded = codec.decode(estimate)
    if decoded is None:
        return None
    return base_decrypt(key.pad, decoded)


@dataclass(frozen=True)
class RoundTripResult:
    """Monte-Carlo estimate of the decryption-failure rate."""

    trials: int
    failures: int
    failure_rate: float
    interval: tuple[float, float]
    modes_total: int
    mode_flips: int
    flip_rate: float

    @classmethod
    def from_counts(cls, trials, failures, modes_total, mode_flips):
        return cls(
            trials=int(trials),
            failures=int(failures),
            failure_rate=failures / trials if trials else 0.0,
            interval=wilson_interval(int(failures), int(trials)),
            modes_total=int(modes_total),
            mode_flips=int(mode_flips),
            flip_rate=mode_flips / modes_total if modes_total else 0.0,
        )


def run_round_trip(
    params: ProtocolParams,
    trials: int,
    rng: np.random.Generator,
    channel=None,
) -> RoundTripResult:
    """Estimate Pr[decryption fails] over encrypt/measure/decode round trips.

    Uses the oracle-codec criterion (failure iff more than max_errors bit
    flips). The flip indicator of mode i is independent of the direction bit
    and of the threshold offset (the offset cancels against the threshold),
    and its law is symmetric in the codeword bit (a 1 flips on the mirror
    image of the noise that flips a 0), so every mode flips independently
    with probability beta, the honest bit error rate (bounds.ber_analytic, or
    channel.noisy_ber on a channel), and a trial's flip count is one
    Binomial(num_modes, beta) draw; cvue.reference.run_round_trip_states is
    the object-level reference for this shortcut.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if channel is None:
        beta = ber_analytic(params.alpha, params.squeezing)
    else:
        beta = noisy_ber(params.alpha, params.squeezing, channel)
    failures = 0
    mode_flips = 0
    for start in range(0, trials, ROUND_TRIP_BLOCK):
        block = min(ROUND_TRIP_BLOCK, trials - start)
        per_trial = rng.binomial(params.num_modes, beta, size=block)
        failures += int(np.count_nonzero(per_trial > params.max_errors))
        mode_flips += int(per_trial.sum())
    return RoundTripResult.from_counts(
        trials, failures, trials * params.num_modes, mode_flips
    )
