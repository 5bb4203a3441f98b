"""The encryption scheme: key generation, encryption to squeezed modes, decryption.

Key material is a triple (pad, directions, offsets); the label indexing the
balanced direction string is derived from it. Each codeword bit is encoded
as a displaced squeezed state: displacement alpha*(-1)^bit + offset along
the keyed quadrature, squeezed along that same quadrature. Decryption
homodynes each mode along the keyed direction and thresholds at the offset.
``trial_ber`` picks an honest trial's flip rate; run_round_trip draws the
histogram of its trials' flip counts at it in one multinomial over the
cells of ``flip_count_cells``.
"""

from __future__ import annotations

import functools
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
    check_bits,
    concrete_spec,
    random_bits,
)
from .stats import truncated_normal, wilson_interval

# flip counts less likely than this are left out of run_round_trip's histogram
FLIP_CELL_MASS = 1e-60


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
    truncated to the open interval (-alpha tanh r, alpha tanh r): a narrow
    window (half-width 0.146 sigma at the paper point), where
    stats.truncated_normal keeps 99.6 % of its uniform proposals.

    Zero squeezing collapses the interval to {0} and returns zeros.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= squeezing <= MAX_SQUEEZING:
        raise ValueError(SQUEEZING_RANGE)
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
    """Displacement/covariance arrays for the per-bit squeezed-state encoding.

    Mode i's keyed quadrature is entry 2i + d_i of the flattened (N, 2) arrays."""
    signs = 1.0 - 2.0 * np.asarray(codeword, dtype=float)
    axis_value = alpha * signs + offsets
    n = signs.size
    keyed = _keyed_index(directions)
    disp = np.zeros(2 * n)
    disp[keyed] = axis_value
    ch = math.cosh(squeezing)
    cov = np.full(2 * n, ch)
    cov[keyed] = 1.0 / ch
    return disp.reshape(n, 2), cov.reshape(n, 2)


def _keyed_index(directions) -> np.ndarray:
    # the flat index 2i + d_i of mode i's keyed quadrature in an (N, 2) array
    dirs = np.asarray(directions, dtype=np.uint8)
    return np.arange(0, 2 * dirs.size, 2) + dirs


def encrypt(key: QecmKey, message: np.ndarray, params: ProtocolParams, codec) -> CipherState:
    """Encrypt a plaintext into a cipherstate (pad, encode, modulate)."""
    message = np.asarray(message)
    if message.shape != (params.msg_len,):
        raise ValueError(f"message must have length {params.msg_len}")
    check_bits(message)
    codeword = codec.encode(base_encrypt(key.pad, message))
    disp, cov = _mode_arrays(
        codeword, key.directions, key.offsets, params.alpha, params.squeezing
    )
    return CipherState(disp, cov)


def measure_codeword(key: QecmKey, cipher: CipherState, rng: np.random.Generator) -> np.ndarray:
    """Homodyne every mode along its keyed direction and threshold at the
    offset; outcome exactly at threshold decodes to bit 0."""
    if key.num_modes != cipher.num_modes:
        raise ValueError("key and cipherstate differ in mode count")
    keyed = _keyed_index(key.directions)
    mean = np.take(cipher.disp, keyed)
    std = np.sqrt(np.take(cipher.cov_diag, keyed) / 2.0)
    # rng.normal(mean, std) draws loc + scale * z per element in this order
    outcomes = mean + std * rng.standard_normal(keyed.size)
    return (outcomes - key.offsets < 0).astype(np.uint8)


def decrypt(
    key: QecmKey,
    cipher: CipherState,
    params: ProtocolParams,
    codec,
    rng: np.random.Generator,
):
    """Decrypt a cipherstate; returns the plaintext bits or None on decode failure."""
    if cipher.num_modes != params.num_modes:
        raise ValueError("cipherstate size does not match params")
    estimate = measure_codeword(key, cipher, rng)
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


def trial_ber(params: ProtocolParams, channel=None) -> float:
    """An honest trial's per-mode flip probability: ber_analytic, or noisy_ber on a channel."""
    if channel is None:
        return ber_analytic(params.alpha, params.squeezing)
    return noisy_ber(params.alpha, params.squeezing, channel)


@functools.lru_cache(maxsize=64)
def flip_count_cells(num_modes: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells run_round_trip draws its histogram over: (flip counts k,
    masses P[Bin(num_modes, beta) = k]) for every k of mass at least
    FLIP_CELL_MASS, ascending but with the mode last. numpy's multinomial
    draws each cell at its mass over the mass left, formed by subtraction
    from 1; with the mode last that is never below 1/(N + 1), so even a
    1e-60 cell keeps its relative accuracy. The masses come from log space
    (log C(N, k) as a running sum of log((N - i) / (i + 1))), within about
    1e-13 relative of the pmf, and apart from stats.binomial_sf, which
    bounds.exact_failure sums. Cached per (N, beta) and read-only; at
    beta = 0 the one cell is k = 0.
    """
    if beta == 0.0:
        counts, masses = np.zeros(1, dtype=np.int64), np.ones(1)
    else:
        k = np.arange(num_modes + 1)
        steps = np.log((num_modes - k[:-1]) / k[1:])
        steps += math.log(beta) - math.log1p(-beta)
        log_mass = np.empty(num_modes + 1)
        log_mass[0] = num_modes * math.log1p(-beta)
        np.cumsum(steps, out=log_mass[1:])
        log_mass[1:] += log_mass[0]
        mode = int(np.argmax(log_mass))
        kept = np.flatnonzero(log_mass >= math.log(FLIP_CELL_MASS))
        counts = np.concatenate((k[kept[0]:mode], k[mode + 1:kept[-1] + 1], k[mode:mode + 1]))
        masses = np.exp(log_mass[counts])
    counts.flags.writeable = masses.flags.writeable = False
    return counts, masses


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
    with probability beta, the honest bit error rate ``trial_ber`` picks,
    and a trial's flip count is Bin(num_modes, beta);
    cvue.reference.run_round_trip_states is the object-level reference for
    this shortcut.

    The histogram h of the ``trials`` counts is exactly Multinomial(trials,
    pmf) (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X), one
    draw over ``flip_count_cells``, so the cost grows with the support, not
    with ``trials``: failures = sum_{k > t} h_k, mode_flips = sum_k k h_k.
    The cells left out pass their mass, under (N + 1) * FLIP_CELL_MASS, to
    the mode, so h's law is within trials * (N + 1) * 1e-60 < 2e-41 of the
    exact one in total variation: trials * N must stay below 2**63, where
    the flip total is exact. cvue.reference.run_round_trip_binomial draws
    one count per trial.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials * params.num_modes >= 2**63:
        raise ValueError("trials * num_modes must be below 2**63")
    counts, masses = flip_count_cells(params.num_modes, trial_ber(params, channel))
    hist = rng.multinomial(trials, masses)
    failures = int(hist[counts > params.max_errors].sum())
    return RoundTripResult.from_counts(
        trials, failures, trials * params.num_modes, int(hist @ counts)
    )
