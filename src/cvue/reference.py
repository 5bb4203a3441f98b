"""Object-level reference implementations that the tests use as oracles.

Nothing in the simulator calls into this module. Each function here is the
slow, literal form of something the fast paths compute directly:

* the N-mode Gaussian toolkit (vacuum, squeezed coherent states, tensor
  products, beamsplitters, marginal variances) that the per-mode descriptor
  arithmetic in protocol, channel and adversary is checked against;
* heterodyne_split / decode_half, the descriptor-level beamsplitter attack
  that the flip-count kernel adversary.heterodyne_split is checked against;
* cipher_modes, a cipherstate as a list of single-mode GaussianState values;
* run_round_trip_states, the full key_gen/encrypt/decrypt loop that
  protocol.run_round_trip's flip-count shortcut is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import apply_channel, displacement_scale
from .codec import base_decrypt, base_encrypt, random_bits
from .gaussian import GaussianState, Quadrature, _check_mode, _quad_index
from .protocol import (
    CipherState,
    ProtocolParams,
    QecmKey,
    RoundTripResult,
    encrypt,
    key_gen,
    measure_codeword,
)

_SQRT_HALF = math.sqrt(0.5)


# --- Gaussian toolkit -----------------------------------------------------


def vacuum_state(num_modes: int) -> GaussianState:
    """Return the N-mode vacuum (zero displacement, identity covariance)."""
    return GaussianState(num_modes, np.zeros(2 * num_modes), np.eye(2 * num_modes))


def make_squeezed_coherent(
    displacement, squeezing: float, direction: Quadrature
) -> GaussianState:
    """Single-mode squeezed coherent state used by the encryption map.

    The covariance is diag(1/cosh(squeezing), cosh(squeezing)) when squeezed
    along Q and the transpose arrangement along P, so the homodyne variance in
    the squeezed direction is 1/(2 cosh(squeezing)).

    Args:
        displacement: length-2 sequence (q, p).
        squeezing: nonnegative squeezing parameter.
        direction: the narrow (squeezed) quadrature.
    """
    if squeezing < 0:
        raise ValueError("squeezing must be nonnegative")
    ch = np.cosh(squeezing)
    if direction == Quadrature.Q:
        cov = np.diag([1.0 / ch, ch])
    else:
        cov = np.diag([ch, 1.0 / ch])
    return GaussianState(1, np.asarray(displacement, dtype=float), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of two states (block-diagonal covariance)."""
    n = a.num_modes + b.num_modes
    disp = np.concatenate([a.disp, b.disp])
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * a.num_modes, : 2 * a.num_modes] = a.cov
    cov[2 * a.num_modes :, 2 * a.num_modes :] = b.cov
    return GaussianState(n, disp, cov)


def symplectic_form(num_modes: int) -> np.ndarray:
    """The symplectic form Omega for the (q1, p1, ..., qN, pN) ordering."""
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * num_modes, 2 * num_modes))
    for i in range(num_modes):
        omega[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = w
    return omega


def beamsplitter_matrix(num_modes: int, modes, transmittance: float) -> np.ndarray:
    """Symplectic matrix of a beamsplitter acting on a mode pair.

    Uses the rotation convention: output_i = sqrt(T) in_i + sqrt(1-T) in_j,
    output_j = -sqrt(1-T) in_i + sqrt(T) in_j, identically on q and p.
    """
    i, j = modes
    if i == j:
        raise ValueError("beamsplitter requires two distinct modes")
    if not (0.0 <= transmittance <= 1.0):
        raise ValueError("transmittance must lie in [0, 1]")
    a = np.sqrt(transmittance)
    b = np.sqrt(1.0 - transmittance)
    s = np.eye(2 * num_modes)
    for off in (0, 1):
        qi, qj = 2 * i + off, 2 * j + off
        s[qi, qi] = a
        s[qi, qj] = b
        s[qj, qi] = -b
        s[qj, qj] = a
    return s


def apply_beamsplitter(state: GaussianState, modes, transmittance: float) -> GaussianState:
    """Mix two modes of a state on a beamsplitter of given transmittance."""
    i, j = modes
    _check_mode(state, i)
    _check_mode(state, j)
    s = beamsplitter_matrix(state.num_modes, modes, transmittance)
    return GaussianState(state.num_modes, s @ state.disp, s @ state.cov @ s.T)


def marginal_variance(state: GaussianState, mode: int, direction: Quadrature) -> float:
    """Homodyne measurement variance of one quadrature (= cov entry / 2)."""
    _check_mode(state, mode)
    idx = _quad_index(mode, direction)
    return float(state.cov[idx, idx]) / 2.0


# --- cipherstates and the beamsplitter attack -----------------------------


def cipher_modes(cipher: CipherState) -> list[GaussianState]:
    """The per-mode GaussianState descriptors of a product cipherstate."""
    return [
        GaussianState(1, cipher.disp[i], np.diag(cipher.cov_diag[i]))
        for i in range(cipher.num_modes)
    ]


def heterodyne_split(cipher: CipherState) -> tuple[CipherState, CipherState]:
    """Split every mode on a balanced beamsplitter against fresh vacuum.

    Each returned half holds the per-port marginal descriptors (displacement
    shrunk by sqrt 2, covariance averaged with the vacuum's). The pair does
    not carry the cross-port correlations; the game harness samples the two
    ports jointly instead.
    """
    disp = cipher.disp * _SQRT_HALF
    cov = (cipher.cov_diag + 1.0) / 2.0
    return CipherState(disp, cov), CipherState(disp.copy(), cov.copy())


def decode_half(
    half: CipherState,
    key: QecmKey,
    params: ProtocolParams,
    codec,
    rng: np.random.Generator,
):
    """Decode one beamsplitter port with full key knowledge: homodyne along the
    keyed directions, threshold at offsets/sqrt2, decode, unpad."""
    estimate = measure_codeword(key, half, rng, threshold_scale=_SQRT_HALF)
    decoded = codec.decode(estimate)
    if decoded is None:
        return None
    return base_decrypt(key.pad, decoded)


# --- round trips ------------------------------------------------------------


def run_round_trip_states(
    params: ProtocolParams,
    trials: int,
    rng: np.random.Generator,
    channel=None,
) -> RoundTripResult:
    """Object-level reference round trip: full key_gen/encrypt/decrypt per trial."""
    threshold_scale = 1.0
    failures = 0
    mode_flips = 0
    for _ in range(trials):
        codec = params.make_codec()
        key = key_gen(params, rng)
        message = random_bits(params.msg_len, rng)
        cipher = encrypt(key, message, params, codec)
        truth = codec.encode(base_encrypt(key.pad, message))
        if channel is not None:
            cipher = apply_channel(cipher, channel)
            threshold_scale = displacement_scale(channel)
        estimate = measure_codeword(key, cipher, rng, threshold_scale)
        mode_flips += int(np.count_nonzero(estimate != truth))
        decoded = codec.decode(estimate)
        recovered = None if decoded is None else base_decrypt(key.pad, decoded)
        if recovered is None or not np.array_equal(recovered, message):
            failures += 1
    return RoundTripResult.from_counts(
        trials, failures, trials * params.num_modes, mode_flips
    )
