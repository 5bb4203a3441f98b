"""Object-level reference implementations that the tests use as oracles.

Nothing in the simulator calls into this module. Each function here is the
slow, literal form of something the fast paths compute directly:

* the N-mode Gaussian phase-space toolkit (GaussianState, two-mode squeezed
  states, homodyne sampling with exact conditioning, vacuum, squeezed
  coherent states, tensor products, beamsplitters, marginal variances) that
  the per-mode descriptor arithmetic in protocol, channel, adversary and
  ebprep is checked against;
* heterodyne_split / decode_half, the descriptor-level beamsplitter attack
  that the flip-count kernel adversary.heterodyne_split is checked against;
* noise_heterodyne_split, noise_forward_to_bob and noise_measure_guess_basis,
  the cloning-game kernels that threshold (block, N) Gaussian homodyne noise,
  which the exact flip-count draws of cvue.adversary are checked against;
* cipher_modes, a cipherstate as a list of single-mode GaussianState values;
* apply_channel, the channel's map on a cipherstate's descriptors, which
  channel.noisy_ber and run_round_trip's channel branch reduce to one
  per-mode flip probability;
* run_round_trip_states, the full key_gen/encrypt/decrypt loop that
  protocol.run_round_trip's flip-count shortcut is checked against, and
  run_round_trip_binomial, one Binomial(N, beta) flip count per trial,
  the per-trial kernel its histogram draw is checked against;
* eb_prepare, a whole cipherstate prepared the entanglement-based way from
  ebprep.eb_outcomes, and game_equivalence_states, the per-trial
  key_gen/encrypt/eb_prepare loop that ebprep.game_equivalence_test's flip
  arms and checks are compared with;
* noise_flips, one equivalence arm counted mode by mode from homodyne noise,
  which the arm's one Binomial draw in game_equivalence_test is checked
  against;
* bch_encode_scalar, the bigint long-division encoder that
  bch.BchCode.encode's parity table is checked against, and
  bch_decode_scalar, the per-bit syndrome / full 2t-step Berlekamp-Massey /
  per-point Chien search decoder, shortened by zero-padding to the
  primitive length, that bch.BchCode.decode's table kernels, t-step
  Berlekamp-Massey and sent-positions-only Chien search are checked against;
* figure_data_scalar, the figure tables built with one scalar closed-form
  call per grid point, which bounds.figure_data's array evaluations must
  equal bit for bit;
* helpers that only the tests call: load_key and hex_to_bits (reading back
  a ``cvue keygen`` key file and checking its label), validate_key and
  balanced_string_unrank (the key's invariants and the inverse of its label
  rank), identity_channel, and the monogamy-game bounds
  monogamy_bound_exact and monogamy_bound_relaxed, paper identities the
  acceptance tests check.

This module imports scipy, a dependency of the ``test`` extra only; the
simulator itself needs numpy alone.

An N-mode Gaussian state is parameterized by a displacement vector ``d``
(quadratures ordered q1, p1, ..., qN, pN) and a covariance matrix ``G``,
with phase-space density proportional to ``exp[-(x-d)^T G^{-1} (x-d)]``.
Under this convention a homodyne measurement of a single quadrature has
variance ``G_ii / 2``; the vacuum has ``G = I`` and shot-noise power 1/2.
Only the two axis-aligned quadrature directions are supported.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp

from .bch import BchCode
from .bounds import (
    _grid_number,
    _grid_triple,
    _grid_values,
    asymptotic_margin,
    ber_analytic,
    binary_entropy,
    conjugate_coding_bound,
    tau,
    win_prob_bound,
)
from .channel import ChannelParams, displacement_scale, noisy_ber
from .codec import base_decrypt, base_encrypt, check_bits, random_bits
from .ebprep import EquivalenceReport, eb_outcomes, tmsv_covariance
from .protocol import (
    CipherState,
    ProtocolParams,
    QecmKey,
    RoundTripResult,
    _mode_arrays,
    encrypt,
    key_gen,
    measure_codeword,
    trial_ber,
)

_SQRT_HALF = math.sqrt(0.5)
# Covariance matrices are symmetrized on construction and must satisfy
# min eigenvalue > -EIG_TOL to guard against drift in long operation chains.
EIG_TOL = 1e-12


# --- Gaussian toolkit -----------------------------------------------------

class Quadrature(enum.IntEnum):
    """Axis-aligned measurement direction; the int value doubles as a key bit."""

    Q = 0
    P = 1


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianState:
    """Immutable Gaussian state: displacement vector plus covariance matrix.

    Attributes:
        num_modes: number of optical modes N.
        disp: displacement vector, shape (2N,), ordered (q1, p1, ..., qN, pN).
        cov: covariance matrix, shape (2N, 2N), symmetric positive-definite.
    """

    num_modes: int
    disp: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.num_modes < 0:
            raise ValueError("num_modes must be nonnegative")
        d = np.asarray(self.disp, dtype=float).reshape(-1)
        c = np.asarray(self.cov, dtype=float)
        dim = 2 * self.num_modes
        if d.shape != (dim,):
            raise ValueError(f"displacement must have shape ({dim},), got {d.shape}")
        if c.shape != (dim, dim):
            raise ValueError(f"covariance must have shape ({dim}, {dim}), got {c.shape}")
        if dim:
            if not np.allclose(c, c.T, atol=1e-9, rtol=1e-9):
                raise ValueError("covariance must be symmetric")
            c = (c + c.T) / 2.0
            if np.linalg.eigvalsh(c).min() <= -EIG_TOL:
                raise ValueError("covariance must be positive-definite")
        object.__setattr__(self, "disp", _as_readonly(d))
        object.__setattr__(self, "cov", _as_readonly(c))


def _quad_index(mode: int, direction: Quadrature) -> int:
    return 2 * mode + int(direction)


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.num_modes:
        raise IndexError(f"mode index {mode} out of range for {state.num_modes} modes")


def two_mode_squeezed(squeezing: float, displacement=None) -> GaussianState:
    """Two-mode squeezed state (ebprep.tmsv_covariance), optionally displaced."""
    if squeezing < 0:
        raise ValueError("squeezing must be nonnegative")
    if displacement is None:
        displacement = np.zeros(4)
    return GaussianState(2, np.asarray(displacement, dtype=float), tmsv_covariance(squeezing))


def condition_on_homodyne(
    state: GaussianState, mode: int, direction: Quadrature, outcome: float
) -> GaussianState:
    """Post-measurement state of the remaining modes after a homodyne outcome.

    Gaussian conditioning on the measured quadrature (Schur complement of its
    row/column); the conjugate quadrature of the measured mode is traced out,
    so the result has one mode fewer.
    """
    _check_mode(state, mode)
    if state.num_modes == 1:
        return GaussianState(0, np.zeros(0), np.zeros((0, 0)))
    idx = _quad_index(mode, direction)
    keep = [k for k in range(2 * state.num_modes) if k not in (2 * mode, 2 * mode + 1)]
    cvar = state.cov[idx, idx]
    gain = state.cov[keep, idx] / cvar
    disp = state.disp[keep] + gain * (outcome - state.disp[idx])
    cov = state.cov[np.ix_(keep, keep)] - np.outer(gain, state.cov[idx, keep])
    return GaussianState(state.num_modes - 1, disp, cov)


def homodyne_sample(
    state: GaussianState, mode: int, direction: Quadrature, rng: np.random.Generator
) -> tuple[float, GaussianState]:
    """Sample a homodyne outcome and condition the remaining modes on it.

    The outcome is normal with mean equal to the displacement component and
    variance equal to half the corresponding covariance entry. Returns
    (outcome, conditional state of the other modes).
    """
    _check_mode(state, mode)
    idx = _quad_index(mode, direction)
    outcome = float(rng.normal(state.disp[idx], np.sqrt(state.cov[idx, idx] / 2.0)))
    return outcome, condition_on_homodyne(state, mode, direction, outcome)


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
    port_key = QecmKey(key.pad, key.directions, key.offsets * _SQRT_HALF)
    estimate = measure_codeword(port_key, half, rng)
    decoded = codec.decode(estimate)
    if decoded is None:
        return None
    return base_decrypt(key.pad, decoded)


def _game_signal(params: ProtocolParams, block: int, rng: np.random.Generator) -> np.ndarray:
    """Keyed-quadrature outcomes of an all-zero codeword, offset removed:
    N(alpha, 1/(2 cosh r)) per mode; an outcome below 0 is a flip."""
    std = math.sqrt(0.5 / math.cosh(params.squeezing))
    return rng.normal(params.alpha, std, size=(block, params.num_modes))


def noise_flips(params: ProtocolParams, modes: int, rng: np.random.Generator) -> int:
    """One game_equivalence_test flip arm over ``modes`` modes, mode by mode:
    the count of keyed-axis noise draws N(0, 1/(2 cosh r)) below -alpha."""
    std = math.sqrt(0.5 / math.cosh(params.squeezing))
    return int(np.count_nonzero(rng.normal(0.0, std, size=modes) < -params.alpha))


def noise_heterodyne_split(params: ProtocolParams, block: int, rng: np.random.Generator):
    """adversary.heterodyne_split from (block, N) homodyne noise: Bob's port
    (x + v)/sqrt2 and Charlie's (x - v)/sqrt2 with vacuum v ~ N(0, 1/2)."""
    x = _game_signal(params, block, rng)
    v = rng.normal(0.0, _SQRT_HALF, size=x.shape)
    return np.count_nonzero(x + v < 0, axis=1), np.count_nonzero(x - v < 0, axis=1)


def noise_forward_to_bob(params: ProtocolParams, block: int, rng: np.random.Generator):
    """adversary.forward_to_bob from (block, N) homodyne noise."""
    bob = np.count_nonzero(_game_signal(params, block, rng) < 0, axis=1)
    return bob, rng.binomial(params.msg_len, 0.5, size=block)


def noise_measure_guess_basis(params: ProtocolParams, block: int, rng: np.random.Generator):
    """adversary.measure_guess_basis from (block, N) homodyne noise."""
    errors = noise_heterodyne_split(params, block, rng)[0]
    return errors, errors


# --- round trips ------------------------------------------------------------


def apply_channel(cipher: CipherState, channel: ChannelParams) -> CipherState:
    """Transform a cipherstate's descriptors through the channel.

    The map is deterministic on Gaussian descriptors (the added noise lives
    in the covariance). The identity channel returns the input unchanged,
    bit-exactly.
    """
    t = channel.transmittance
    if t == 1.0 and channel.excess_noise == 0.0:
        return cipher
    disp = displacement_scale(channel) * cipher.disp
    cov = t * cipher.cov_diag + (1.0 - t + t * channel.excess_noise)
    return CipherState(disp, cov)


def run_round_trip_states(
    params: ProtocolParams,
    trials: int,
    rng: np.random.Generator,
    channel=None,
) -> RoundTripResult:
    """Object-level reference round trip: full key_gen/encrypt/decrypt per
    trial; on a channel the receiver thresholds at the offsets scaled as the
    displacements are."""
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
            key = QecmKey(key.pad, key.directions, key.offsets * displacement_scale(channel))
        estimate = measure_codeword(key, cipher, rng)
        mode_flips += int(np.count_nonzero(estimate != truth))
        decoded = codec.decode(estimate)
        recovered = None if decoded is None else base_decrypt(key.pad, decoded)
        if recovered is None or not np.array_equal(recovered, message):
            failures += 1
    return RoundTripResult.from_counts(
        trials, failures, trials * params.num_modes, mode_flips
    )


def run_round_trip_binomial(
    params: ProtocolParams,
    trials: int,
    rng: np.random.Generator,
    channel=None,
) -> RoundTripResult:
    """Round trip with one Binomial(num_modes, beta) flip count drawn per
    trial at protocol.trial_ber: the law protocol.run_round_trip draws the
    histogram of, one trial at a time."""
    counts = rng.binomial(params.num_modes, trial_ber(params, channel), size=trials)
    return RoundTripResult.from_counts(
        trials,
        np.count_nonzero(counts > params.max_errors),
        trials * params.num_modes,
        counts.sum(),
    )


def eb_prepare(
    params: ProtocolParams,
    pad: np.ndarray,
    directions: np.ndarray,
    message: np.ndarray,
    rng: np.random.Generator,
    codec,
) -> tuple[np.ndarray, np.ndarray, CipherState]:
    """Prepare a cipherstate the entanglement-based way.

    Runs the classical layer with the given pad, samples every mode's
    challenger outcome and derives its offset; the conditional cipherstate
    has exactly the direct encryption map's per-mode descriptors.
    Returns (outcomes, offsets, cipher).
    """
    check_bits(message)
    codeword = codec.encode(base_encrypt(pad, message))
    signs = 1.0 - 2.0 * np.asarray(codeword, dtype=float)
    outcomes, offsets = eb_outcomes(signs, params.alpha, params.squeezing, rng)
    disp, cov = _mode_arrays(codeword, directions, offsets, params.alpha, params.squeezing)
    return outcomes, offsets, CipherState(disp, cov)


def game_equivalence_states(
    params: ProtocolParams, trials: int, rng: np.random.Generator
) -> EquivalenceReport:
    """Object-level reference equivalence test: per trial a fresh key and
    message go through the direct encryption map and through eb_prepare
    (same pad and directions), and both cipherstates are measured with the
    keyed directions and their own offsets."""
    if trials < 1:
        raise ValueError("need at least one trial")
    tanh_r = math.tanh(params.squeezing)
    flips_direct = flips_eb = 0
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

        outcomes, offsets, eb_cipher = eb_prepare(
            params, key.pad, key.directions, message, child, codec
        )
        eb_key = QecmKey(key.pad, key.directions, offsets)
        est_eb = measure_codeword(eb_key, eb_cipher, child)
        flips_eb += int(np.count_nonzero(est_eb != codeword))

        reconstructed = offsets / tanh_r + signs * params.alpha
        max_candidate_err = max(
            max_candidate_err, float(np.max(np.abs(reconstructed - outcomes)))
        )
        if np.any(np.abs(outcomes) >= 2.0 * params.alpha):
            range_ok = False
    return EquivalenceReport.from_counts(
        params, trials, flips_direct, flips_eb, max_candidate_err, range_ok
    )


# --- BCH encoding and decoding ------------------------------------------------


def _poly_mod(a: int, b: int) -> int:
    # remainder of GF(2)[x] division
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def bch_encode_scalar(code: BchCode, message: np.ndarray) -> np.ndarray:
    """Reference systematic encode by bigint long division: the message bits
    shifted to positions parity_len..length-1, plus their remainder mod g."""
    packed = np.packbits(np.asarray(message, dtype=np.uint8), bitorder="little")
    shifted = int.from_bytes(packed.tobytes(), "little") << code.parity_len
    word = shifted | _poly_mod(shifted, code.generator)
    raw = np.frombuffer(word.to_bytes((code.length + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=code.length, bitorder="little")


def _bch_syndromes(code: BchCode, positions) -> list[int]:
    # S_j = r(alpha^j) = XOR of alpha^{i*j} over set bit positions i
    out = []
    for j in range(1, 2 * code.t + 1):
        s = 0
        for i in positions:
            s ^= code._exp[(int(i) * j) % code.order]
        out.append(s)
    return out


def _bch_berlekamp_massey(code: BchCode, syndromes: list[int]):
    # the error-locator polynomial as a coefficient list, or None past t
    sigma = [1]
    prev = [1]
    length = 0
    shift = 1
    prev_disc = 1
    for n, s_n in enumerate(syndromes):
        disc = s_n
        for i in range(1, length + 1):
            if i < len(sigma):
                disc ^= code._gf_mul(sigma[i], syndromes[n - i])
        if disc == 0:
            shift += 1
            continue
        coeff = code._gf_mul(disc, code._exp[code.order - code._log[prev_disc]])
        update = [0] * shift + [code._gf_mul(coeff, c) for c in prev]
        summed = [a ^ b for a, b in itertools.zip_longest(sigma, update, fillvalue=0)]
        if 2 * length <= n:
            length = n + 1 - length
            prev = sigma
            prev_disc = disc
            shift = 1
        else:
            shift += 1
        sigma = summed
    while sigma and sigma[-1] == 0:
        sigma.pop()
    if len(sigma) - 1 > code.t:
        return None
    return sigma


def _bch_chien_search(code: BchCode, sigma: list[int]) -> np.ndarray:
    # every root position i in [0, order), pinned ones included
    errors = []
    for i in range(code.order):
        # evaluate sigma at alpha^{-i}; a root marks an error at position i
        val = 0
        for k, coeff in enumerate(sigma):
            if coeff:
                val ^= code._exp[(code._log[coeff] + k * (code.order - i)) % code.order]
        if val == 0:
            errors.append(i)
    return np.array(errors, dtype=np.int64)


def bch_decode_scalar(code: BchCode, word: np.ndarray):
    """Reference bounded-distance decode with scalar loops: the message bits,
    or None when decoding fails. Shortening by its definition: the word is
    padded with zeros to the primitive length ``order`` and decoded there;
    the corrected word must have all-zero syndromes, and a correction in a
    padded position fails the decode."""
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (code.length,):
        raise ValueError(f"word must have length {code.length}")
    full = np.concatenate([word, np.zeros(code.order - code.length, dtype=np.uint8)])
    syndromes = _bch_syndromes(code, np.flatnonzero(full))
    if not any(syndromes):
        return word[code.parity_len :].copy()
    locator = _bch_berlekamp_massey(code, syndromes)
    if locator is None:
        return None
    errors = _bch_chien_search(code, locator)
    if errors.size != len(locator) - 1:
        return None
    full[errors] ^= 1
    if any(_bch_syndromes(code, np.flatnonzero(full))) or full[code.length :].any():
        return None
    return full[code.parity_len : code.length]


# --- figure tables ------------------------------------------------------------


def _linspace(grid: dict, key: str, default) -> np.ndarray:
    return np.linspace(*_grid_triple(grid, key, default))


def figure_data_scalar(figure_id: str, grid: dict | None = None):
    """bounds.figure_data with one scalar call per grid point: the same
    grid readers, columns and row order, and a ChannelParams per (T, xi)."""
    grid = dict(grid or {})
    if figure_id == "fig1":
        alphas = _linspace(grid, "alpha", (0.02, 1.2, 60))
        squeezings = _linspace(grid, "squeezing", (2.0, 5.0, 61))
        rows = [
            (float(a), float(r), float(asymptotic_margin(a, r)))
            for a in alphas
            for r in squeezings
        ]
        return ["alpha", "squeezing", "margin"], rows
    if figure_id == "fig2a":
        squeezings = _linspace(grid, "squeezing", (2.0, 4.5, 101))
        transmittances = _grid_values(grid, "transmittance", [1.0, 0.95, 0.9, 0.8])
        alpha = _grid_number(grid, "alpha", 0.4)
        xi = _grid_number(grid, "excess_noise", 0.001)
        rows = [
            (float(r), float(t), noisy_ber(alpha, r, ChannelParams(t, xi)))
            for t in transmittances
            for r in squeezings
        ]
        return ["squeezing", "transmittance", "beta_noisy"], rows
    if figure_id == "fig2b":
        transmittances = _linspace(grid, "transmittance", (0.5, 1.0, 51))
        noises = _linspace(grid, "excess_noise", (0.0, 0.05, 51))
        alpha = _grid_number(grid, "alpha", 0.4)
        squeezing = _grid_number(grid, "squeezing", 3.6)
        rows = [
            (float(t), float(xi), noisy_ber(alpha, squeezing, ChannelParams(t, xi)))
            for t in transmittances
            for xi in noises
        ]
        return ["transmittance", "excess_noise", "beta_noisy"], rows
    if figure_id == "fig4":
        start, stop, count = _grid_triple(grid, "msg_len", (8, 1200, 120))
        msg_lens = np.unique(np.rint(np.geomspace(start, stop, count)).astype(int))
        alpha = _grid_number(grid, "alpha", 0.4)
        squeezing = _grid_number(grid, "squeezing", 3.6)
        error_fraction = _grid_number(grid, "error_fraction", 0.035)
        rate = 1.0 - binary_entropy(ber_analytic(alpha, squeezing))
        rows = []
        for n in msg_lens:
            num_modes = int(round(n / rate))
            num_modes += num_modes % 2  # balanced direction string needs even N
            errors = int(round(error_fraction * num_modes))
            bound = win_prob_bound(int(n), tau(num_modes, errors, alpha))
            rows.append(
                (int(n), 2.0 ** -int(n), conjugate_coding_bound(int(n)), bound)
            )
        return ["msg_len", "ideal", "conjugate_coding", "cv_scheme"], rows
    raise ValueError(f"unknown figure id {figure_id!r}")


# --- test-only helpers --------------------------------------------------------


def load_key(path) -> tuple[QecmKey, dict]:
    """Read a key file back into a QecmKey; returns (key, params dict).

    The key is built from the pad, directions and offsets; the file's label
    must be the rank of its direction string."""
    raw = json.loads(Path(path).read_text())
    params = raw["params"]
    pad = hex_to_bits(raw["s"], int(params["msg_len"]))
    directions = hex_to_bits(raw["phi"], int(params["num_modes"]))
    key = QecmKey(pad, directions, np.array(raw["k"], dtype=float))
    if int(raw["label"]) != key.label:
        raise ValueError("label does not match the direction string")
    return key, params


def hex_to_bits(hexstr: str, length: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8)
    bits = np.unpackbits(raw)[:length]
    if bits.size != length:
        raise ValueError("hex string too short for requested bit length")
    return bits.astype(np.uint8)


def validate_key(key: QecmKey, params: ProtocolParams) -> None:
    """Check a key against the parameter set it claims to belong to."""
    if key.pad.size != params.msg_len:
        raise ValueError("pad length does not match params")
    if key.num_modes != params.num_modes:
        raise ValueError("direction string length does not match params")
    bound = params.alpha * math.tanh(params.squeezing)
    if np.any(np.abs(key.offsets) >= bound) and params.squeezing > 0:
        raise ValueError("offsets must lie strictly inside the truncation interval")
    if params.squeezing == 0 and np.any(key.offsets != 0):
        raise ValueError("offsets must be zero at zero squeezing")


def balanced_string_unrank(label: int, length: int, weight: int | None = None) -> np.ndarray:
    """Inverse of balanced_string_rank for strings of the given length/weight."""
    if weight is None:
        weight = length // 2
    if not 0 <= label < comb(length, weight):
        raise ValueError("label out of range for this weight class")
    bits = np.zeros(length, dtype=np.uint8)
    remaining = label
    p = length - 1
    value = comb(p, weight)  # C(p, i) along the walk
    for i in range(weight, 0, -1):
        while value > remaining:
            value = value * (p - i) // p
            p -= 1
        bits[p] = 1
        remaining -= value
        # move to C(p-1, i-1) for the next, lower one-position
        value = value * i // p if p else 0
        p -= 1
    return bits


def identity_channel() -> ChannelParams:
    return ChannelParams(1.0, 0.0)


def _log_comb(n, k):
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _check_monogamy_args(num_modes: int, delta: float, eps: float) -> None:
    if num_modes < 2 or num_modes % 2 != 0:
        raise ValueError("num_modes must be a positive even integer")
    if delta <= 0 or eps <= 0:
        raise ValueError("error-neighborhood half-widths must be positive")


def monogamy_bound_exact(num_modes: int, delta: float, eps: float) -> float:
    """Winning-probability bound for the restricted monogamy game:
    sum_k C(M,k)^2 (2 sqrt(delta*eps))^k / C(N, M) with M = N/2.

    Computed in log space; equals 1 exactly at 2 sqrt(delta*eps) = 1 by the
    Vandermonde identity sum_k C(M,k)^2 = C(2M, M).
    """
    _check_monogamy_args(num_modes, delta, eps)
    x = 2.0 * math.sqrt(delta * eps)
    if x == 1.0:
        return 1.0
    half = num_modes // 2
    ks = np.arange(half + 1)
    log_terms = 2.0 * _log_comb(half, ks)
    if x == 0.0:
        log_terms = log_terms[:1]
    else:
        log_terms = log_terms + ks * math.log(x)
    return float(math.exp(logsumexp(log_terms) - _log_comb(num_modes, half)))


def monogamy_bound_relaxed(num_modes: int, delta: float, eps: float) -> float:
    """Relaxed closed form sqrt(e) * (1/2 + sqrt(delta*eps))^(N/2)."""
    _check_monogamy_args(num_modes, delta, eps)
    half_exponent = (num_modes / 2.0) * math.log(0.5 + math.sqrt(delta * eps))
    return math.exp(0.5 + half_exponent)
