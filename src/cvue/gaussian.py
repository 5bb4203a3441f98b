"""Phase-space toolkit for Gaussian optical modes.

An N-mode Gaussian state is parameterized by a displacement vector ``d``
(quadratures ordered q1, p1, ..., qN, pN) and a covariance matrix ``G``,
with phase-space density proportional to ``exp[-(x-d)^T G^{-1} (x-d)]``.
Under this convention a homodyne measurement of a single quadrature has
variance ``G_ii / 2``; the vacuum has ``G = I`` and shot-noise power 1/2.

Only the two axis-aligned quadrature directions are supported. This module
holds what the entanglement-based rejection oracle needs; the vacuum,
tensor-product and beamsplitter constructions that the tests build states
with live in ``cvue.reference``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Covariance matrices are symmetrized on construction and must satisfy
# min eigenvalue > -EIG_TOL to guard against drift in long operation chains.
EIG_TOL = 1e-12


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


@dataclass(frozen=True)
class HomodyneRecord:
    """Outcome of a single homodyne measurement plus the post-measurement state."""

    outcome: float
    mode_index: int
    direction: Quadrature
    conditional_state: GaussianState


def _quad_index(mode: int, direction: Quadrature) -> int:
    return 2 * mode + int(direction)


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.num_modes:
        raise IndexError(f"mode index {mode} out of range for {state.num_modes} modes")


def two_mode_squeezed(squeezing: float, displacement=None) -> GaussianState:
    """Two-mode squeezed state, optionally displaced.

    Covariance blocks are cosh(z) on the diagonal and sinh(z)*sigma_z between
    the modes, identical to mixing a q-squeezed with a p-squeezed vacuum on a
    balanced beamsplitter.
    """
    if squeezing < 0:
        raise ValueError("squeezing must be nonnegative")
    ch, sh = np.cosh(squeezing), np.sinh(squeezing)
    cov = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    if displacement is None:
        displacement = np.zeros(4)
    return GaussianState(2, np.asarray(displacement, dtype=float), cov)


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
) -> HomodyneRecord:
    """Sample a homodyne outcome and condition the remaining modes on it.

    The outcome is normal with mean equal to the displacement component and
    variance equal to half the corresponding covariance entry.
    """
    _check_mode(state, mode)
    idx = _quad_index(mode, direction)
    outcome = rng.normal(state.disp[idx], np.sqrt(state.cov[idx, idx] / 2.0))
    conditional = condition_on_homodyne(state, mode, direction, outcome)
    return HomodyneRecord(float(outcome), mode, Quadrature(direction), conditional)
