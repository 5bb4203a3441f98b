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
homodyne). eb_outcomes draws any number of challenger outcomes at once from
the caller's generator with stats.truncated_normal, the key offsets' sampler
(cvue.reference.eb_prepare builds whole cipherstates from them);
game_equivalence_test checks one such draw of signed outcomes and their
offsets; eb_rejection_oracle, an independent cross-check built from the
unrestricted two-mode squeezed state, accepts its samples in vectorised
blocks and conditions them all with one Schur complement. window_mass and
outcome_ks take the window's mass in centred erf form, exact at any r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import MAX_SQUEEZING, SQUEEZING_RANGE
from .protocol import ProtocolParams, trial_ber
from .stats import erf, ks_test, truncated_normal, two_proportion_ztest

# eb_rejection_oracle refuses a run whose expected number of draws,
# samples / window_mass, exceeds this (10**8 draws take ~2 s on a 2-vCPU VM)
MAX_EXPECTED_DRAWS = 10**8
# rejection-oracle draws per vectorised block; bounds the block arrays
REJECTION_BLOCK = 1 << 16


def _challenger_sigma(squeezing: float) -> float:
    # the challenger marginal is N(sign*alpha, cosh(r)/2), restricted to the window
    return math.sqrt(0.5 * math.cosh(squeezing))


def _check(squeezing: float, alpha: float) -> None:
    # written so that NaN fails the comparisons
    if not squeezing > 0:
        raise ValueError(
            "entanglement-based preparation needs positive squeezing "
            "(tanh r = 0 collapses the offsets)"
        )
    if not squeezing <= MAX_SQUEEZING:
        raise ValueError(SQUEEZING_RANGE)
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")


def window_mass(squeezing: float, alpha: float) -> float:
    """Normal mass of the restriction window, erf(alpha / (sigma sqrt 2)) in
    centred form, which keeps its relative accuracy at any squeezing: the
    expected acceptance ratio of eb_rejection_oracle."""
    _check(squeezing, alpha)
    return math.erf(alpha / (_challenger_sigma(squeezing) * math.sqrt(2.0)))


def outcome_ks(outcomes, squeezing: float, alpha: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test, (statistic, p-value), of challenger
    outcomes for codeword bit 0 against their law: N(alpha, cosh(r)/2)
    restricted to the window (0, 2 alpha), its CDF in centred erf form.
    Where alpha / (sigma sqrt 2) is below 2^-27 the density varies by less
    than 2^-54 across the window, so the law is the uniform one on
    (0, 2 alpha) to double precision, and its CDF u / (2 alpha) is used:
    there the erf form loses its digits, and divides 0 by 0 once the mass
    underflows."""
    mass = window_mass(squeezing, alpha)
    scale = _challenger_sigma(squeezing) * math.sqrt(2.0)
    if alpha < scale * 2.0**-27:
        return ks_test(outcomes, lambda u: u / (2.0 * alpha))
    return ks_test(outcomes, lambda u: (erf((u - alpha) / scale) + mass) / (2.0 * mass))


def eb_outcomes(signs, alpha: float, squeezing: float, rng: np.random.Generator):
    """Challenger outcomes and derived offsets for modes of the given signs.

    ``signs`` (+1/-1, any shape) encode the codeword bits; each outcome u is
    drawn from the challenger marginal restricted to (sign*alpha - alpha,
    sign*alpha + alpha), and its offset is (u - sign*alpha) * tanh(r).
    Returns (outcomes, offsets), both shaped like ``signs``.
    """
    _check(squeezing, alpha)
    outcomes = truncated_normal(_challenger_sigma(squeezing), alpha, rng, np.shape(signs))
    centers = alpha * np.asarray(signs, dtype=float)
    outcomes += centers
    offsets = outcomes - centers
    offsets *= math.tanh(squeezing)
    return outcomes, offsets


def tmsv_covariance(squeezing: float) -> np.ndarray:
    """Covariance of the two-mode squeezed vacuum, ordered (q1, p1, q2, p2).

    Blocks are cosh(r) on the diagonal and sinh(r)*sigma_z between the modes,
    identical to mixing a q-squeezed with a p-squeezed vacuum on a balanced
    beamsplitter.
    """
    ch, sh = math.cosh(squeezing), math.sinh(squeezing)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )


def eb_rejection_oracle(
    squeezing: float, alpha: float, samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Independent realization of the restricted pair (codeword bit 0): take
    the two-mode squeezed vacuum displaced by alpha in both q quadratures,
    homodyne the challenger's q, and keep the outcomes that land in the
    restriction window (0, 2 alpha).

    Outcomes are drawn from the challenger's q marginal in blocks of at most
    REJECTION_BLOCK. Every accepted outcome u conditions the remote mode
    through the Schur complement of the challenger's q entry: the
    conditional covariance is the same for every u, and the conditional
    displacement is affine in u.

    Returns (outcomes, cond_disp, cond_cov, attempts): ``samples`` accepted
    outcomes, their (samples, 2) remote (q, p) displacements, the 2x2 remote
    covariance, and the number of draws up to and including the last
    accepted one (negative binomial, acceptance ratio window_mass).
    Refuses, before drawing, a run expected to need more than
    MAX_EXPECTED_DRAWS draws.
    """
    mass = window_mass(squeezing, alpha)
    if not samples <= mass * MAX_EXPECTED_DRAWS:
        raise ValueError(
            f"squeezing {squeezing} leaves a restriction window of normal mass {mass:.3g}; "
            f"{samples} rejection samples would need more than {MAX_EXPECTED_DRAWS:.0e} draws"
        )
    cov = tmsv_covariance(squeezing)
    disp = np.array([alpha, 0.0, alpha, 0.0])
    sigma = math.sqrt(cov[0, 0] / 2.0)
    lo, hi = disp[0] - alpha, disp[0] + alpha
    outcomes = np.empty(samples)
    found = attempts = 0
    while found < samples:
        # enough draws for the remaining samples on average, plus some slack
        block = min(REJECTION_BLOCK, int((samples - found) / mass * 1.1) + 16)
        draws = rng.normal(disp[0], sigma, size=block)
        hits = np.flatnonzero((lo < draws) & (draws < hi))[: samples - found]
        outcomes[found : found + hits.size] = draws[hits]
        found += hits.size
        attempts += int(hits[-1]) + 1 if found == samples else block
    gain = cov[2:, 0] / cov[0, 0]
    cond_cov = cov[2:, 2:] - np.outer(gain, cov[0, 2:])
    cond_disp = disp[2:] + np.outer(outcomes - disp[0], gain)
    return outcomes, cond_disp, cond_cov, attempts


def conditional_cov_error(cond_cov: np.ndarray, squeezing: float) -> float:
    """Largest error of the remote conditional covariance relative to its
    closed form diag(1/cosh r, cosh r): entry (i, j) is scaled by
    sqrt(d_i d_j), so a diagonal entry gives its relative error. An absolute
    error cannot see the narrow variance 1/cosh r vanish at large r."""
    ch = math.cosh(squeezing)
    closed = np.array([1 / ch, ch])
    return float(np.max(np.abs(cond_cov - np.diag(closed)) / np.sqrt(np.outer(closed, closed))))


@dataclass(frozen=True)
class EquivalenceReport:
    """Statistical comparison of prepare-and-send vs entanglement-based runs.
    ``max_candidate_error`` and ``outcome_range_ok`` cover the ``samples``
    direct draws; ``trials`` x ``modes_per_trial`` only sizes the flip arms."""

    trials: int
    modes_per_trial: int
    flip_rate_direct: float
    flip_rate_eb: float
    z_statistic: float
    p_value: float
    max_candidate_error: float
    outcome_range_ok: bool

    @classmethod
    def from_counts(cls, params, trials, flips_direct, flips_eb, max_candidate_err, range_ok):
        """Compare the two arms' flip counts with a two-proportion z-test."""
        total = trials * params.num_modes
        z, p = two_proportion_ztest(flips_direct, total, flips_eb, total)
        return cls(
            trials=trials,
            modes_per_trial=params.num_modes,
            flip_rate_direct=flips_direct / total,
            flip_rate_eb=flips_eb / total,
            z_statistic=z,
            p_value=p,
            max_candidate_error=max_candidate_err,
            outcome_range_ok=range_ok,
        )

    def as_dict(self) -> dict:
        return dict(vars(self))


def game_equivalence_test(
    params: ProtocolParams, trials: int, samples: int, rng: np.random.Generator
) -> tuple[EquivalenceReport, np.ndarray]:
    """Check the two preparations agree where the protocol can see.

    The entanglement-based arm draws ``samples`` challenger outcomes u with
    uniform signs s = +-1 (the codeword bits, uniform under the one-time
    pad), derives each offset k, and verifies algebraically that u is
    k/tanh(r) + s alpha and lies in its bit's window: (0, 2 alpha) for a 0,
    (-2 alpha, 0) for a 1. Both checks run in the sided frame u' = s u,
    k' = s k (exact for s = +-1), where they read 0 < u' < 2 alpha and
    k'/tanh r + alpha - u' = 0. The sided outcomes follow the bit-0 law,
    N(alpha, cosh(r)/2) on (0, 2 alpha), and are returned with the report
    for a KS test against it.

    The two flip arms compare ``trials`` N modes each with a two-proportion
    z-test. That comparison holds by construction: measure_codeword
    thresholds the keyed-axis outcome alpha*s + k + noise at the same k that
    displaced it, so a 0 flips iff noise < -alpha (a 1 iff noise > alpha,
    the same law) whatever the offset or its law, with noise
    N(0, 1/(2 cosh r)): each arm's count is one
    Binomial(trials * N, ber_analytic(alpha, r)) draw. As in cvue.adversary,
    the direction string is not sampled: it only picks which quadrature is
    the keyed axis.
    """
    if trials < 1 or samples < 1:
        raise ValueError("need at least one trial and one sample")
    if trials * params.num_modes >= 2**63:
        raise ValueError("trials * num_modes must be below 2**63")
    alpha = params.alpha
    beta = trial_ber(params)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=samples)
    outcomes, offsets = eb_outcomes(signs, alpha, params.squeezing, rng)
    outcomes *= signs
    range_ok = bool(outcomes.min() > 0.0 and outcomes.max() < 2.0 * alpha)
    offsets /= math.tanh(params.squeezing)
    offsets *= signs
    offsets += alpha
    offsets -= outcomes
    max_candidate_err = float(np.abs(offsets, out=offsets).max())
    direct, eb = (int(rng.binomial(trials * params.num_modes, beta)) for _arm in range(2))
    report = EquivalenceReport.from_counts(params, trials, direct, eb, max_candidate_err, range_ok)
    return report, outcomes
