"""Cloning-game Monte Carlo: concrete splitting strategies for the three-player
game and the comparison of empirical winning rates against the security bound.

One game trial: the challenger samples a message and key and encrypts; Alice
splits the cipherstate (or measures it) before the key is revealed; Bob and
Charlie then decode their shares with full key knowledge and win iff both
recover the message.

Each strategy is a kernel that draws a block of trials' (bob, charlie) flip
counts, all a trial's outcome depends on: the keyed offset shifts outcome
and threshold alike and cancels, the flip law is symmetric in the codeword
bit (so every codeword is taken as all-zero), and a bounded-distance decoder
(the oracle codec or the shortened BCH code) succeeds iff a player's count
is <= max_errors. Every strategy treats each mode alone with fresh noise, so
a mode's (Bob flips, Charlie flips) pair is i.i.d. across the N modes, and
the counts are drawn exactly from that four-outcome law, with a few binomial
variates per trial whatever N is. On the beamsplitter one port flips with
probability p and both with p11 (``split_flip_probs``): Bob's count is
Bin(N, p) and, given it is b, Charlie's is Bin(b, p11/p) + Bin(N - b,
(p - p11)/(1 - p)). cvue.reference keeps the kernels that threshold
(block, N) Gaussian homodyne noise as the oracles for these draws.
forward_to_bob's Bob flips at protocol.trial_ber, the honest round trip's
flip rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import tau, win_prob_bound
from .channel import MAX_SQUEEZING, SQUEEZING_RANGE, flip_probability
from .protocol import ProtocolParams, trial_ber
from .stats import wilson_interval

# trials per strategy draw in run_cloning_game: caps a count array at 8 MB;
# draws made in blocks are the very numbers one draw gives
GAME_BLOCK = 1 << 20


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on [0, 1]: (nodes, weights)."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _port_flip_prob(alpha: float, cosh_r: float) -> float:
    # p = Phi(-alpha / sqrt(1/(2 cosh r) + 1/2))
    return flip_probability(alpha, math.sqrt(1.0 / cosh_r + 1.0))


def split_flip_probs(alpha: float, squeezing: float) -> tuple[float, float]:
    """Per-mode flip law of a vacuum beamsplitter's two ports: (p, p11), the
    probability that one port flips and that both do. With signal noise
    n_x ~ N(0, sigma_x^2), sigma_x^2 = 1/(2 cosh r), and vacuum u/sqrt2,
    u ~ N(0, 1), both ports flip iff n_x < -alpha - |u|/sqrt2, so
    p11 = 2 int_0^inf phi(u) Phi((-alpha - u/sqrt2) / sigma_x) du. The
    integrand is positive, so p11 keeps its relative accuracy however small;
    it decays over about sqrt2 sigma_x min(1, sigma_x / alpha), and a
    64-node Gauss-Legendre rule on 32 such lengths (at most 12) gives p11
    to about 1e-14."""
    # written so that NaN fails the comparisons
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0 <= squeezing <= MAX_SQUEEZING:
        raise ValueError(SQUEEZING_RANGE)
    cosh_r = math.cosh(squeezing)
    sd = math.sqrt(1.0 / cosh_r)  # sqrt2 sigma_x
    length = min(12.0, 32.0 * sd * min(1.0, sd / (math.sqrt(2.0) * alpha)))
    nodes, weights = _gauss_legendre()
    u = length * nodes
    both = np.exp(-0.5 * u * u) * flip_probability(alpha + u * math.sqrt(0.5), sd)
    p11 = 2.0 * length * float(weights @ both) / math.sqrt(2.0 * math.pi)
    return _port_flip_prob(alpha, cosh_r), p11


def heterodyne_split(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Mix every mode with vacuum v ~ N(0, 1/2) on a balanced beamsplitter;
    Bob homodynes port (x + v)/sqrt2, Charlie port (x - v)/sqrt2. The shared
    signal and vacuum correlate their flips: Charlie's count is drawn given
    Bob's from the joint per-mode law."""
    p, p11 = split_flip_probs(params.alpha, params.squeezing)
    n = params.num_modes
    bob = rng.binomial(n, p, size=block)
    charlie = rng.binomial(bob, p11 / p if p > 0 else 0.0)
    charlie += rng.binomial(n - bob, (p - p11) / (1.0 - p))
    return bob, charlie


def forward_to_bob(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Bob receives the entire cipherstate and flips like an honest receiver,
    Bin(N, ber_analytic); Charlie guesses the message blind, so Charlie's
    count is Bin(msg_len, 1/2) wrong bits and wins only at 0."""
    bob = rng.binomial(params.num_modes, trial_ber(params), size=block)
    return bob, rng.binomial(params.msg_len, 0.5, size=block)


def measure_guess_basis(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Alice heterodynes every mode before the key reveal and forwards the same
    classical record to both players. Her q or p outcome on the keyed axis is
    one port of the heterodyne split, and both players threshold it alike."""
    p = _port_flip_prob(params.alpha, math.cosh(params.squeezing))
    errors = rng.binomial(params.num_modes, p, size=block)
    return errors, errors


_STRATEGIES = {f.__name__: f for f in (heterodyne_split, forward_to_bob, measure_guess_basis)}
STRATEGY_IDS = tuple(_STRATEGIES)


def make_strategy(strategy_id: str):
    if strategy_id not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy_id!r}; expected one of {STRATEGY_IDS}")
    return _STRATEGIES[strategy_id]


@dataclass(frozen=True)
class GameOutcome:
    """Aggregated cloning-game statistics for one strategy/parameter pair."""

    strategy_id: str
    trials: int
    wins: int
    win_rate: float
    interval: tuple[float, float]
    per_bit_error_rates: tuple[float, float]
    per_player_successes: tuple[int, int]

    def __post_init__(self):
        if self.wins > self.trials:
            raise ValueError("wins cannot exceed trials")

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy_id,
            "trials": self.trials,
            "wins": self.wins,
            "win_rate": self.win_rate,
            "win_rate_low": self.interval[0],
            "win_rate_high": self.interval[1],
            "bit_error_bob": self.per_bit_error_rates[0],
            "bit_error_charlie": self.per_bit_error_rates[1],
            "successes_bob": self.per_player_successes[0],
            "successes_charlie": self.per_player_successes[1],
        }


def run_cloning_game(
    params: ProtocolParams, strategy, trials: int, rng: np.random.Generator
) -> GameOutcome:
    """Play the cloning game ``trials`` times, tallying the (Bob, Charlie)
    counts ``strategy`` draws from ``rng`` in blocks of GAME_BLOCK (Bob flips
    at protocol.trial_ber under forward_to_bob). A player succeeds iff its
    count is within its budget; a win needs both to succeed."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if strategy is forward_to_bob:
        charlie_budget, charlie_bits = 0, params.msg_len
    else:
        charlie_budget, charlie_bits = params.max_errors, params.num_modes
    wins = ok_bob = ok_charlie = err_bob = err_charlie = 0
    for start in range(0, trials, GAME_BLOCK):
        bob, charlie = strategy(params, min(GAME_BLOCK, trials - start), rng)
        bob_ok, charlie_ok = bob <= params.max_errors, charlie <= charlie_budget
        wins += int(np.count_nonzero(bob_ok & charlie_ok))
        ok_bob += int(np.count_nonzero(bob_ok))
        ok_charlie += int(np.count_nonzero(charlie_ok))
        err_bob += int(bob.sum())
        err_charlie += int(charlie.sum())
    return GameOutcome(
        strategy_id=strategy.__name__,
        trials=trials,
        wins=wins,
        win_rate=wins / trials if trials else 0.0,
        interval=wilson_interval(wins, trials),
        per_bit_error_rates=(
            err_bob / (trials * params.num_modes) if trials else 0.0,
            err_charlie / (trials * charlie_bits) if trials else 0.0,
        ),
        per_player_successes=(ok_bob, ok_charlie),
    )


@dataclass(frozen=True)
class BoundCheck:
    """Comparison of an empirical win rate against min(1, 2^(tau - n))."""

    win_bound: float
    upper_confidence: float
    holds: bool
    vacuous: bool
    slack: float

    def as_dict(self) -> dict:
        return dict(vars(self))


def check_against_bound(outcome: GameOutcome, params: ProtocolParams) -> BoundCheck:
    """Report whether the 95% upper confidence limit respects the bound."""
    bound = win_prob_bound(params.msg_len, tau(params.num_modes, params.max_errors, params.alpha))
    upper = outcome.interval[1]
    return BoundCheck(
        win_bound=bound,
        upper_confidence=upper,
        holds=upper <= bound,
        vacuous=bound >= 1.0,
        slack=bound - upper,
    )
