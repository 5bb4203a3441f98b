"""Cloning-game Monte Carlo: concrete splitting strategies for the three-player
game and the comparison of empirical winning rates against the security bound.

One game trial: the challenger samples a message and key and encrypts; Alice
splits the cipherstate (or measures it) before the key is revealed; Bob and
Charlie then decode their shares with full key knowledge and win iff both
recover the message.

Each strategy is a kernel that returns per-trial (bob, charlie) error counts
for a block of trials, sampled from the homodyne noise alone. Three facts
make that exact:

* the keyed offset k shifts the outcome and the threshold alike, so it
  cancels and neither k nor the direction string is sampled;
* the flip law is symmetric in the codeword bit (a 1 flips on the mirror
  image of the noise that flips a 0), so every codeword is taken as all-zero;
* a bounded-distance decoder (the oracle codec or the shortened BCH code)
  returns the sent message iff the word carries at most t flips, so a player
  succeeds iff their count is <= max_errors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import tau, win_prob_bound
from .protocol import ProtocolParams
from .stats import wilson_interval

# trials per cloning-game block; bounds the (block, N) noise arrays (32 MB
# per float64 array at N = 1000)
GAME_BLOCK = 4000


def _signal(params: ProtocolParams, block: int, rng: np.random.Generator) -> np.ndarray:
    """Keyed-quadrature outcomes of an all-zero codeword, offset removed:
    N(alpha, 1/(2 cosh r)) per mode; an outcome below 0 is a flip."""
    std = math.sqrt(0.5 / math.cosh(params.squeezing))
    return rng.normal(params.alpha, std, size=(block, params.num_modes))


def heterodyne_split(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Mix every mode with vacuum v ~ N(0, 1/2) on a balanced beamsplitter;
    Bob homodynes port (x + v)/sqrt2, Charlie port (x - v)/sqrt2. The shared
    signal and vacuum correlate their flips."""
    x = _signal(params, block, rng)
    v = rng.normal(0.0, math.sqrt(0.5), size=x.shape)
    return np.count_nonzero(x + v < 0, axis=1), np.count_nonzero(x - v < 0, axis=1)


def forward_to_bob(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Bob receives the entire cipherstate; Charlie guesses the message blind,
    so Charlie's count is Bin(msg_len, 1/2) wrong bits and wins only at 0."""
    bob = np.count_nonzero(_signal(params, block, rng) < 0, axis=1)
    return bob, rng.binomial(params.msg_len, 0.5, size=block)


def measure_guess_basis(params: ProtocolParams, block: int, rng: np.random.Generator):
    """Alice heterodynes every mode before the key reveal and forwards the same
    classical record to both players. Her q or p outcome on the keyed axis is
    one port of the heterodyne split, and both players threshold it alike."""
    errors = heterodyne_split(params, block, rng)[0]
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
    """Play the cloning game ``trials`` times, in blocks of GAME_BLOCK
    trials drawn from ``rng``; a win needs both players to succeed."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    t = params.max_errors
    if strategy is forward_to_bob:
        charlie_budget, charlie_bits = 0, params.msg_len
    else:
        charlie_budget, charlie_bits = t, params.num_modes
    wins = ok_bob = ok_charlie = err_bob = err_charlie = 0
    for start in range(0, trials, GAME_BLOCK):
        block = min(GAME_BLOCK, trials - start)
        bob, charlie = strategy(params, block, rng)
        bob_ok, charlie_ok = bob <= t, charlie <= charlie_budget
        ok_bob += int(bob_ok.sum())
        ok_charlie += int(charlie_ok.sum())
        wins += int((bob_ok & charlie_ok).sum())
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
        return asdict(self)


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
