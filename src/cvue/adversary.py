"""Cloning-game Monte Carlo: concrete splitting strategies for the three-player
game and the comparison of empirical winning rates against the security bound.

One game trial: the challenger samples a message and key and encrypts; Alice
splits the cipherstate (or measures it) before the key is revealed; Bob and
Charlie then decode their shares with full key knowledge and win iff both
recover the message. The oracle codec decides success by flip count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import base_decrypt, base_encrypt, random_bits
from .protocol import ProtocolParams, QecmKey, encrypt, key_gen, measure_codeword
from .bounds import tau, win_prob_bound
from .stats import wilson_interval

STRATEGY_IDS = ("heterodyne_split", "forward_to_bob", "measure_guess_basis")

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's decoded messages plus codeword-level bit statistics."""

    msg_bob: np.ndarray | None
    msg_charlie: np.ndarray | None
    bit_errors_bob: int
    bit_errors_charlie: int
    bits_bob: int
    bits_charlie: int


class AttackStrategy:
    """Base class: a split map for Alice plus key-dependent decoders."""

    strategy_id: str = ""

    def play(self, key, cipher, message, codeword, params, codec, rng) -> TrialRecord:
        raise NotImplementedError


class HeterodyneSplit(AttackStrategy):
    """Mix every mode with vacuum on a balanced beamsplitter; one port each.

    Bob's and Charlie's homodyne outcomes on a mode are correlated through
    the shared signal and vacuum quadratures (y_b = (x+v)/sqrt2,
    y_c = (x-v)/sqrt2), so the trial samples them jointly.
    """

    strategy_id = "heterodyne_split"

    def play(self, key, cipher, message, codeword, params, codec, rng) -> TrialRecord:
        n = cipher.num_modes
        idx = np.arange(n)
        dirs = key.directions
        signal = rng.normal(cipher.disp[idx, dirs], np.sqrt(cipher.cov_diag[idx, dirs] / 2.0))
        vac = rng.normal(0.0, _SQRT_HALF, size=n)
        thresholds = _SQRT_HALF * key.offsets
        est_bob = ((signal + vac) * _SQRT_HALF - thresholds < 0).astype(np.uint8)
        est_charlie = ((signal - vac) * _SQRT_HALF - thresholds < 0).astype(np.uint8)
        return TrialRecord(
            _finish(key, codec, est_bob),
            _finish(key, codec, est_charlie),
            int(np.count_nonzero(est_bob != codeword)),
            int(np.count_nonzero(est_charlie != codeword)),
            n,
            n,
        )


class ForwardToBob(AttackStrategy):
    """Bob receives the entire cipherstate; Charlie guesses the message blind."""

    strategy_id = "forward_to_bob"

    def play(self, key, cipher, message, codeword, params, codec, rng) -> TrialRecord:
        est_bob = measure_codeword(key, cipher, rng)
        guess = random_bits(params.msg_len, rng)
        return TrialRecord(
            _finish(key, codec, est_bob),
            guess,
            int(np.count_nonzero(est_bob != codeword)),
            int(np.count_nonzero(guess != message)),
            cipher.num_modes,
            params.msg_len,
        )


class MeasureGuessBasis(AttackStrategy):
    """Alice heterodynes every mode before the key reveal and forwards the same
    classical record to both players; their identical decoders threshold the
    revealed axis, so the two responses always coincide."""

    strategy_id = "measure_guess_basis"

    def play(self, key, cipher, message, codeword, params, codec, rng) -> TrialRecord:
        n = cipher.num_modes
        # heterodyne = vacuum 50/50 mix, q on one port, p on the other
        q_est = rng.normal(
            cipher.disp[:, 0] * _SQRT_HALF, np.sqrt((cipher.cov_diag[:, 0] + 1.0) / 4.0)
        )
        p_est = rng.normal(
            cipher.disp[:, 1] * _SQRT_HALF, np.sqrt((cipher.cov_diag[:, 1] + 1.0) / 4.0)
        )
        record = np.where(key.directions == 0, q_est, p_est)
        est = (record - _SQRT_HALF * key.offsets < 0).astype(np.uint8)
        msg = _finish(key, codec, est)
        errors = int(np.count_nonzero(est != codeword))
        return TrialRecord(msg, msg, errors, errors, n, n)


def _finish(key: QecmKey, codec, codeword_estimate: np.ndarray):
    decoded = codec.decode(codeword_estimate)
    if decoded is None:
        return None
    return base_decrypt(key.pad, decoded)


def make_strategy(strategy_id: str) -> AttackStrategy:
    for cls in (HeterodyneSplit, ForwardToBob, MeasureGuessBasis):
        if cls.strategy_id == strategy_id:
            return cls()
    raise ValueError(f"unknown strategy {strategy_id!r}; expected one of {STRATEGY_IDS}")


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
    params: ProtocolParams,
    strategy: AttackStrategy,
    trials: int,
    rng: np.random.Generator,
) -> GameOutcome:
    """Play the cloning game ``trials`` times; a win needs both players to
    return the exact message. Each trial runs on its own generator spawned
    from ``rng`` so aggregation is order-independent."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    wins = 0
    ok_bob = ok_charlie = 0
    err_bob = err_charlie = 0
    bits_bob = bits_charlie = 0
    for child in rng.spawn(trials):
        codec = params.make_codec()
        key = key_gen(params, child)
        message = random_bits(params.msg_len, child)
        cipher = encrypt(key, message, params, codec)
        codeword = codec.encode(base_encrypt(key.pad, message))
        record = strategy.play(key, cipher, message, codeword, params, codec, child)
        bob_ok = record.msg_bob is not None and np.array_equal(record.msg_bob, message)
        charlie_ok = record.msg_charlie is not None and np.array_equal(
            record.msg_charlie, message
        )
        ok_bob += bob_ok
        ok_charlie += charlie_ok
        wins += bob_ok and charlie_ok
        err_bob += record.bit_errors_bob
        err_charlie += record.bit_errors_charlie
        bits_bob += record.bits_bob
        bits_charlie += record.bits_charlie
    return GameOutcome(
        strategy_id=strategy.strategy_id,
        trials=trials,
        wins=wins,
        win_rate=wins / trials if trials else 0.0,
        interval=wilson_interval(wins, trials),
        per_bit_error_rates=(
            err_bob / bits_bob if bits_bob else 0.0,
            err_charlie / bits_charlie if bits_charlie else 0.0,
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
        return {
            "win_bound": self.win_bound,
            "upper_confidence": self.upper_confidence,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "slack": self.slack,
        }


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
