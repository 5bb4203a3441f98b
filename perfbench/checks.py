"""Per-op correctness checks. Each returns a list of problems; empty means ok.

The tolerances are 5 sigma of the Monte-Carlo estimate, or, where counts
are small, an exact binomial tail no likelier than a 5-sigma deviation;
so a correct program fails a check about once in a million ops.
"""

from __future__ import annotations

import math

SIGMA = 5.0
TAIL = math.erfc(SIGMA / math.sqrt(2.0))  # two-sided 5-sigma mass, 5.7e-7

FIGURE_ROWS = {"fig1": 3660, "fig2a": 404, "fig2b": 2601, "fig4": 110}
# value columns of each table that are probabilities
PROBABILITY_COLUMNS = {
    "report": ("beta", "eps_df", "win_bound"),
    "fig1": (),
    "fig2a": ("beta_noisy",),
    "fig2b": ("beta_noisy",),
    "fig4": ("ideal", "conjugate_coding", "cv_scheme"),
}


def ber_closed_form(alpha: float, squeezing: float) -> float:
    """Honest decryption's bit error rate, 0.5 erfc(alpha sqrt(cosh r))."""
    return 0.5 * math.erfc(alpha * math.sqrt(math.cosh(squeezing)))


def ber_split(alpha: float, squeezing: float) -> float:
    """Bit error rate of one port of a vacuum beamsplitter (and of heterodyne):
    0.5 erfc(alpha / sqrt(1 + 1/cosh r))."""
    return 0.5 * math.erfc(alpha / math.sqrt(1.0 + 1.0 / math.cosh(squeezing)))


def _rate_problem(name: str, rate: float, expected: float, count: int) -> list[str]:
    sigma = math.sqrt(expected * (1.0 - expected) / count)
    if not abs(rate - expected) <= SIGMA * sigma:
        return [f"{name} {rate} is not within {SIGMA} sigma of {expected} (n={count})"]
    return []


def check_roundtrip(out: dict, noisy: bool) -> list[str]:
    """Flip rate within 5 sigma of the analytic BER; on the identity channel
    the failure count must not exceed what a failure probability of eps_df
    allows. The CLI's 95% Wilson limit is not used for that: a 1000-trial op
    sees one failure once in ~1400 ops, which puts the limit above eps_df."""
    expected = out["beta_noisy"] if noisy else out["beta_analytic"]
    problems = _rate_problem("flip_rate", out["flip_rate"], expected, out["modes_total"])
    if not noisy:
        from scipy.stats import binom  # not at import: set-up time must not include it

        if not binom.sf(out["failures"] - 1, out["trials"], out["eps_df"]) > TAIL / 2:
            problems.append(
                f"{out['failures']} failures in {out['trials']} trials exceed eps_df {out['eps_df']}"
            )
    return problems


def _probability_problems(columns, rows, names) -> list[str]:
    problems = []
    picked = [columns.index(n) for n in names]
    for row in rows:
        if any(isinstance(v, float) and math.isnan(v) for v in row):
            problems.append(f"NaN in row {row}")
        for i in picked:
            if not 0.0 <= row[i] <= 1.0:
                problems.append(f"{columns[i]}={row[i]} is not a probability")
    return problems[:5]


def check_bounds(out: dict, figure: str) -> list[str]:
    if figure == "report":
        problems = []
        if not abs(out["beta"] - 0.014) <= 5e-4:
            problems.append(f"beta {out['beta']} not 0.014 +- 5e-4")
        if not 5.7e-6 <= out["eps_df"] <= 8.3e-6:
            problems.append(f"eps_df {out['eps_df']} not in [5.7e-6, 8.3e-6]")
        if not abs(out["tau"] - 930.0) <= 0.1:
            problems.append(f"tau {out['tau']} not 930.0 +- 0.1")
        columns = [c for c in out if c != "config_hash"]
        return problems + _probability_problems(
            columns, [[out[c] for c in columns]], PROBABILITY_COLUMNS[figure]
        )
    problems = []
    if len(out["rows"]) != FIGURE_ROWS[figure]:
        problems.append(f"{figure} has {len(out['rows'])} rows, not {FIGURE_ROWS[figure]}")
    return problems + _probability_problems(
        out["columns"], out["rows"], PROBABILITY_COLUMNS[figure]
    )


def check_message(message, recovered, always_ok: bool) -> list[str]:
    if recovered is None:
        return ["decryption failed at 0 expected flips"] if always_ok else []
    if recovered.shape != message.shape or not (recovered == message).all():
        return ["decrypt returned a wrong plaintext"]
    return []


def check_attack(out: dict, params) -> list[str]:
    """``params`` is the ProtocolParams of the game."""
    outcome, check = out["outcome"], out["bound_check"]
    problems = [] if check["holds"] else [f"bound check failed: {check}"]
    trials = outcome["trials"]
    strategy = outcome["strategy"]
    if strategy == "forward_to_bob":
        expected = (ber_closed_form(params.alpha, params.squeezing), 0.5)
        bits = (trials * params.num_modes, trials * params.msg_len)
    else:
        split = ber_split(params.alpha, params.squeezing)
        expected = (split, split)
        bits = (trials * params.num_modes, trials * params.num_modes)
    for player, rate, p, n in zip(
        ("bob", "charlie"),
        (outcome["bit_error_bob"], outcome["bit_error_charlie"]),
        expected,
        bits,
    ):
        problems += _rate_problem(f"{strategy} bit_error_{player}", rate, p, n)
    return problems


def _attempts_tail(samples: int, attempts: int, p: float) -> float:
    """Smaller one-sided tail of the attempts count, which is negative
    binomial: P[A <= a] = P[Bin(a, p) >= s], P[A >= a] = P[Bin(a-1, p) <= s-1]."""
    from scipy.stats import binom  # not at import: set-up time must not include it

    low = binom.sf(samples - 1, attempts, p)
    high = binom.cdf(samples - 1, attempts - 1, p)
    return float(min(low, high))


def check_ebcheck(out: dict) -> list[str]:
    eq, rej = out["equivalence"], out["rejection_oracle"]
    problems = []
    if not eq["outcome_range_ok"]:
        problems.append("challenger outcome outside (-2 alpha, 2 alpha)")
    if not eq["max_candidate_error"] <= 1e-9:
        problems.append(f"max_candidate_error {eq['max_candidate_error']} > 1e-9")
    if not abs(eq["z_statistic"]) < SIGMA:
        problems.append(f"|z| = {abs(eq['z_statistic'])} >= {SIGMA}")
    tail = _attempts_tail(rej["samples"], rej["attempts"], rej["expected_ratio"])
    if not 2.0 * tail > TAIL:
        problems.append(
            f"acceptance ratio {rej['acceptance_ratio']} is over {SIGMA} sigma from "
            f"{rej['expected_ratio']} ({rej['samples']} samples)"
        )
    return problems
