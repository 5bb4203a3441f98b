"""Closed-form quantities: bit error rate, decryption-failure bounds, the
security exponent, the asymptotic security region, and the data behind the
parameter-study figures."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ERFC_ZERO, MAX_SQUEEZING, SQUEEZING_RANGE, noisy_ber_grid
from .stats import binomial_sf, erfc

FIGURE_IDS = ("fig1", "fig2a", "fig2b", "fig4")

LOG2_E = math.log2(math.e)


def ber_analytic(alpha: float, squeezing: float):
    """Bit error rate of honest decryption: erfc(alpha * sqrt(cosh r)) / 2.

    Two floats (or ints) take a scalar path with the array path's bits: it
    too takes cosh from np.cosh, which can differ from math.cosh by an ulp."""
    if isinstance(alpha, (float, int)) and isinstance(squeezing, (float, int)):
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 <= squeezing <= MAX_SQUEEZING:
            raise ValueError(SQUEEZING_RANGE)
        return 0.5 * math.erfc(min(alpha, ERFC_ZERO) * math.sqrt(np.cosh(squeezing)))
    alpha = np.asarray(alpha, dtype=float)
    squeezing = np.asarray(squeezing, dtype=float)
    # written so that NaN fails the checks
    if not (alpha > 0).all():
        raise ValueError("alpha must be positive")
    if not ((squeezing >= 0) & (squeezing <= MAX_SQUEEZING)).all():
        raise ValueError(SQUEEZING_RANGE)
    # sqrt(cosh r) >= 1: past ERFC_ZERO the clamp changes no value
    out = 0.5 * erfc(np.minimum(alpha, ERFC_ZERO) * np.sqrt(np.cosh(squeezing)))
    return float(out) if np.ndim(out) == 0 else out


def binary_entropy(x):
    """Binary entropy in bits; defined as 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("binary_entropy needs x in [0, 1]")
    y = 1.0 - x
    # x log x, 0 at x = 0
    out = -(x * np.log(np.where(x > 0, x, 1.0)) + y * np.log(np.where(y > 0, y, 1.0)))
    out /= math.log(2.0)
    return float(out) if out.ndim == 0 else out


def dkl_binary(a: float, b: float) -> float:
    """Binary Kullback-Leibler divergence a*ln(a/b) + (1-a)*ln((1-a)/(1-b)) (nats)."""
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("dkl_binary needs arguments strictly inside (0, 1)")
    ratio = a / b
    # a subnormal b overflows the ratio, but not the difference of the logs
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(a) - math.log(b)
    return a * log_ratio + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def eps_df(num_modes: int, max_errors: int, alpha: float, squeezing: float) -> float:
    """Chernoff bound on the decryption-failure probability at the noiseless
    bit error rate: ``chernoff_failure`` at ``ber_analytic(alpha, squeezing)``."""
    return chernoff_failure(num_modes, max_errors, ber_analytic(alpha, squeezing))


def chernoff_failure(num_modes: int, max_errors: int, beta: float) -> float:
    """Chernoff bound exp[-N * D_KL((t+1)/N || beta)] on P[Bin(N, beta) > t];
    reports 1 when the bound is inapplicable (beta >= (t+1)/N), and its limit
    0 when beta underflows to 0 (r >~ 10 at alpha 0.4)."""
    if max_errors + 1 > num_modes:
        raise ValueError("need max_errors + 1 <= num_modes")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    threshold = (max_errors + 1) / num_modes
    if beta >= threshold:
        return 1.0
    if beta == 0.0:
        return 0.0
    return math.exp(-num_modes * dkl_binary(threshold, beta))


def exact_failure(num_modes: int, max_errors: int, beta: float) -> float:
    """Exact decryption-failure probability P[Bin(N, beta) > t]: the oracle
    codec fails iff more than t of the N modes flip, each independently with
    probability beta. The tail is summed term by term (stats.binomial_sf),
    accurate far below eps_df."""
    if not 0 <= max_errors < num_modes:
        raise ValueError("need 0 <= max_errors < num_modes")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return binomial_sf(max_errors, num_modes, beta)


def tau(num_modes: int, max_errors: int, alpha: float) -> float:
    """Security exponent N/2 + (N/2 - t) log2(1 + 2 alpha) + t + log2(e)/2."""
    if max_errors > num_modes / 2:
        raise ValueError("need max_errors <= num_modes / 2")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    half = num_modes / 2.0
    return half + (half - max_errors) * math.log2(1.0 + 2.0 * alpha) + max_errors + 0.5 * LOG2_E


def win_prob_bound(msg_len: int, tau_value: float) -> float:
    """Adversarial winning-probability bound min(1, 2^(tau - n))."""
    exponent = tau_value - msg_len
    if exponent >= 0:
        return 1.0
    return 2.0 ** exponent


def asymptotic_margin(alpha: float, squeezing: float):
    """h(beta) - (1/2 - beta)(1 - log2(1 + 2 alpha)); negative iff the
    parameter point is asymptotically securable."""
    beta = ber_analytic(alpha, squeezing)
    # above alpha ~ 8.99e307, 1 + 2 alpha overflows; log2(1 + 2 alpha) is
    # then 1 + log2(0.5 + alpha), used only there so other values keep their bits
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(over="ignore"):
        gain = 1.0 + 2.0 * alpha
    log_gain = np.where(gain < math.inf, np.log2(gain), 1.0 + np.log2(0.5 + alpha))
    out = binary_entropy(beta) - (0.5 - beta) * (1.0 - log_gain)
    return float(out) if np.ndim(out) == 0 else out


def conjugate_coding_bound(msg_len: int):
    """Cloning-game bound (1/2 + 1/(2 sqrt 2))^n for bitwise conjugate coding."""
    msg_len = np.asarray(msg_len)
    if np.any(msg_len < 1):
        raise ValueError("message length must be at least 1")
    out = np.exp(msg_len * math.log(0.5 + 0.5 / math.sqrt(2.0)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SecurityReport:
    """All closed-form figures of merit for one parameter set."""

    beta: float
    eps_df: float
    failure_exact: float
    tau: float
    win_bound: float
    asymptotic_margin: float
    msg_len: int
    num_modes: int
    max_errors: int
    alpha: float
    squeezing: float

    def __post_init__(self):
        for name in ("beta", "eps_df", "failure_exact", "win_bound"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    def as_dict(self) -> dict:
        return asdict(self)


def security_report(params) -> SecurityReport:
    """Evaluate every closed-form quantity for a ProtocolParams value."""
    t_value = tau(params.num_modes, params.max_errors, params.alpha)
    beta = ber_analytic(params.alpha, params.squeezing)
    return SecurityReport(
        beta=beta,
        eps_df=eps_df(params.num_modes, params.max_errors, params.alpha, params.squeezing),
        failure_exact=exact_failure(params.num_modes, params.max_errors, beta),
        tau=t_value,
        win_bound=win_prob_bound(params.msg_len, t_value),
        asymptotic_margin=asymptotic_margin(params.alpha, params.squeezing),
        msg_len=params.msg_len,
        num_modes=params.num_modes,
        max_errors=params.max_errors,
        alpha=params.alpha,
        squeezing=params.squeezing,
    )


def _grid_triple(grid: dict, key: str, default):
    """``grid[key]`` (or ``default``) as a (start, stop, count) triple with
    finite ends and a count >= 0; anything else fails naming the key."""
    spec = grid.get(key, default)
    try:
        start, stop, count = spec
        start, stop = float(start), float(stop)
        if isinstance(count, float) and not count.is_integer():
            raise ValueError
        count = int(count)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"grid {key} must be a [start, stop, count] triple, got {spec!r}"
        ) from None
    if not (math.isfinite(start) and math.isfinite(stop)) or count < 0:
        raise ValueError(
            f"grid {key} must have a finite start and stop and a nonnegative count, got {spec!r}"
        )
    return start, stop, count


def _grid_number(grid: dict, key: str, default: float) -> float:
    """``grid[key]`` (or ``default``) as one finite float, failing naming the key."""
    value = grid.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"grid {key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"grid {key} must be finite, got {value!r}")
    return number


def _grid_values(grid: dict, key: str, default) -> np.ndarray:
    """``grid[key]`` (or ``default``) as a 1-D float array, failing naming the key."""
    values = grid.get(key, default)
    try:
        return np.array([float(v) for v in values])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"grid {key} must be a list of numbers, got {values!r}") from None


def _linspace(grid: dict, key: str, default) -> np.ndarray:
    return np.linspace(*_grid_triple(grid, key, default))


def _rows(*columns) -> list[tuple]:
    """Rows of Python floats from equally long 1-D columns."""
    return list(zip(*(column.tolist() for column in columns)))


def _flat_mesh(outer, inner):
    """Every (outer, inner) pair, outer value slowest, as two flat arrays."""
    return [axis.ravel() for axis in np.meshgrid(outer, inner, indexing="ij")]


def figure_data(figure_id: str, grid: dict | None = None):
    """Tabulate the data behind one of the parameter-study figures.

    Returns (column_names, rows); grid coordinates come first, the value
    last, and every row holds Python ints and floats only. ``grid`` entries
    are [start, stop, count] triples (or a plain list for fig2a's
    transmittance values, and a number for a fixed parameter), with
    sensible defaults per figure. fig1, fig2a and fig2b are each one array
    evaluation over the grid, as is fig4's conjugate-coding column; their
    values equal the scalar calls bit for bit
    (``cvue.reference.figure_data_scalar`` is the loop they are tested
    against).

    * fig1  - asymptotic-security margin over the (alpha, squeezing) plane.
    * fig2a - noisy BER vs squeezing for several transmittances, excess
              noise 0.001, alpha 0.4.
    * fig2b - noisy BER over the (transmittance, excess-noise) plane at
              squeezing 3.6, alpha 0.4.
    * fig4  - cloning-game winning-probability curves vs message length:
              ideal guessing 2^-n, bitwise conjugate coding, and this
              scheme's bound at squeezing 3.6, alpha 0.4, 3.5% correctable
              errors, with the codeword length set by n = N(1 - h(beta)).
    """
    grid = dict(grid or {})
    if figure_id == "fig1":
        alphas = _linspace(grid, "alpha", (0.02, 1.2, 60))
        squeezings = _linspace(grid, "squeezing", (2.0, 5.0, 61))
        a, r = _flat_mesh(alphas, squeezings)
        margin = asymptotic_margin(a, r)
        return ["alpha", "squeezing", "margin"], _rows(a, r, margin)
    if figure_id == "fig2a":
        squeezings = _linspace(grid, "squeezing", (2.0, 4.5, 101))
        transmittances = _grid_values(grid, "transmittance", [1.0, 0.95, 0.9, 0.8])
        alpha = _grid_number(grid, "alpha", 0.4)
        xi = _grid_number(grid, "excess_noise", 0.001)
        t, r = _flat_mesh(transmittances, squeezings)
        beta = noisy_ber_grid(alpha, r, t, xi)
        return ["squeezing", "transmittance", "beta_noisy"], _rows(r, t, beta)
    if figure_id == "fig2b":
        transmittances = _linspace(grid, "transmittance", (0.5, 1.0, 51))
        noises = _linspace(grid, "excess_noise", (0.0, 0.05, 51))
        alpha = _grid_number(grid, "alpha", 0.4)
        squeezing = _grid_number(grid, "squeezing", 3.6)
        t, xi = _flat_mesh(transmittances, noises)
        beta = noisy_ber_grid(alpha, squeezing, t, xi)
        return ["transmittance", "excess_noise", "beta_noisy"], _rows(t, xi, beta)
    if figure_id == "fig4":
        start, stop, count = _grid_triple(grid, "msg_len", (8, 1200, 120))
        msg_lens = np.unique(np.rint(np.geomspace(start, stop, count)).astype(int))
        alpha = _grid_number(grid, "alpha", 0.4)
        squeezing = _grid_number(grid, "squeezing", 3.6)
        error_fraction = _grid_number(grid, "error_fraction", 0.035)
        rate = 1.0 - binary_entropy(ber_analytic(alpha, squeezing))
        conjugate = conjugate_coding_bound(msg_lens).tolist()
        rows = []
        for n, conj in zip(msg_lens.tolist(), conjugate):
            num_modes = int(round(n / rate))
            num_modes += num_modes % 2  # balanced direction string needs even N
            errors = int(round(error_fraction * num_modes))
            bound = win_prob_bound(n, tau(num_modes, errors, alpha))
            rows.append((n, 2.0 ** -n, conj, bound))
        return ["msg_len", "ideal", "conjugate_coding", "cv_scheme"], rows
    raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
