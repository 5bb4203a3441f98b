"""Closed-form quantities: bit error rate, decryption-failure bounds, the
security exponent, the asymptotic security region, and the data behind the
parameter-study figures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ERFC_ZERO, MAX_SQUEEZING, SQUEEZING_RANGE, noisy_ber_grid
from .stats import binomial_sf, erfc

# the grid keys each figure reads; any other key is refused
GRID_KEYS = {
    "fig1": ("alpha", "squeezing"),
    "fig2a": ("squeezing", "transmittance", "alpha", "excess_noise"),
    "fig2b": ("transmittance", "excess_noise", "alpha", "squeezing"),
    "fig4": ("msg_len", "alpha", "squeezing", "error_fraction"),
}
FIGURE_IDS = tuple(GRID_KEYS)

LOG2_E = math.log2(math.e)

# largest figure grid, per axis and in all: a `bounds` figure call with its
# rendering peaks at up to about 320 bytes a grid point (ru_maxrss of a
# fresh process at 2e5 points, fig1 and fig2b, JSON and CSV: 276-321), so a
# table at this size stays below 0.7 GB
MAX_GRID_POINTS = 2_000_000


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
    if ((x < 0) | (x > 1)).any():
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


def tau(num_modes, max_errors, alpha: float):
    """Security exponent N/2 + (N/2 - t) log2(1 + 2 alpha) + t + log2(e)/2.
    N and t are numbers, or equally long arrays (fig4's codeword lengths)."""
    if not np.all((0 <= max_errors) & (max_errors <= num_modes / 2)):
        raise ValueError("need 0 <= max_errors <= num_modes / 2")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    half = num_modes / 2.0
    return half + (half - max_errors) * math.log2(1.0 + 2.0 * alpha) + max_errors + 0.5 * LOG2_E


def win_prob_bound(msg_len, tau_value):
    """Adversarial winning-probability bound min(1, 2^(tau - n)). Equally long
    arrays give an array; each power below 1 is still Python's float pow,
    which numpy's power need not equal bit for bit."""
    exponent = tau_value - msg_len
    if np.ndim(exponent) == 0:
        return 1.0 if exponent >= 0 else 2.0 ** exponent
    out = np.ones(len(exponent))
    below = exponent < 0
    out[below] = [2.0 ** e for e in exponent[below].tolist()]
    return out


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
    if (msg_len < 1).any():
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
        return dict(vars(self))


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


def read_number(value, name: str) -> float:
    """``value`` as a float: an int or a float (numpy's too), not a bool,
    within the float range; NaN and the infinities pass, for the caller to
    judge. Anything else, a string too, fails naming ``name``. This and
    ``read_integer`` are the one rule for a number read from outside."""
    # a plain float (in read_integer a plain int) first: load_config reads
    # its numbers here on every CLI call
    if type(value) is float:
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def read_integer(value, name: str) -> int:
    """``value`` as an int: an int (numpy's too) that is not a bool, or an
    integral float (1e20 reads as 10**20). Anything else, NaN and the
    infinities too, fails naming ``name``."""
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    # is_integer is False for NaN and the infinities
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _grid_triple(grid: dict, key: str, default):
    """``grid[key]`` (or ``default``) as a (start, stop, count) triple of
    numbers with finite ends and a count >= 0; anything else (strings and
    booleans too) fails naming the key."""
    spec = grid.get(key, default)
    try:
        start, stop, count = spec
        start, stop = read_number(start, key), read_number(stop, key)
        count = read_integer(count, key)
    except (TypeError, ValueError):
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
    number = read_number(grid.get(key, default), f"grid {key}")
    if not math.isfinite(number):
        raise ValueError(f"grid {key} must be finite, got {number!r}")
    return number


def _grid_values(grid: dict, key: str, default) -> np.ndarray:
    """``grid[key]`` (or ``default``) as a 1-D float array, failing naming the key."""
    values = grid.get(key, default)
    try:
        return np.array([read_number(v, key) for v in values])
    except (TypeError, ValueError):
        raise ValueError(f"grid {key} must be a list of numbers, got {values!r}") from None


def _check_grid_size(**counts) -> None:
    """Refuse a grid with an axis, or a product of axes, above MAX_GRID_POINTS
    before any of its arrays is built, naming the largest axis."""
    key = max(counts, key=counts.get)
    # an axis alone counts too: beside an empty axis it is still an array
    if max(counts[key], math.prod(counts.values())) > MAX_GRID_POINTS:
        shape = " x ".join(f"{count} {name}" for name, count in counts.items())
        raise ValueError(
            f"grid {key} must keep the grid within {MAX_GRID_POINTS} points, got {shape}"
        )


def _flat_mesh(outer, inner):
    """Every (outer, inner) pair, outer value slowest, as two flat arrays."""
    return [axis.ravel() for axis in np.meshgrid(outer, inner, indexing="ij")]


def figure_columns(figure_id: str, grid: dict | None = None):
    """Tabulate the data behind one of the parameter-study figures.

    Returns (column_names, columns): equally long 1-D arrays, grid
    coordinates first, the value last; fig4's msg_len column holds ints,
    every other column floats. ``grid`` entries are [start, stop, count]
    triples (or a plain list for fig2a's transmittance values, and a number
    for a fixed parameter), with sensible defaults per figure; a key the
    figure does not read (GRID_KEYS) is refused. Each column is one array
    evaluation over the grid (fig4's bound takes each power below 1 with
    Python's pow), equal to the scalar calls bit for bit
    (``cvue.reference.figure_data_scalar`` is the loop it is tested
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
    if figure_id not in GRID_KEYS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    grid = dict(grid or {})
    for key in grid:
        if key not in GRID_KEYS[figure_id]:
            raise ValueError(
                f"grid {key} must be one of the keys {figure_id} reads: "
                f"{', '.join(GRID_KEYS[figure_id])}"
            )
    if figure_id == "fig1":
        alphas = _grid_triple(grid, "alpha", (0.02, 1.2, 60))
        squeezings = _grid_triple(grid, "squeezing", (2.0, 5.0, 61))
        _check_grid_size(alpha=alphas[2], squeezing=squeezings[2])
        a, r = _flat_mesh(np.linspace(*alphas), np.linspace(*squeezings))
        return ["alpha", "squeezing", "margin"], [a, r, asymptotic_margin(a, r)]
    if figure_id == "fig2a":
        squeezings = _grid_triple(grid, "squeezing", (2.0, 4.5, 101))
        transmittances = _grid_values(grid, "transmittance", [1.0, 0.95, 0.9, 0.8])
        _check_grid_size(transmittance=len(transmittances), squeezing=squeezings[2])
        alpha = _grid_number(grid, "alpha", 0.4)
        xi = _grid_number(grid, "excess_noise", 0.001)
        t, r = _flat_mesh(transmittances, np.linspace(*squeezings))
        beta = noisy_ber_grid(alpha, r, t, xi)
        return ["squeezing", "transmittance", "beta_noisy"], [r, t, beta]
    if figure_id == "fig2b":
        transmittances = _grid_triple(grid, "transmittance", (0.5, 1.0, 51))
        noises = _grid_triple(grid, "excess_noise", (0.0, 0.05, 51))
        _check_grid_size(transmittance=transmittances[2], excess_noise=noises[2])
        alpha = _grid_number(grid, "alpha", 0.4)
        squeezing = _grid_number(grid, "squeezing", 3.6)
        t, xi = _flat_mesh(np.linspace(*transmittances), np.linspace(*noises))
        beta = noisy_ber_grid(alpha, squeezing, t, xi)
        return ["transmittance", "excess_noise", "beta_noisy"], [t, xi, beta]
    start, stop, count = _grid_triple(grid, "msg_len", (8, 1200, 120))
    # the lengths lie between the ends, so both ends must round to at least 1
    if min(round(start), round(stop)) < 1:
        raise ValueError(
            f"grid msg_len must start and stop at values that round to 1 or more, "
            f"got {[start, stop]}"
        )
    _check_grid_size(msg_len=count)
    msg_lens = np.unique(np.rint(np.geomspace(start, stop, count))).astype(int)
    alpha = _grid_number(grid, "alpha", 0.4)
    squeezing = _grid_number(grid, "squeezing", 3.6)
    error_fraction = _grid_number(grid, "error_fraction", 0.035)
    if not 0 <= error_fraction <= 0.5:
        raise ValueError(f"grid error_fraction must lie in [0, 0.5], got {error_fraction!r}")
    beta = ber_analytic(alpha, squeezing)
    rate = 1.0 - binary_entropy(beta)
    if not rate > 0:
        raise ValueError(
            f"grid alpha must leave the code a positive rate 1 - h(beta) at squeezing "
            f"{squeezing!r}, got beta {beta!r}"
        )
    # integral floats: past 2**63 (alpha near 1e-9) the lengths outgrow int64
    num_modes = np.rint(msg_lens / rate)
    num_modes += num_modes % 2  # balanced direction string needs even N
    errors = np.rint(error_fraction * num_modes)
    cv_scheme = win_prob_bound(msg_lens, tau(num_modes, errors, alpha))
    # 2^-n exactly, as 2.0 ** -n
    ideal = np.ldexp(1.0, -msg_lens)
    return (
        ["msg_len", "ideal", "conjugate_coding", "cv_scheme"],
        [msg_lens, ideal, conjugate_coding_bound(msg_lens), cv_scheme],
    )


def figure_data(figure_id: str, grid: dict | None = None):
    """``figure_columns`` as (column_names, rows): one tuple of Python ints
    and floats per grid point."""
    names, columns = figure_columns(figure_id, grid)
    return names, list(zip(*(column.tolist() for column in columns)))
