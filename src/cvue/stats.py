"""Statistics kernels shared by the closed forms and the Monte-Carlo harnesses:
erf and erfc on arrays, the binomial tail, the truncated normal by rejection
and the one-sample Kolmogorov-Smirnov test, in the standard library and numpy."""

from __future__ import annotations

import math

import numpy as np

WILSON_Z = 1.96  # the normal quantile of wilson_interval's two-sided 95 % level

_erf = np.frompyfunc(math.erf, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def erf(x):
    """math.erf on a float, elementwise on an array: both give the same bits."""
    out = _erf(x)
    return out.astype(float) if isinstance(out, np.ndarray) else out


def erfc(x):
    """math.erfc on a float, elementwise on an array: both give the same bits."""
    out = _erfc(x)
    return out.astype(float) if isinstance(out, np.ndarray) else out


def binomial_sf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) > k] for 0 <= k < n, summed term by term from the side of
    the smaller tail, where the terms fall away from k, until they stop
    adding to the sum. The first term is taken in log space through the
    exact log of C(n, j), so no factor overflows."""
    if p in (0.0, 1.0):
        return p
    upper = k + 1 >= (n + 1) * p
    j = k + 1 if upper else k
    term = math.exp(
        math.log(math.comb(n, j)) + j * math.log(p) + (n - j) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    total = 0.0
    while term > total * 1e-17:
        total += term
        if upper:
            term *= (n - j) / (j + 1) * odds
            j += 1
        else:
            term *= j / (n - j + 1) / odds
            j -= 1
    return total if upper else 1.0 - total


def truncated_normal(sigma: float, bound: float, rng: np.random.Generator, size=None):
    """N(0, sigma^2) restricted to the open window (-bound, bound), shaped like
    ``size`` (a 0-d array for None), exact by rejection at any sigma
    (Devroye 1986, ch. II). With e = bound / sigma, a narrow window (e <= 1)
    takes uniform proposals and keeps each with probability
    exp(-x^2 / 2 sigma^2), a share erf(e / sqrt 2) sqrt(pi / 2) / e; a wide
    one keeps the erf(e / sqrt 2) of N(0, sigma^2) proposals inside. Either
    keeps at least 68 %; blocks are sized from the share, so one usually does.
    A bound that is not positive leaves no window, and is refused."""
    if not bound > 0:
        raise ValueError(f"the window's half-width must be positive, got {bound}")
    edge = bound / sigma
    narrow = edge <= 1.0
    share = math.erf(edge / math.sqrt(2.0))
    if narrow:
        # the share tends to 1 as e -> 0, where the quotient would be 0 / 0
        share = share * math.sqrt(0.5 * math.pi) / edge if edge > 0 else 1.0
    out = np.empty(() if size is None else size)
    flat = out.reshape(-1)
    found = 0
    while found < flat.size:
        block = int((flat.size - found) / share * 1.1) + 16
        if narrow:
            x = rng.uniform(-bound, bound, block)
            # P[E > t] = exp(-t) for E ~ Exp(1); the window is open, so a
            # proposal on (or rounded onto) an end is dropped
            keep = np.square(x / sigma) < 2.0 * rng.standard_exponential(block)
            keep &= np.abs(x) < bound
        else:
            x = rng.normal(0.0, sigma, block)
            keep = np.abs(x) < bound
        kept = x[keep][: flat.size - found]
        flat[found : found + kept.size] = kept
        found += kept.size
    return out


def _ks_sf_exact(n: int, d: float) -> float:
    """P[D_n >= d] for the one-sample KS statistic of n samples, from the
    Marsaglia-Tsang-Wang matrix form (J. Stat. Softw. 8(18), 2003): with
    n d = k - h, 0 <= h < 1, P[D_n < d] = n!/n^n (H^n)_kk for an m x m
    matrix H, m = 2k - 1 (at most 2n - 1). At n = 1 it is 2(1 - d)."""
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:  # D_n >= 1/(2n) always
        return 1.0
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(m)
    fact = np.array([math.factorial(j) for j in range(m + 1)], dtype=float)
    # H_ij = 1/(i - j + 1)! on and below the superdiagonal, less h^(i+1)/(i+1)!
    # down the first column and h^(m-j)/(m-j)! along the last row
    lag = i[:, None] - i[None, :] + 1
    hmat = np.where(lag >= 0, 1.0 / fact[np.maximum(lag, 0)], 0.0)
    hmat[:, 0] -= h ** (i + 1) / fact[i + 1]
    hmat[-1, :] -= h ** (m - i) / fact[m - i]
    hmat[-1, 0] += max(0.0, 2.0 * h - 1.0) ** m / fact[m]
    below = math.factorial(n) / n**n * np.linalg.matrix_power(hmat, n)[k - 1, k - 1]
    return min(max(1.0 - float(below), 0.0), 1.0)


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test of ``samples`` against the continuous
    CDF ``cdf`` (called on the sorted samples): (statistic D, p-value).

    Below 5 samples the p-value is the exact finite-n law (_ks_sf_exact).
    From 5 up it is the Kolmogorov limit law P[K > lam] = 2 sum_k (-1)^(k-1)
    exp(-2 k^2 lam^2) at Stephens' lam = (sqrt n + 0.12 + 0.11 / sqrt n) D
    (Stephens, JRSS B 32, 1970), within 0.023 of the exact p-value for
    n >= 5. A hundred terms are exact in double precision for lam >= 0.2;
    below, p differs from 1 by less than 1e-12.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    statistic = float(max(d_plus, d_minus))
    if n < 5:
        return statistic, _ks_sf_exact(n, statistic)
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * statistic
    if lam < 0.2:
        return statistic, 1.0
    k = np.arange(1.0, 101.0)
    pvalue = 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)))
    return statistic, min(pvalue, 1.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion, its ends exactly 0
    with no successes and 1 with no failures (rounding would miss them)."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z = WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = max(0.0, center - half) if successes else 0.0
    high = min(1.0, center + half) if successes < trials else 1.0
    return (low, high)


def two_proportion_ztest(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """Pooled two-proportion z-test; returns (z statistic, two-sided p-value)."""
    if min(n1, n2) <= 0:
        raise ValueError("sample sizes must be positive")
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    if se == 0:
        return (0.0, 1.0)
    z = (k1 / n1 - k2 / n2) / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return (z, p)
