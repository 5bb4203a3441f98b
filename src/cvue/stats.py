"""Small statistics helpers shared by the Monte-Carlo harnesses."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; valid near 0 and 1."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


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


def normal_window(sigma: float, bound: float):
    """CDF values (lo, hi) of N(0, sigma^2) at -bound and +bound; hi - lo is
    the mass of the window (-bound, bound)."""
    edge = bound / sigma
    return ndtr(-edge), ndtr(edge)


def truncated_normal(sigma: float, bound: float, rng: np.random.Generator, size=None):
    """N(0, sigma^2) restricted to the open window (-bound, bound).

    Sampling is by inverse CDF, exact to floating precision; rejection would
    accept only ~10% of draws at the working parameters.
    """
    lo, hi = normal_window(sigma, bound)
    return sigma * ndtri(rng.uniform(lo, hi, size=size))
