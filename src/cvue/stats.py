"""Statistics kernels shared by the closed forms and the Monte-Carlo harnesses:
the normal CDF and its inverse, the binomial tail, the truncated normal and
the one-sample Kolmogorov-Smirnov test, in the standard library and numpy."""

from __future__ import annotations

import math

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)

# Wichura's AS241 (Applied Statistics 37, 1988), behind statistics.NormalDist.inv_cdf:
# numerator and denominator, highest power first, for |p - 1/2| <= 0.425, then
# for the tails by s = sqrt(-log min(p, 1 - p)) up to 5 and past it
_AS241 = (
    ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
      1.3314166789178437745e2, 3.3871328727963666080e0),
     (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
      4.2313330701600911252e1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e0, 3.6478483247632045605e0, 5.7694972214606914055e0,
      4.6303378461565452959e0, 1.4234371107496835773e0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
      2.0531916266377588219e0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
      5.4637849111641143699e0, 6.6579046435011037772e0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
)


def erfc(x):
    """math.erfc on a float, elementwise on an array: both give the same bits."""
    out = _erfc(x)
    return out.astype(float) if isinstance(out, np.ndarray) else out


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2)."""
    return 0.5 * erfc(-x / math.sqrt(2.0))


def _rational(coefs, x) -> np.ndarray:
    """AS241's rational function at x: Horner from x * c0 + c1, in place."""
    (num, den), (a, b) = coefs, (x * c[0] for c in coefs)
    a += num[1]
    b += den[1]
    for c, d in zip(num[2:], den[2:]):
        a *= x
        a += c
        b *= x
        b += d
    a /= b
    return a


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF over an array of p in (0, 1) (AS241,
    within 2e-15 relative of scipy's ndtri down to p = 1e-300), shaped like
    p (a 0-d array for a scalar). The central branch runs on every p, in
    place; the tail branch overwrites the p past |p - 1/2| = 0.425, if any."""
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    r = np.subtract(flat, 0.5)
    np.subtract(0.180625, np.square(r, out=r), out=r)
    tail = np.flatnonzero(r < 0.0)
    out = _rational(_AS241[0], r)
    out *= np.subtract(flat, 0.5, out=r)
    if tail.size:
        pt = flat[tail]
        s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        x = np.where(s <= 5.0, _rational(_AS241[1], s - 1.6), _rational(_AS241[2], s - 5.0))
        out[tail] = np.copysign(x, pt - 0.5)
    return out.reshape(p.shape)


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


def normal_window(sigma: float, bound: float):
    """CDF values (lo, hi) of N(0, sigma^2) at -bound and +bound; hi - lo is
    the mass of the window (-bound, bound)."""
    edge = bound / sigma
    return ndtr(-edge), ndtr(edge)


def truncated_normal(sigma: float, bound: float, rng: np.random.Generator, size=None):
    """N(0, sigma^2) restricted to the open window (-bound, bound), by inverse
    CDF, exact to floating precision (rejection would accept only ~10% of
    draws at the working parameters), scaled in place in ndtri's array."""
    lo, hi = normal_window(sigma, bound)
    out = ndtri(rng.uniform(lo, hi, size=size))
    out *= sigma
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
