"""The stdlib/numpy kernels in cvue.stats and the beamsplitter integral in
cvue.adversary, against scipy and high-precision mpmath oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy.stats import kstest, kstwo, norm, truncnorm, uniform

from cvue import ebprep, stats
from cvue.adversary import split_flip_probs


@pytest.fixture
def mp():
    return pytest.importorskip("mpmath")


class TestErfc:
    def test_math_erfc_matches_30_digit_mpmath(self, mp):
        # normal range: erfc(26.5) = 1.1e-307; scipy's erfc is off by up to 5.7e-14 here
        with mp.workdps(30):
            for x in np.linspace(0.0, 26.5, 2001).tolist():
                want = mp.erfc(mp.mpf(x))
                assert abs(math.erfc(x) - want) <= 1e-15 * want, x

    def test_array_path_gives_the_scalar_bits(self):
        x = np.linspace(-3.0, 27.5, 1001).reshape(7, 143)
        out = stats.erfc(x)
        assert out.dtype == float and out.shape == x.shape
        assert out.ravel().tolist() == [math.erfc(v) for v in x.ravel().tolist()]
        assert isinstance(stats.erfc(0.5), float) and isinstance(stats.erfc(np.array(0.5)), float)
        assert stats.erfc(np.empty((0, 3))).shape == (0, 3)

    def test_erf_array_path_gives_the_scalar_bits(self):
        x = np.linspace(-6.0, 6.0, 1001).reshape(7, 143)
        out = stats.erf(x)
        assert out.dtype == float and out.shape == x.shape
        assert out.ravel().tolist() == [math.erf(v) for v in x.ravel().tolist()]
        assert isinstance(stats.erf(0.5), float)


class TestTruncatedNormal:
    """stats.truncated_normal against scipy.stats.truncnorm, on both sides of
    the narrow/wide switch at bound / sigma = 1 and at its two limits."""

    SIGMA, SAMPLES = 2.0, 20000

    @pytest.mark.parametrize("edge", [0.146, 0.999, 1.0, 1.001, 3.0, 30.0])
    def test_law_is_the_truncated_normal(self, edge):
        rng = np.random.default_rng(41)
        bound = edge * self.SIGMA
        x = stats.truncated_normal(self.SIGMA, bound, rng, self.SAMPLES)
        assert np.all(np.abs(x) < bound)
        assert kstest(x, truncnorm(-edge, edge, scale=self.SIGMA).cdf).pvalue > 1e-3

    def test_huge_sigma_is_uniform_on_the_window(self):
        x = stats.truncated_normal(1e150, 1.0, np.random.default_rng(42), self.SAMPLES)
        assert np.all(np.abs(x) < 1.0)
        assert kstest(x, uniform(-1.0, 2.0).cdf).pvalue > 1e-3

    def test_infinite_bound_is_the_normal(self):
        x = stats.truncated_normal(self.SIGMA, math.inf, np.random.default_rng(43), self.SAMPLES)
        assert kstest(x, norm(scale=self.SIGMA).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("bound", [0.3, 5.0], ids=["narrow", "wide"])
    @pytest.mark.parametrize("size, shape", [(None, ()), (5, (5,)), ((2, 3), (2, 3)), ((0,), (0,))])
    def test_shape(self, bound, size, shape):
        out = stats.truncated_normal(1.0, bound, np.random.default_rng(44), size)
        assert type(out) is np.ndarray and out.dtype == float and out.shape == shape
        assert np.all(np.abs(out) < bound)


class TestBinomialTail:
    @pytest.mark.parametrize(
        "k, n, p",
        [(35, 1000, 0.01423320791944176), (35, 1000, 0.182), (0, 2, 5e-324), (10, 200, 0.1),
         (500, 1000, 0.5), (3, 30, 0.93), (99, 100, 0.999)],
    )
    def test_matches_bdtrc(self, k, n, p):
        want = special.bdtrc(k, n, p)
        assert stats.binomial_sf(k, n, p) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "k, n, p", [(35, 1000, 0.01423320791944176), (1, 5000, 1e-9), (650, 1000, 0.2)]
    )
    def test_matches_40_digit_mpmath(self, k, n, p, mp):
        # bdtrc is off by 9.5e-13, 4.8e-12 and 1.5e-12 relative at these points
        with mp.workdps(40):
            b = mp.mpf(p)

            def mass(js):
                return mp.fsum(mp.binomial(n, j) * b**j * (1 - b) ** (n - j) for j in js)

            # the shorter sum; 40 digits leave room for the cancellation in 1 - mass
            want = float(1 - mass(range(k + 1)) if 2 * k < n else mass(range(k + 1, n + 1)))
        assert stats.binomial_sf(k, n, p) == pytest.approx(want, rel=1e-13, abs=0)

    def test_both_sides_of_the_mean_match_exact_rationals(self):
        for n, p in [(40, 0.3), (41, 0.5), (64, 0.0142)]:
            b = Fraction(p)
            for k in range(n):
                terms = (math.comb(n, j) * b**j * (1 - b) ** (n - j) for j in range(k + 1, n + 1))
                want = pytest.approx(float(sum(terms)), rel=1e-12, abs=0)
                assert stats.binomial_sf(k, n, p) == want


def p11_mpmath(mp, alpha, squeezing):
    """2 int_0^inf phi(u) Phi((-alpha - u/sqrt2) / sigma_x) du at 40 digits,
    split at multiples of the integrand's decay length; the integrand is
    scaled to 1 at u = 0, since quad's tolerance is absolute."""
    with mp.workdps(40):
        a, sx = mp.mpf(alpha), mp.sqrt(1 / (2 * mp.cosh(mp.mpf(squeezing))))
        ell = mp.sqrt(2) * sx * min(1, sx / a)

        def both(u):
            return mp.npdf(u) * mp.ncdf((-a - u / mp.sqrt(2)) / sx)

        scale = both(0)
        points = [ell * k for k in range(0, 48, 4)] + [mp.inf]
        return 2 * scale * mp.quad(lambda u: both(u) / scale, points)


class TestBothPortsIntegral:
    @pytest.mark.parametrize(
        "alpha, squeezing", [(0.4, 3.4), (1.0, 3.4), (2.5, 2.0), (0.4, 0.5), (0.4, 0.0)]
    )
    def test_matches_40_digit_mpmath(self, alpha, squeezing, mp):
        _, p11 = split_flip_probs(alpha, squeezing)
        assert p11 == pytest.approx(float(p11_mpmath(mp, alpha, squeezing)), rel=1e-12, abs=0)

    def test_strong_squeezing_keeps_relative_accuracy(self, mp):
        # p11 = 2.7e-280 here; the Owen's T difference was 95 % off on a fixed grid
        _, p11 = split_flip_probs(0.0685, 12.5)
        assert p11 == pytest.approx(float(p11_mpmath(mp, 0.0685, 12.5)), rel=1e-10, abs=0)


def uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


class TestKsTest:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 200, 2000])
    def test_statistic_equals_scipy_kstest(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.05, 0.3):
            x = rng.uniform(0.0, 1.0, n) + shift
            statistic, _ = stats.ks_test(x, uniform_cdf)
            assert abs(statistic - kstest(x, uniform_cdf).statistic) <= 1e-15

    @pytest.mark.parametrize("n, tolerance", [(5, 0.023), (10, 0.023), (20, 0.023), (50, 0.023),
                                              (2000, 0.005)])
    def test_pvalue_near_the_exact_law(self, n, tolerance):
        # samples at the centres (i - 1/2)/n shifted by delta have D = 1/(2n) + delta
        centres = (np.arange(n) + 0.5) / n
        for delta in np.linspace(0.0, 0.6, 241):
            x = centres + delta
            _, pvalue = stats.ks_test(x, uniform_cdf)
            assert abs(pvalue - kstest(x, uniform_cdf).pvalue) <= tolerance

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exact_law_matches_scipy_kstwo(self, n):
        grid = np.linspace(0.0, 1.0, 2001).tolist() + [1 / (2 * n), 1 / n, 1 - 1e-12, 1.0]
        for d in grid:
            assert abs(stats._ks_sf_exact(n, d) - kstwo.sf(d, n)) <= 1e-12, d

    def test_one_sample_law_is_linear(self):
        # D_1 = max(x, 1 - x) for one uniform x, so P[D_1 >= d] = 2(1 - d) on [1/2, 1]
        for x in (0.0, 0.1, 0.37, 0.5, 0.8, 0.999):
            statistic, pvalue = stats.ks_test([x], uniform_cdf)
            assert statistic == max(x, 1 - x)
            assert pvalue == pytest.approx(2 * (1 - statistic), rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pvalue_below_five_samples_is_the_exact_law(self, n):
        # Stephens' limit law was 0.156 off at n = 1 and 0.024-0.034 at n = 2-4
        centres = (np.arange(n) + 0.5) / n
        for delta in np.linspace(0.0, 0.6, 241):
            x = centres + delta
            _, pvalue = stats.ks_test(x, uniform_cdf)
            assert abs(pvalue - kstest(x, uniform_cdf, method="exact").pvalue) <= 1e-12

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            stats.ks_test(np.empty(0), uniform_cdf)


class TestOutcomeKs:
    SQUEEZING, ALPHA, SAMPLES = 3.4, 0.4, 2000

    def test_accepts_both_samplers(self):
        rng = np.random.default_rng(31)
        accepted, *_ = ebprep.eb_rejection_oracle(self.SQUEEZING, self.ALPHA, self.SAMPLES, rng)
        direct, _ = ebprep.eb_outcomes(np.ones(self.SAMPLES), self.ALPHA, self.SQUEEZING, rng)
        for outcomes in (accepted, direct):
            assert ebprep.outcome_ks(outcomes, self.SQUEEZING, self.ALPHA)[1] > 1e-3

    def test_rejects_a_window_shifted_by_a_tenth_of_its_width(self):
        # the window (0, 2 alpha) moved by 0.2 alpha: D is about 0.10
        rng = np.random.default_rng(32)
        sigma = math.sqrt(0.5 * math.cosh(self.SQUEEZING))
        shifted = 1.2 * self.ALPHA + stats.truncated_normal(sigma, self.ALPHA, rng, self.SAMPLES)
        statistic, pvalue = ebprep.outcome_ks(shifted, self.SQUEEZING, self.ALPHA)
        assert statistic > 0.08 and pvalue < 1e-6
