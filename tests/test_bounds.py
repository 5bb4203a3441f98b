import math
import sys
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from cvue.bounds import (
    SecurityReport,
    asymptotic_margin,
    ber_analytic,
    binary_entropy,
    chernoff_failure,
    conjugate_coding_bound,
    dkl_binary,
    eps_df,
    exact_failure,
    figure_data,
    read_integer,
    read_number,
    security_report,
    tau,
    win_prob_bound,
)
from cvue.channel import ERFC_ZERO
from cvue.protocol import MAX_SQUEEZING, ProtocolParams
from cvue.reference import monogamy_bound_exact, monogamy_bound_relaxed


class TestReaders:
    @pytest.mark.parametrize(
        "read,value",
        [
            (read, value)
            for read in (read_number, read_integer)
            for value in (True, False, np.True_, None, [1], "1", "0.4", {})
        ]
        # past the float range; as an integer it is left to the callers' range checks
        + [pytest.param(read_number, 10**400, id="read_number-10**400")],
    )
    def test_refused_naming_the_key(self, read, value):
        with pytest.raises(ValueError) as info:
            read(value, "alpha")
        kind = "a number" if read is read_number else "an integer"
        assert str(info.value) == f"alpha must be {kind}, got {value!r}"

    @pytest.mark.parametrize(
        "value,expected",
        [(0.4, 0.4), (1000, 1000.0), (np.float64(3.0), 3.0), (np.float32(0.5), 0.5),
         (np.int64(5), 5.0), (2**1023, 2.0**1023)],
        ids=repr,
    )
    def test_numbers_read_as_floats(self, value, expected):
        number = read_number(value, "alpha")
        assert type(number) is float and number == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_is_a_number_and_not_an_integer(self, value):
        number = read_number(value, "alpha")
        assert type(number) is float and (number == value or math.isnan(number))
        with pytest.raises(ValueError, match="^trials must be an integer"):
            read_integer(value, "trials")

    @pytest.mark.parametrize(
        "value,expected",
        [(1000, 1000), (1e20, 10**20), (10.0, 10), (np.float64(3.0), 3), (np.int64(5), 5),
         (2**63, 2**63), (-3, -3)],
        ids=repr,
    )
    def test_integers_read_as_ints(self, value, expected):
        number = read_integer(value, "trials")
        assert type(number) is int and number == expected

    @pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.float32(0.5), 1e-300], ids=repr)
    def test_fractional_value_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            read_integer(value, "trials")


class TestBer:
    def test_reference_point(self):
        assert abs(ber_analytic(0.4, 3.4) - 0.014) < 5e-4
        assert np.isclose(ber_analytic(0.4, 3.4), 0.014233207919441758, rtol=1e-12)

    def test_no_squeezing(self):
        assert np.isclose(ber_analytic(0.4, 0.0), 0.2858038224766658, rtol=1e-12)

    def test_small_alpha_limit(self):
        assert abs(ber_analytic(1e-9, 1.0) - 0.5) < 1e-6

    def test_strictly_decreasing(self):
        alphas = np.linspace(0.05, 1.5, 40)
        assert np.all(np.diff(ber_analytic(alphas, 3.0)) < 0)
        squeezings = np.linspace(0.0, 5.0, 40)
        values = [ber_analytic(0.4, r) for r in squeezings]
        assert np.all(np.diff(values) < 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ber_analytic(0.0, 1.0)
        with pytest.raises(ValueError):
            ber_analytic(0.4, -0.5)

    def test_scalar_path_has_the_array_paths_bits(self):
        # np.cosh and math.cosh differ by an ulp on some of these r
        alphas = [5e-324, 1e-9, 0.1, 0.4, 1.0, 3.0, 26.64, ERFC_ZERO, 27.4, 1e300, math.inf]
        squeezings = np.concatenate(
            ([0.0, 5e-324, MAX_SQUEEZING], np.linspace(0.0, 12.0, 601),
             np.linspace(0.0, MAX_SQUEEZING, 601))
        )
        grid = ber_analytic(np.array(alphas)[:, None], squeezings[None, :])
        for i, alpha in enumerate(alphas):
            scalar = [ber_analytic(alpha, float(r)) for r in squeezings]
            assert all(type(v) is float for v in scalar)
            assert scalar == grid[i].tolist()

    @pytest.mark.parametrize(
        "alpha, squeezing, name",
        [
            (math.nan, 3.4, "alpha"),
            (-0.4, 3.4, "alpha"),
            (-math.inf, 3.4, "alpha"),
            (0.4, math.nan, "squeezing"),
            (0.4, math.inf, "squeezing"),
            (0.4, -1.0, "squeezing"),
            (0.4, MAX_SQUEEZING * (1 + 1e-15), "squeezing"),
        ],
    )
    def test_scalar_and_array_reject_alike(self, alpha, squeezing, name):
        messages = []
        for args in ((alpha, squeezing), (np.array([alpha]), np.array([squeezing]))):
            with pytest.raises(ValueError, match=name) as info:
                ber_analytic(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestOverflowFree:
    """Huge alpha or squeezing inside ProtocolParams' domain returns the
    limits without a numpy overflow warning."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_ber_at_huge_alpha(self):
        assert ber_analytic(1e300, 50.0) == 0.0
        assert ber_analytic(1e300, MAX_SQUEEZING) == 0.0
        assert ber_analytic(sys.float_info.max, 0.0) == 0.0
        values = ber_analytic(np.array([0.4, 1e300]), 3.4)
        assert values.tolist() == [0.01423320791944176, 0.0]

    @pytest.mark.parametrize("alpha", [26.0, 26.64, 27.0, 27.3, 27.4, 30.0])
    @pytest.mark.parametrize("squeezing", [0.0, 1e-3, 0.1])
    def test_ber_near_erfc_cutoff_is_the_plain_formula(self, alpha, squeezing):
        want = 0.5 * math.erfc(alpha * np.sqrt(np.cosh(squeezing)))
        assert ber_analytic(alpha, squeezing) == want

    def test_margin_at_huge_alpha(self):
        assert asymptotic_margin(1e300, 3.4) == pytest.approx(498.28921423310436, rel=1e-12)
        values = asymptotic_margin(np.array([0.4, 1e300, 1e308]), 3.4)
        assert values[0] == asymptotic_margin(0.4, 3.4)
        assert values[1] == asymptotic_margin(1e300, 3.4)
        assert values[2] == asymptotic_margin(1e308, 3.4)

    @pytest.mark.parametrize("alpha", [1e308, sys.float_info.max])
    def test_margin_where_one_plus_two_alpha_overflows(self, alpha):
        # beta is 0 here, so the margin is (log2(1 + 2 alpha) - 1) / 2
        try:
            import mpmath
        except ImportError:
            want = 0.5 * math.log2(0.5 + alpha)
        else:
            with mpmath.workdps(40):
                want = float((mpmath.log(1 + 2 * mpmath.mpf(alpha), 2) - 1) / 2)
        got = asymptotic_margin(alpha, 3.4)
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)

    def test_security_report_at_domain_edge(self):
        report = security_report(ProtocolParams(1, 2, 0, 1e308, MAX_SQUEEZING))
        assert report.beta == 0.0 and report.failure_exact == 0.0
        assert report.asymptotic_margin == asymptotic_margin(1e308, MAX_SQUEEZING)
        assert 511 < report.asymptotic_margin < 512


class TestEntropyAndDivergence:
    def test_entropy_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.014) - 0.10627) < 5e-5

    def test_entropy_symmetry(self):
        xs = np.linspace(0.01, 0.99, 25)
        assert np.allclose(binary_entropy(xs), binary_entropy(1 - xs))

    def test_dkl_zero_on_diagonal(self):
        for x in (0.1, 0.5, 0.9):
            assert dkl_binary(x, x) == 0.0

    def test_dkl_reference_value(self):
        assert np.isclose(dkl_binary(0.036, 0.0143), 0.011777971528191683, rtol=1e-12)
        assert abs(dkl_binary(0.036, 0.0143) - 0.0118) < 5e-5

    def test_dkl_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.01, 0.99, size=2)
            assert dkl_binary(a, b) >= 0.0

    def test_dkl_domain(self):
        with pytest.raises(ValueError):
            dkl_binary(0.0, 0.5)
        with pytest.raises(ValueError):
            dkl_binary(0.5, 1.0)


def exact_binomial_tail(n, t, beta):
    # brute-force P[more than t successes] for the oracle comparison
    return sum(comb(n, j) * beta**j * (1 - beta) ** (n - j) for j in range(t + 1, n + 1))


class TestEpsDf:
    def test_reference_point(self):
        value = eps_df(1000, 35, 0.4, 3.4)
        assert 5.7e-6 <= value <= 8.3e-6
        assert np.isclose(value, 6.919314261378442e-06, rtol=1e-9)

    def test_degenerate_returns_one(self):
        # beta(0.4, 0) = 0.2858 >= (t+1)/N
        assert eps_df(10, 1, 0.4, 0.0) == 1.0

    def test_upper_bounds_exact_tail_exhaustively(self):
        for n in range(2, 31):
            for t in range(0, n // 2):
                for alpha, r in [(0.4, 3.4), (0.4, 2.0), (0.2, 1.0)]:
                    beta = ber_analytic(alpha, r)
                    if beta >= (t + 1) / n:
                        assert eps_df(n, t, alpha, r) == 1.0
                    else:
                        bound = eps_df(n, t, alpha, r)
                        assert exact_binomial_tail(n, t, beta) <= bound * (1 + 1e-12)

    def test_upper_bounds_tail_at_larger_sizes(self):
        # spot checks where exhaustive enumeration is impractical
        from scipy.stats import binom

        for n, t, alpha, r in [(200, 10, 0.4, 3.0), (500, 20, 0.4, 3.4), (1000, 35, 0.4, 3.4)]:
            beta = ber_analytic(alpha, r)
            assert binom.sf(t, n, beta) <= eps_df(n, t, alpha, r)

    def test_precondition(self):
        with pytest.raises(ValueError):
            eps_df(4, 4, 0.4, 3.4)

    @pytest.mark.parametrize("r", [10.0, 12.0, 20.0])
    def test_underflowed_beta_gives_limit_zero(self, r):
        assert ber_analytic(0.4, r) == 0.0
        assert eps_df(1000, 35, 0.4, r) == 0.0


class TestChernoffFailure:
    def test_eps_df_is_chernoff_at_the_noiseless_ber(self):
        for n, t, alpha, r in [(1000, 35, 0.4, 3.4), (64, 8, 0.4, 2.0), (10, 1, 0.4, 0.0)]:
            assert eps_df(n, t, alpha, r) == chernoff_failure(n, t, ber_analytic(alpha, r))

    def test_subnormal_beta_stays_above_exact_tail(self):
        # D_KL(1/2 || 5e-324) holds the ratio 1e323, past the largest float
        assert chernoff_failure(2, 0, 5e-324) >= exact_failure(2, 0, 5e-324) > 0.0

    @pytest.mark.parametrize(
        "n, t, beta", [(4, 4, 0.1), (10, 2, -0.1), (10, 2, 1.5), (10, 2, math.nan)]
    )
    def test_argument_validation(self, n, t, beta):
        with pytest.raises(ValueError):
            chernoff_failure(n, t, beta)


class TestExactFailure:
    def test_reference_point(self):
        beta = ber_analytic(0.4, 3.4)
        value = exact_failure(1000, 35, beta)
        assert abs(value - 7.43e-7) <= 1e-9
        # independent route: the log-space sum of the tail terms
        ks = np.arange(36, 1001)
        log_terms = (
            gammaln(1001) - gammaln(ks + 1) - gammaln(1001 - ks)
            + ks * math.log(beta) + (1000 - ks) * math.log1p(-beta)
        )
        assert value == pytest.approx(math.exp(logsumexp(log_terms)), rel=1e-12, abs=0)

    def test_matches_exact_rationals_up_to_64(self):
        for n in (1, 2, 5, 16, 33, 64):
            for t in sorted({0, n // 4, n // 2, n - 1}):
                for beta in (1e-6, 0.0142, 0.25, 0.5, 0.93):
                    b = Fraction(beta)  # the float's exact value
                    exact = sum(
                        comb(n, k) * b**k * (1 - b) ** (n - k) for k in range(t + 1, n + 1)
                    )
                    want = pytest.approx(float(exact), rel=1e-12, abs=0)
                    assert exact_failure(n, t, beta) == want

    def test_endpoints(self):
        assert exact_failure(1000, 35, 0.0) == 0.0
        assert exact_failure(1000, 35, 1.0) == 1.0

    @pytest.mark.parametrize(
        "n, t, beta",
        [(10, 10, 0.1), (10, -1, 0.1), (10, 2, -0.1), (10, 2, 1.5), (10, 2, math.nan)],
    )
    def test_argument_validation(self, n, t, beta):
        with pytest.raises(ValueError):
            exact_failure(n, t, beta)


# (N, t, alpha, r) over ProtocolParams' domain: N even, t < N/2
POINTS = st.integers(1, 1000).flatmap(
    lambda half: st.tuples(
        st.just(2 * half),
        st.integers(0, half - 1),
        st.floats(0.01, 2.0),
        st.floats(0.0, 20.0),
    )
)


class TestFailureProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(POINTS)
    def test_exact_tail_below_chernoff(self, point):
        n, t, alpha, r = point
        exact = exact_failure(n, t, ber_analytic(alpha, r))
        assert 0.0 <= exact <= eps_df(n, t, alpha, r) <= 1.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(POINTS, st.floats(0.0, 20.0))
    def test_exact_tail_nonincreasing_in_squeezing(self, point, other_r):
        n, t, alpha, r = point
        low, high = sorted((r, other_r))
        assert exact_failure(n, t, ber_analytic(alpha, high)) <= exact_failure(
            n, t, ber_analytic(alpha, low)
        )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(POINTS, st.floats(0.0, 1.0))
    def test_exact_tail_below_chernoff_at_any_beta(self, point, beta):
        # the channel's flip probability is any beta, not only ber_analytic's
        n, t, _alpha, _r = point
        assert 0.0 <= exact_failure(n, t, beta) <= chernoff_failure(n, t, beta) <= 1.0


# ProtocolParams' domain: alpha positive and finite, cosh(r) finite
ALPHAS = st.floats(0.0, exclude_min=True, allow_infinity=False)
SQUEEZINGS = st.floats(0.0, MAX_SQUEEZING)


class TestClosedFormProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(ALPHAS, min_size=2, max_size=2), st.lists(SQUEEZINGS, min_size=2, max_size=2))
    def test_ber_nonincreasing_in_alpha_and_squeezing(self, alphas, squeezings):
        (a_low, a_high), (r_low, r_high) = sorted(alphas), sorted(squeezings)
        assert ber_analytic(a_high, r_low) <= ber_analytic(a_low, r_low)
        assert ber_analytic(a_low, r_high) <= ber_analytic(a_low, r_low)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(1, 1000).flatmap(
            lambda half: st.tuples(
                st.just(2 * half), st.integers(1, 2 * half), st.integers(0, half - 1)
            )
        ),
        ALPHAS,
        SQUEEZINGS,
    )
    def test_security_report_probabilities(self, sizes, alpha, squeezing):
        num_modes, msg_len, max_errors = sizes
        params = ProtocolParams(msg_len, num_modes, max_errors, alpha, squeezing)
        report = security_report(params).as_dict()
        for name in ("beta", "eps_df", "failure_exact", "win_bound"):
            assert 0.0 <= report[name] <= 1.0


class TestMonogamy:
    def test_vandermonde_point_exact(self):
        for n in range(2, 66, 2):
            assert monogamy_bound_exact(n, 0.5, 0.5) == 1.0
            assert monogamy_bound_exact(n, 1.0, 0.25) == 1.0

    def test_tiny_product_approaches_inverse_central_binomial(self):
        for n in (2, 4, 8):
            value = monogamy_bound_exact(n, 1e-30, 1e-30)
            assert np.isclose(value, 1 / comb(n, n // 2), rtol=1e-9)
        assert np.isclose(monogamy_bound_exact(2, 1e-30, 1e-30), 0.5, rtol=1e-9)

    def test_hand_expanded_value(self):
        # N=4, delta=eps=1/16: (1 + 4/8 + 1/64)/6 = 97/384
        value = monogamy_bound_exact(4, 1 / 16, 1 / 16)
        assert abs(value - 97 / 384) < 1e-12

    def test_exact_below_relaxed_on_grid(self):
        for n in range(2, 66, 2):
            for x in np.linspace(0.0, 1.0, 26)[1:]:
                delta = eps = x / 2  # 2 sqrt(delta*eps) = x
                exact = monogamy_bound_exact(n, delta, eps)
                relaxed = monogamy_bound_relaxed(n, delta, eps)
                assert exact <= relaxed * (1 + 1e-12)

    def test_relaxed_at_vandermonde_point(self):
        assert np.isclose(monogamy_bound_relaxed(2, 0.5, 0.5), math.sqrt(math.e), rtol=1e-12)
        assert monogamy_bound_relaxed(2, 1e-30, 1e-30) >= 0.5

    def test_matches_integer_arithmetic_up_to_64(self):
        # independent route: exact integer binomials with float powers
        rng = np.random.default_rng(1)
        for n in range(2, 66, 2):
            half = n // 2
            x = float(rng.uniform(0.05, 0.95))
            direct = sum(comb(half, k) ** 2 * x**k for k in range(half + 1)) / comb(n, half)
            assert np.isclose(monogamy_bound_exact(n, x / 2, x / 2), direct, rtol=1e-10)

    def test_log_space_matches_exact_rationals(self):
        # exact rational evaluation as the independent oracle, N <= 20
        for n in range(2, 21, 2):
            half = n // 2
            for j in (1, 7, 16, 20):
                x = Fraction(j, 20)
                exact = sum(
                    Fraction(comb(half, k)) ** 2 * x**k for k in range(half + 1)
                ) / comb(n, half)
                mine = monogamy_bound_exact(n, float(x) / 2, float(x) / 2)
                assert abs(mine - float(exact)) <= 1e-9 * float(exact)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            monogamy_bound_exact(3, 0.1, 0.1)
        with pytest.raises(ValueError):
            monogamy_bound_exact(4, 0.0, 0.1)
        with pytest.raises(ValueError):
            monogamy_bound_relaxed(5, 0.1, 0.1)


class TestTau:
    def test_reference_point(self):
        value = tau(1000, 35, 0.4)
        assert abs(value - 930.0) < 0.1
        direct = 500 + 465 * math.log2(1.8) + 35 + 0.5 * math.log2(math.e)
        assert np.isclose(value, direct, rtol=1e-12)

    def test_small_alpha_t_zero(self):
        value = tau(1000, 0, 1e-12)
        assert np.isclose(value, 500 + 0.5 * math.log2(math.e), atol=1e-6)

    def test_win_bound_clips_to_one(self):
        value = tau(1000, 35, 0.4)
        assert win_prob_bound(892, value) == 1.0
        assert value - 892 == pytest.approx(38.04, abs=0.01)

    def test_win_bound_decays(self):
        assert win_prob_bound(100, 90.0) == 2.0**-10

    def test_matches_unfolded_product_form(self):
        # 2^(tau - n) must equal 2^(N-n) * sqrt(e) * ((1 + 2 alpha)/2)^(N/2 - t)
        for n, num_modes, t, alpha in [(200, 214, 7, 0.4), (64, 80, 3, 0.25)]:
            folded = win_prob_bound(n, tau(num_modes, t, alpha))
            product = (
                2.0 ** (num_modes - n)
                * math.sqrt(math.e)
                * ((1 + 2 * alpha) / 2) ** (num_modes / 2 - t)
            )
            assert np.isclose(folded, min(1.0, product), rtol=1e-9)

    def test_precondition(self):
        with pytest.raises(ValueError):
            tau(10, 6, 0.4)

    def test_negative_max_errors_refused(self):
        with pytest.raises(ValueError, match="0 <= max_errors"):
            tau(1000, -1, 0.4)


class TestAsymptoticRegion:
    def test_secure_point(self):
        value = asymptotic_margin(0.4, 4.0)
        assert value < 0
        assert np.isclose(value, -0.058991662665761266, rtol=1e-9)

    def test_insecure_at_low_squeezing(self):
        alphas = np.linspace(0.02, 2.0, 200)
        assert np.all(asymptotic_margin(alphas, 3.0) >= 0)

    def test_margin_at_tiny_alpha(self):
        assert asymptotic_margin(1e-9, 3.0) == pytest.approx(1.0, abs=1e-6)

    def test_decreasing_in_squeezing(self):
        # restricted to the range where beta stays well above machine precision
        for alpha in (0.2, 0.4, 0.8):
            values = [asymptotic_margin(alpha, r) for r in np.linspace(0.5, 3.5, 30)]
            assert np.all(np.diff(values) < 0)

    def test_margin_is_large_codeword_limit_of_tau(self):
        # margin = lim (tau(N, N*beta, alpha) - N*(1 - h(beta))) / N, which ties
        # the region formula to the security exponent it was derived from
        n = 2_000_000
        for alpha, r in [(0.4, 3.4), (0.3, 4.0), (0.6, 3.0)]:
            beta = ber_analytic(alpha, r)
            t = int(round(n * beta))
            scaled = (tau(n, t, alpha) - n * (1 - binary_entropy(beta))) / n
            assert abs(scaled - asymptotic_margin(alpha, r)) < 5e-6


class TestConjugateCoding:
    def test_single_bit(self):
        assert np.isclose(conjugate_coding_bound(1), 0.8535533905932737, rtol=1e-12)

    def test_ratio_to_ideal(self):
        for n in (1, 10, 50):
            ratio = conjugate_coding_bound(n) / 2.0**-n
            assert np.isclose(ratio, (1 + 1 / math.sqrt(2)) ** n, rtol=1e-9)

    def test_large_n(self):
        assert np.isclose(
            conjugate_coding_bound(100), math.exp(100 * math.log(0.8535533905932737)), rtol=1e-9
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            conjugate_coding_bound(0)


class TestSecurityReport:
    def test_reference_params(self):
        params = ProtocolParams(892, 1000, 35, 0.4, 3.4)
        report = security_report(params)
        assert np.isclose(report.beta, ber_analytic(0.4, 3.4))
        assert report.win_bound == 1.0  # vacuous at these parameters
        assert report.eps_df < 1e-5
        assert report.failure_exact == exact_failure(1000, 35, report.beta)
        assert report.as_dict()["msg_len"] == 892

    @pytest.mark.parametrize("field", ["beta", "eps_df", "failure_exact", "win_bound"])
    def test_probabilities_validated(self, field):
        values = security_report(ProtocolParams(892, 1000, 35, 0.4, 3.4)).as_dict()
        values[field] = 1.5
        with pytest.raises(ValueError, match=field):
            SecurityReport(**values)

    def test_non_vacuous_bound(self):
        params = ProtocolParams(32, 32, 0, 0.25, 3.4)
        report = security_report(params)
        assert 0 < report.win_bound < 0.02

    def test_large_squeezing(self):
        report = security_report(ProtocolParams(892, 1000, 35, 0.4, 12.0))
        assert report.beta == 0.0
        assert report.eps_df == 0.0
        assert report.failure_exact == 0.0
        assert math.isfinite(report.asymptotic_margin)


class TestFigureData:
    def test_fig1_matches_margin(self):
        columns, rows = figure_data("fig1", {"alpha": (0.1, 0.5, 3), "squeezing": (3.0, 4.0, 3)})
        assert columns == ["alpha", "squeezing", "margin"]
        for alpha, squeezing, margin in rows:
            assert np.isclose(margin, asymptotic_margin(alpha, squeezing), rtol=1e-12)

    def test_fig2a_reference_row(self):
        columns, rows = figure_data(
            "fig2a", {"squeezing": (3.5, 3.5, 1), "transmittance": [0.8]}
        )
        assert columns == ["squeezing", "transmittance", "beta_noisy"]
        assert len(rows) == 1
        assert np.isclose(rows[0][2], 0.18226115012380562, rtol=1e-12)

    def test_fig2b_grid_shape(self):
        _, rows = figure_data("fig2b", {"transmittance": (0.6, 1.0, 5), "excess_noise": (0.0, 0.01, 4)})
        assert len(rows) == 20
        assert all(0 <= r[2] <= 0.5 for r in rows)

    def test_fig4_curves(self):
        columns, rows = figure_data("fig4", {"msg_len": (100, 1000, 12)})
        assert columns == ["msg_len", "ideal", "conjugate_coding", "cv_scheme"]
        for n, ideal, conjugate, cv in rows:
            assert np.isclose(ideal, 2.0**-n, rtol=1e-9)
            assert np.isclose(conjugate, conjugate_coding_bound(n), rtol=1e-9)
            assert 0.0 <= cv <= 1.0
        # decay sets in for message sizes in the hundreds at the working parameters
        assert rows[-1][3] < 0.1

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure"):
            figure_data("fig9")

    def test_malformed_grid_entry(self):
        with pytest.raises(ValueError, match="triple"):
            figure_data("fig1", {"alpha": [0.1, 0.5]})
        with pytest.raises(ValueError, match="triple"):
            figure_data("fig4", {"msg_len": "all"})
