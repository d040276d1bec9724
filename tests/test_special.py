"""Accuracy contracts of the special functions efgen calls.

efgen.families is the package's only route to scipy.special: its gammaln,
digamma and polygamma import scipy.special on first use and call the
function of the same name, and TestWrappers checks that each returns
scipy's result bit for bit. The contracts below test those wrappers, since
they are what the library calls. Log-factorials are
efgen.families.log_factorial, which needs no scipy: it reads a table of the
logs of the exact integers k! below 256 and calls math.lgamma(k + 1) above,
behind a check for non-negative integers. TestLogFactorial holds it to
mpmath in ulps. Expected values marked as oracle-derived were computed with the
independent oracles in this file (mpmath quadrature of the gamma integral,
high-precision central differences of log-gamma) and frozen; the oracles are
kept here so the numbers stay auditable.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen.families import digamma, log_factorial, polygamma
from efgen.families import gammaln as log_gamma

mp.mp.dps = 40


def oracle_log_gamma_quad(x):
    """High-precision quadrature of the defining integral of the gamma function."""
    val = mp.quad(lambda t: t ** (mp.mpf(x) - 1) * mp.e ** (-t), [0, mp.inf])
    return float(mp.log(val))


def oracle_digamma_fd(x):
    """Central finite difference of high-precision log-gamma."""
    h = mp.mpf("1e-12")
    x = mp.mpf(x)
    return float((mp.loggamma(x + h) - mp.loggamma(x - h)) / (2 * h))


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_five_is_log_24(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    def test_half_matches_quadrature_oracle(self):
        # Frozen from oracle_log_gamma_quad(0.5); equals 0.5*ln(pi).
        expected = 0.5723649429247001
        assert oracle_log_gamma_quad(0.5) == pytest.approx(expected, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(expected, abs=1e-13)

    def test_absolute_accuracy_small_arguments(self):
        # Values small enough that 1e-12 absolute error is representable.
        for x in np.logspace(-3, math.log10(30.0), 101):
            assert abs(log_gamma(x) - float(mp.loggamma(x))) <= 1e-12, x

    def test_relative_accuracy_full_range(self):
        for x in np.logspace(-3, 6, 121):
            ref = float(mp.loggamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x

    @given(st.floats(min_value=1e-3, max_value=100.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-11

    def test_half_integer_consistency(self):
        # ln G(0.5) + ln G(1.5) against the quadrature oracle of both factors.
        ref = oracle_log_gamma_quad(0.5) + oracle_log_gamma_quad(1.5)
        assert log_gamma(0.5) + log_gamma(1.5) == pytest.approx(ref, abs=1e-11)


class TestDigamma:
    def test_at_one_matches_fd_oracle(self):
        # Frozen from oracle_digamma_fd(1.0): the negative Euler constant.
        expected = -0.5772156649015329
        assert oracle_digamma_fd(1.0) == pytest.approx(expected, abs=1e-13)
        assert digamma(1.0) == pytest.approx(expected, abs=1e-12)

    def test_at_ten_matches_fd_oracle(self):
        expected = 2.2517525890667211  # frozen from oracle_digamma_fd(10.0)
        assert oracle_digamma_fd(10.0) == pytest.approx(expected, abs=1e-13)
        assert digamma(10.0) == pytest.approx(expected, abs=1e-12)

    def test_recurrence_at_two(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-13)

    def test_absolute_accuracy_contract(self):
        for x in np.logspace(-3, 6, 121):
            assert abs(digamma(x) - float(mp.digamma(x))) <= 1e-10, x

    def test_is_derivative_of_log_gamma(self):
        # Central difference of our own log_gamma on a log-spaced grid. The
        # step must stay proportional to x: below x ~ 0.1 the curvature of
        # log-gamma (~2/x^3) would otherwise push the truncation error of the
        # difference quotient itself past the 1e-6 tolerance.
        for x in np.logspace(-2, 4, 61):
            h = 1e-5 * x
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
            assert abs(digamma(x) - fd) <= 1e-6, x


def trigamma(x):
    return polygamma(1, x)


class TestTrigamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 1.6449340668482264),  # pi^2/6
            (0.5, 4.934802200544679),  # pi^2/2
            (7.25, 0.14787923315893217),
        ],
    )
    def test_reference_values(self, x, expected):
        assert trigamma(x) == pytest.approx(expected, abs=1e-11)

    def test_is_derivative_of_digamma(self):
        for x in np.logspace(-2, 3, 41):
            h = 1e-5 * max(1.0, x)
            fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
            assert abs(trigamma(x) - fd) <= 1e-5 * max(1.0, trigamma(x)), x


def _same_bits(ours, theirs):
    return (
        type(ours) is type(theirs)
        and np.asarray(ours).dtype == np.asarray(theirs).dtype
        and np.shape(ours) == np.shape(theirs)
        and np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()
    )


class TestWrappers:
    """Each wrapper returns exactly what its scipy.special function returns."""

    ARGUMENTS = [
        0.5,
        7.25,
        -2.5,
        1e5,
        np.logspace(-3, 6, 50),
        np.linspace(0.1, 20.0, 12).reshape(3, 4),
    ]

    @pytest.mark.parametrize("x", ARGUMENTS)
    def test_gammaln_and_digamma(self, x):
        assert _same_bits(log_gamma(x), scipy.special.gammaln(x))
        assert _same_bits(digamma(x), scipy.special.digamma(x))

    @pytest.mark.parametrize("x", ARGUMENTS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_polygamma(self, n, x):
        assert _same_bits(polygamma(n, x), scipy.special.polygamma(n, x))


def ulp_error(value, exact):
    """|value - exact| in units of the last place of the float nearest exact."""
    return float(abs(mp.mpf(float(value)) - exact) / mp.mpf(math.ulp(float(exact))))


# Log-spaced from 256 to 2**53, with the integers next to 2**53 and 2**52.
LARGE_K = sorted(
    {int(v) for v in np.logspace(math.log10(256), 53 * math.log10(2), 400)}
    | {256, 257, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1, 2**53}
)


class TestLogFactorial:
    @pytest.mark.parametrize("n,expected", [(0, 0.0), (1, 0.0), (5, math.log(120.0))])
    def test_small_values(self, n, expected):
        assert log_factorial(n) == pytest.approx(expected, abs=1e-13)

    def test_exact_summation_region_matches_the_sum_of_logs(self):
        for n in (2, 17, 128, 256):
            summed = math.fsum(math.log(k) for k in range(2, n + 1))
            assert log_factorial(n) == pytest.approx(summed, rel=1e-14)

    def test_within_one_ulp_below_256(self):
        assert log_factorial(0) == 0.0 and log_factorial(1) == 0.0
        # The table's entries cross float max at 171!, where math.log of the
        # integer itself is 1.14 ulp off.
        for k in range(2, 256):
            assert ulp_error(log_factorial(k), mp.loggamma(k + 1)) <= 1.0, k

    def test_within_two_ulp_up_to_2_pow_53(self):
        got = log_factorial(np.array(LARGE_K, dtype=float))
        for k, value in zip(LARGE_K, got):
            assert ulp_error(value, mp.loggamma(mp.mpf(k) + 1)) <= 2.0, k

    @pytest.mark.parametrize(
        "k",
        [
            np.array(7.0),
            np.array(1000.0),
            np.array([3, 300, 3, 0, 2**53, 300, 255, 256]),
            np.array([[1, 900, 5], [900, 5, 1], [2, 2, 70000]]),
            np.zeros((0, 3)),
        ],
        ids=["0d-small", "0d-large", "1d", "2d", "empty"],
    )
    def test_arrays_match_scalar_calls_in_their_shape(self, k):
        got = log_factorial(k)
        assert np.shape(got) == k.shape
        want = [log_factorial(float(v)) for v in k.ravel()]
        np.testing.assert_array_equal(np.ravel(got), want)

    @pytest.mark.parametrize("bad", [-1, 2.5, math.nan, [3.0, -2.0], [[1.0, 0.5]]])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_factorial(bad)
