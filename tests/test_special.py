"""Accuracy contracts of the special functions efgen takes from scipy.special.

Log-gamma, digamma and trigamma are scipy's gammaln, digamma and
polygamma(1, .); log-factorials are efgen.families.log_factorial, gammaln(k + 1)
behind a check for non-negative integers. Expected values marked as
oracle-derived were computed with the independent oracles in this file
(mpmath quadrature of the gamma integral, high-precision central differences
of log-gamma) and frozen; the oracles are kept here so the numbers stay
auditable.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, polygamma
from scipy.special import gammaln as log_gamma

from efgen.families import log_factorial

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


class TestLogFactorial:
    @pytest.mark.parametrize("n,expected", [(0, 0.0), (1, 0.0), (5, math.log(120.0))])
    def test_small_values(self, n, expected):
        assert log_factorial(n) == pytest.approx(expected, abs=1e-13)

    def test_exact_summation_region_matches_log_gamma(self):
        # gammaln(n + 1) agrees with the correctly rounded sum of the logs.
        for n in (2, 17, 128, 256):
            summed = math.fsum(math.log(k) for k in range(2, n + 1))
            assert log_factorial(n) == pytest.approx(summed, rel=1e-14)
            assert log_factorial(n) == log_gamma(n + 1.0)

    def test_large_values_delegate_to_log_gamma(self):
        assert log_factorial(1000) == pytest.approx(float(mp.loggamma(1001)), rel=1e-13)

    @pytest.mark.parametrize("bad", [-1, 2.5])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_factorial(bad)
