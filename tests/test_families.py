"""Exponential-family calculus: examples, invariants, and sampling checks."""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen import families as fam
from efgen.errors import DomainError, SupportError

from helpers import (
    FAMILY_GRID,
    entropy_consistency_error,
    gradient_identity_error,
    moment_identity_error,
    normalization_error,
    pseudo_entropy_relation_error,
)


class TestDescriptors:
    def test_factories(self):
        assert fam.bernoulli_product(4).natural_dim == 4
        assert fam.categorical(5).n_states == 5
        assert fam.categorical(5).natural_dim == 4
        assert fam.gaussian_diag_cov(3).natural_dim == 6
        assert fam.poisson_product(2).base_measure_kind == "poisson_factorial"

    @pytest.mark.parametrize("name", sorted(fam.DIMENSIONS))
    def test_dimensions_are_the_widths_of_the_maps(self, name):
        # A family's size alone fixes its natural and standard dimensions.
        family = fam.FamilyDescriptor(name, *{"categorical": (1, 4), "gamma": (1,)}.get(name, (3,)))
        row = random_standard_rows(family, np.random.default_rng(0), 1)[0]
        assert fam.check_standard(family, row).shape == (family.standard_dim,)
        with pytest.raises(ValueError):
            fam.check_standard(family, np.append(row, 0.5))
        assert fam.to_natural(family, row).shape == (family.natural_dim,)

    @pytest.mark.parametrize("name", sorted(fam.DIMENSIONS))
    def test_integer_valued_families_draw_integers(self, name):
        # Bernoulli, categorical and Poisson observations are integers, and
        # draws from the real-valued families are not.
        family = fam.FamilyDescriptor(name, *{"categorical": (1, 4), "gamma": (1,)}.get(name, (3,)))
        row = random_standard_rows(family, np.random.default_rng(0), 1)[0]
        x = fam.sample(family, row, np.random.default_rng(1), 50)
        assert family.integer_valued == bool(np.all(x == np.floor(x)))
        integer = name in ("bernoulli_product", "categorical", "poisson_product")
        assert family.integer_valued == integer

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(("gaussian", 2), id="unknown-name"),
            pytest.param(("poisson_product", 0), id="no-data-dimension"),
            pytest.param(("categorical", 1), id="categorical-without-states"),
            pytest.param(("bernoulli_product", 2, 3), id="states-on-another-family"),
            pytest.param(("categorical", 2, 3), id="categorical-data-dim-2"),
            pytest.param(("gamma", 2), id="gamma-data-dim-2"),
        ],
    )
    def test_refused(self, args):
        with pytest.raises(ValueError):
            fam.FamilyDescriptor(*args)


class TestToNatural:
    def test_bernoulli_symmetry(self):
        np.testing.assert_allclose(fam.to_natural(fam.bernoulli_product(1), [0.5]), [0.0])

    def test_gamma_shape_rate(self):
        np.testing.assert_allclose(
            fam.to_natural(fam.gamma_family(), [2.0, 3.0]), [1.0, -3.0]
        )

    def test_poisson_log_rates(self):
        np.testing.assert_allclose(
            fam.to_natural(fam.poisson_product(2), [1.0, math.e]), [0.0, 1.0], atol=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fam.to_natural(fam.bernoulli_product(1), [1.0])


class TestFromNatural:
    def test_bernoulli(self):
        np.testing.assert_allclose(fam.from_natural(fam.bernoulli_product(1), [0.0]), [0.5])

    def test_gamma(self):
        np.testing.assert_allclose(
            fam.from_natural(fam.gamma_family(), [1.0, -3.0]), [2.0, 3.0]
        )

    def test_gaussian_scalar_var(self):
        out = fam.from_natural(fam.gaussian_scalar_var(1), [2.0, -0.5])
        np.testing.assert_allclose(out, [2.0, 1.0])

    def test_unequal_precisions_rejected_for_scalar_var(self):
        with pytest.raises(DomainError):
            fam.from_natural(fam.gaussian_scalar_var(2), [0.0, 0.0, -0.5, -0.6])

    def test_natural_domain_error(self):
        with pytest.raises(DomainError):
            fam.from_natural(fam.gamma_family(), [1.0, 0.5])


class TestLogPartition:
    def test_poisson_unit_rates(self):
        assert fam.log_partition(fam.poisson_product(2), [0.0, 0.0]) == pytest.approx(2.0)

    def test_bernoulli_zero(self):
        assert fam.log_partition(fam.bernoulli_product(1), [0.0]) == pytest.approx(math.log(2))

    @staticmethod
    def bernoulli_ulps(etas):
        """Each eta's log(1 + e^eta), one coordinate per row, in ulps from
        mpmath's correctly rounded value; both are non-negative, so their
        bit patterns order as the values do."""
        etas = np.asarray(etas, dtype=float)
        got = fam.log_partition(fam.bernoulli_product(1), etas[:, None])
        with mp.workprec(200):
            exact = np.array([float(mp.log1p(mp.exp(mp.mpf(float(e))))) for e in etas])
        assert np.all(got >= 0.0)
        return np.abs(got.view(np.int64) - exact.view(np.int64))

    def test_bernoulli_within_an_ulp_at_the_edges(self):
        # Signed zeros, subnormals, where e^-|eta| falls below eps, where
        # e^eta overflows or underflows, and the ends of the float range.
        etas = [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 709.7, -745.1, 1e308, -1e308]
        assert np.max(self.bernoulli_ulps(etas)) <= 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-50.0, 50.0),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_bernoulli_within_an_ulp(self, etas):
        assert np.max(self.bernoulli_ulps(etas)) <= 1

    def test_gamma(self):
        # log Gamma(2) - 2 log 3 = -2 ln 3
        assert fam.log_partition(fam.gamma_family(), [1.0, -3.0]) == pytest.approx(
            -2.0 * math.log(3.0), abs=1e-13
        )


class TestGradLogPartition:
    def test_bernoulli(self):
        np.testing.assert_allclose(
            fam.grad_log_partition(fam.bernoulli_product(1), [0.0]), [0.5]
        )

    def test_poisson(self):
        np.testing.assert_allclose(
            fam.grad_log_partition(fam.poisson_product(1), [0.0]), [1.0]
        )

    def test_gamma_expected_stats(self):
        # Frozen from the quadrature oracle E[(ln x, x)] under Gamma(2, 3):
        # (digamma(2) - ln 3, 2/3). moment_identity_error re-derives it below.
        got = fam.grad_log_partition(fam.gamma_family(), [1.0, -3.0])
        np.testing.assert_allclose(got, [-0.6758279536, 2.0 / 3.0], atol=1e-9)
        assert moment_identity_error(fam.gamma_family(), np.array([2.0, 3.0])) < 1e-8


class TestSufficientStats:
    def test_categorical_last_state_is_zero_vector(self):
        np.testing.assert_array_equal(
            fam.batch_sufficient_stats(fam.categorical(3), [2, 0]), [[0.0, 0.0], [1.0, 0.0]]
        )

    def test_gamma_at_one(self):
        np.testing.assert_allclose(
            fam.batch_sufficient_stats(fam.gamma_family(), [[1.0]]), [[0.0, 1.0]]
        )

    def test_poisson_identity(self):
        np.testing.assert_array_equal(
            fam.batch_sufficient_stats(fam.poisson_product(2), [[2, 0]]), [[2.0, 0.0]]
        )

    def test_support_error(self):
        with pytest.raises(SupportError):
            fam.batch_sufficient_stats(fam.poisson_product(2), [[1, 0], [-1, 0]])


class TestLogBaseMeasure:
    def test_gaussian_unit(self):
        got = fam.batch_log_base_measure(fam.gaussian_diag_cov(2), [[3.0, -4.0], [0.0, 1.0]])
        np.testing.assert_array_equal(got, [0.0, 0.0])

    def test_poisson_zero_counts(self):
        assert fam.batch_log_base_measure(fam.poisson_product(2), [[0, 0]])[0] == 0.0

    def test_poisson_factorials(self):
        got = fam.batch_log_base_measure(fam.poisson_product(2), [[3, 2]])[0]
        assert got == pytest.approx(-(math.log(6) + math.log(2)), abs=1e-13)


class TestLogDensity:
    def test_bernoulli(self):
        got = fam.log_density(fam.bernoulli_product(1), [0.0], [1.0])
        assert got == pytest.approx(-math.log(2))

    def test_poisson(self):
        got = fam.log_density(fam.poisson_product(1), [0.0], [2])
        assert got == pytest.approx(-math.log(2) - 1.0)

    def test_gamma_matches_direct_pdf_oracle(self):
        # Gamma(2,3) density at x=1: beta^alpha x^(alpha-1) exp(-beta x)/Gamma(alpha)
        direct = 2.0 * math.log(3.0) + 1.0 * math.log(1.0) - 3.0 * 1.0 - math.lgamma(2.0)
        got = fam.log_density(fam.gamma_family(), [1.0, -3.0], [1.0])
        assert got == pytest.approx(direct, abs=1e-12)
        assert got == pytest.approx(math.log(9.0) - 3.0, abs=1e-12)


class TestEntropy:
    def test_bernoulli_half(self):
        assert fam.entropy(fam.bernoulli_product(1), [0.5]) == pytest.approx(math.log(2))

    def test_gaussian_unit_entropy_variance(self):
        s2 = 1.0 / (2.0 * math.pi * math.e)
        assert fam.entropy(fam.gaussian_scalar_var(1), [0.0, s2]) == pytest.approx(0.0, abs=1e-13)

    def test_gamma_closed_form(self):
        # alpha - ln beta + ln Gamma(alpha) + (1 - alpha) psi(alpha), checked
        # against the -E[log p] quadrature oracle as well.
        expected = 2.0 - math.log(3.0) + 0.0 + (1.0 - 2.0) * (1.0 - 0.5772156649015329)
        assert fam.entropy(fam.gamma_family(), [2.0, 3.0]) == pytest.approx(expected, abs=1e-10)
        assert entropy_consistency_error(fam.gamma_family(), np.array([2.0, 3.0])) < 1e-9


def mpmath_poisson_sums(lam: float):
    """(entropy, E[log K!]) of Pois(lam) by a 30-digit sum over lam -+ 15 sd."""
    with mp.workdps(30):
        lam = mp.mpf(lam)
        half = 15 * mp.sqrt(lam)
        entropy = mean_log_fact = mp.mpf(0)
        for k in range(max(0, int(lam - half)), int(lam + half) + 60):
            log_fact = mp.loggamma(k + 1)
            log_p = k * mp.log(lam) - lam - log_fact
            p = mp.exp(log_p)
            entropy -= p * log_p
            mean_log_fact += p * log_fact
        return float(entropy), float(mean_log_fact)


def loop_poisson_sums(lam: float):
    """(entropy, E[log K!], number of terms) term by term from k = 0, stopping
    past lam once the remaining tail mass is below 1e-13. Each log k! is the
    log of the exact integer k!."""
    entropy = mean_log_fact = cum = 0.0
    k = 0
    while not (k > lam and 1.0 - cum < 1e-13):
        log_fact = math.log(math.factorial(k))
        log_p = k * math.log(lam) - lam - log_fact
        p = math.exp(log_p)
        entropy -= p * log_p
        mean_log_fact += p * log_fact
        cum += p
        k += 1
    return entropy, mean_log_fact, k


def mpmath_window_sums(lam: float, terms: int):
    """(entropy, E[log K!]) of Pois(lam) over k < terms, at 30 digits: the
    exact value of the truncated sums the series evaluates."""
    with mp.workdps(30):
        lam = mp.mpf(lam)
        entropy = mean_log_fact = mp.mpf(0)
        for k in range(terms):
            log_fact = mp.loggamma(k + 1)
            log_p = k * mp.log(lam) - lam - log_fact
            p = mp.exp(log_p)
            entropy -= p * log_p
            mean_log_fact += p * log_fact
        return float(entropy), float(mean_log_fact)


SMALL_RATES = [1e-6, 0.01, 1.0, 4.0, 9.5, 30.0]


class TestPoissonSeries:
    @pytest.mark.parametrize("lam", SMALL_RATES)
    def test_small_rates_match_the_term_by_term_loop(self, lam):
        f = fam.poisson_product(1)
        entropy, mean_log_fact, _ = loop_poisson_sums(lam)
        assert fam.entropy(f, [lam]) == pytest.approx(entropy, abs=1e-13)
        got_mean_log_fact = -fam.expected_log_base_measure(f, [lam])
        assert got_mean_log_fact == pytest.approx(mean_log_fact, abs=1e-13)

    @pytest.mark.parametrize("lam", SMALL_RATES)
    def test_small_rates_match_mpmath_over_the_same_terms(self, lam):
        f = fam.poisson_product(1)
        entropy, mean_log_fact = mpmath_window_sums(lam, loop_poisson_sums(lam)[2])
        assert fam.entropy(f, [lam]) == pytest.approx(entropy, rel=1e-14)
        got_mean_log_fact = -fam.expected_log_base_measure(f, [lam])
        assert got_mean_log_fact == pytest.approx(mean_log_fact, rel=1e-14)

    @pytest.mark.parametrize("lam", [1000.0, 10_000.0])
    def test_terminates_quickly_and_matches_mpmath(self, lam):
        # A child process bounds the wall clock even if the series never ends.
        code = (
            "import time\n"
            "from efgen import families as fam\n"
            "f = fam.poisson_product(1)\n"
            "t0 = time.perf_counter()\n"
            f"h = fam.entropy(f, [{lam!r}])\n"
            f"e = -fam.expected_log_base_measure(f, [{lam!r}])\n"
            "print(repr(h), repr(e), time.perf_counter() - t0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        entropy, mean_log_fact, seconds = (float(v) for v in proc.stdout.split())
        assert seconds < 1.0
        want_entropy, want_mean_log_fact = mpmath_poisson_sums(lam)
        assert entropy == pytest.approx(want_entropy, abs=1e-9)
        assert mean_log_fact == pytest.approx(want_mean_log_fact, rel=1e-11)


class TestPseudoEntropy:
    def test_poisson_unit_rates(self):
        n = fam.to_natural(fam.poisson_product(2), [1.0, 1.0])
        assert fam.pseudo_entropy(fam.poisson_product(2), n) == pytest.approx(2.0)

    def test_bernoulli_equals_entropy(self):
        assert fam.pseudo_entropy(fam.bernoulli_product(1), [0.0]) == pytest.approx(math.log(2))

    def test_gamma_equals_entropy(self):
        lhs = fam.pseudo_entropy(fam.gamma_family(), [1.0, -3.0])
        rhs = fam.entropy(fam.gamma_family(), [2.0, 3.0])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCalculusInvariants:
    """The four grid-wide identities; same oracles back the acceptance gate."""

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_gradient_identity(self, family, s):
        assert gradient_identity_error(family, s) <= 1e-6

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_normalization(self, family, s):
        # Discrete supports (Poisson truncated below 1e-12 tail mass) must sum
        # to 1 within 1e-10; 1-D quadrature of continuous densities within 1e-8.
        tol = 1e-10 if family.name in ("bernoulli_product", "categorical", "poisson_product") else 1e-8
        assert normalization_error(family, s) <= tol

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_moment_identity(self, family, s):
        assert moment_identity_error(family, s) <= 1e-8

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_entropy_consistency(self, family, s):
        assert entropy_consistency_error(family, s) <= 1e-7

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_pseudo_entropy_relation(self, family, s):
        assert pseudo_entropy_relation_error(family, s) <= 1e-7

    @pytest.mark.parametrize("family,s", FAMILY_GRID, ids=lambda v: str(v))
    def test_round_trip(self, family, s):
        back = fam.from_natural(family, fam.to_natural(family, s))
        np.testing.assert_allclose(back, s, atol=1e-12, rtol=1e-12)


@given(
    pi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    mu=st.floats(min_value=-50.0, max_value=50.0),
    s2=st.floats(min_value=1e-4, max_value=1e4),
)
@settings(max_examples=150, deadline=None)
def test_round_trip_property(pi, mu, s2):
    f = fam.bernoulli_product(1)
    np.testing.assert_allclose(
        fam.from_natural(f, fam.to_natural(f, [pi])), [pi], atol=1e-12, rtol=1e-9
    )
    g = fam.gaussian_scalar_var(1)
    np.testing.assert_allclose(
        fam.from_natural(g, fam.to_natural(g, [mu, s2])), [mu, s2], atol=1e-12, rtol=1e-9
    )


class TestSampling:
    def test_boundary_probability_rejected(self):
        with pytest.raises(DomainError):
            fam.sample(fam.bernoulli_product(1), [1.0], np.random.default_rng(0), 10)

    @pytest.mark.parametrize("rate", [2.0**53 - 1e6, 2.0**53 * (1 + 2**-52), 1e19])
    def test_poisson_rate_past_the_support_rejected(self, rate):
        # About half its counts pass 2**53, and past about 9.2e18 numpy
        # refuses it.
        with pytest.raises(DomainError, match="poisson rates near or above 2"):
            fam.sample(fam.poisson_product(2), [1.0, rate], np.random.default_rng(0), 64)

    def test_poisson_mean_within_five_sigma(self):
        rng = np.random.default_rng(7)
        xs = fam.sample(fam.poisson_product(1), [4.0], rng, 100_000)
        sigma = math.sqrt(4.0 / 100_000)
        assert abs(xs.mean() - 4.0) < 5.0 * sigma

    def test_categorical_frequencies_within_five_sigma(self):
        rng = np.random.default_rng(11)
        n = 100_000
        states = fam.sample(fam.categorical(3), [1 / 3, 1 / 3], rng, n)
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        for c in range(3):
            freq = np.mean(states == c)
            assert abs(freq - 1 / 3) < 5.0 * sigma

    def test_categorical_draws_are_generator_choice_draws(self):
        got = fam.sample(fam.categorical(3), [0.2, 0.5], np.random.default_rng(4), 1000)
        want = np.random.default_rng(4).choice(3, size=1000, p=[0.2, 0.5, 0.3])
        np.testing.assert_array_equal(got, want)

    def test_empirical_stats_match_grad_log_partition(self):
        rng = np.random.default_rng(3)
        f = fam.gamma_family()
        s = np.array([2.0, 3.0])
        xs = fam.sample(f, s, rng, 200_000)
        t_mean = np.array([np.log(xs).mean(), xs.mean()])
        grad = fam.grad_log_partition(f, fam.to_natural(f, s))
        # 5-sigma bounds with plug-in standard errors.
        se = np.array([np.log(xs).std(), xs.std()]) / math.sqrt(len(xs))
        assert np.all(np.abs(t_mean - grad) < 5.0 * se)

    def test_zero_count(self):
        out = fam.sample(fam.gaussian_diag_cov(2), [0.0, 0.0, 1.0, 1.0], np.random.default_rng(0), 0)
        assert out.shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            fam.sample(fam.gamma_family(), [1.0, 1.0], np.random.default_rng(0), -1)


ROW_FAMILIES = [
    fam.bernoulli_product(3),
    fam.categorical(4),
    fam.gaussian_scalar_var(2),
    fam.gaussian_diag_cov(2),
    fam.gamma_family(),
    fam.poisson_product(2),
]


def random_standard_rows(family, rng, rows):
    """Random points of the standard domain, shape (rows, standard_dim)."""
    d = family.data_dim
    name = family.name
    if name == "bernoulli_product":
        return rng.uniform(0.01, 0.99, size=(rows, d))
    if name == "categorical":
        return rng.dirichlet(np.ones(family.n_states), size=rows)[:, :-1]
    means = rng.normal(0.0, 3.0, size=(rows, d))
    if name == "gaussian_scalar_var":
        return np.hstack([means, rng.lognormal(0.0, 1.0, size=(rows, 1))])
    if name == "gaussian_diag_cov":
        return np.hstack([means, rng.lognormal(0.0, 1.0, size=(rows, d))])
    if name == "gamma":
        return rng.lognormal(0.0, 1.0, size=(rows, 2))
    return rng.lognormal(1.0, 1.5, size=(rows, d))


def random_natural_rows(family, rng, rows):
    """Random points of the natural domain, shape (rows, natural_dim)."""
    d = family.data_dim
    name = family.name
    if name == "gaussian_scalar_var":
        precision = -rng.lognormal(0.0, 1.0, size=(rows, 1))
        return np.hstack([rng.normal(0.0, 3.0, size=(rows, d)), np.repeat(precision, d, axis=1)])
    if name == "gaussian_diag_cov":
        precisions = -rng.lognormal(0.0, 1.0, size=(rows, d))
        return np.hstack([rng.normal(0.0, 3.0, size=(rows, d)), precisions])
    if name == "gamma":
        shapes = rng.lognormal(0.0, 1.0, size=rows)
        return np.column_stack([shapes - 1.0, -rng.lognormal(0.0, 1.0, size=rows)])
    return rng.normal(0.0, 3.0, size=(rows, family.natural_dim))


@pytest.mark.parametrize("family", ROW_FAMILIES, ids=lambda f: f.name)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_row_stacks_match_one_row_calls(family, seed, rows):
    # Row for row, a stacked call returns exactly what one call per 1-D
    # vector returns, and an extra leading axis only reshapes the result.
    rng = np.random.default_rng(seed)
    naturals = random_natural_rows(family, rng, rows)
    standards = random_standard_rows(family, rng, rows)
    for fn, stack in [
        (fam.log_partition, naturals),
        (fam.grad_log_partition, naturals),
        (fam.pseudo_entropy, naturals),
        (fam.from_natural, naturals),
        (fam.entropy, standards),
        (fam.to_natural, standards),
    ]:
        got = fn(family, stack)
        want = np.array([fn(family, row) for row in stack])
        np.testing.assert_array_equal(got, want, err_msg=fn.__name__)
        np.testing.assert_array_equal(
            fn(family, stack[:, None, :]), want[:, None], err_msg=fn.__name__
        )
    assert isinstance(fam.log_partition(family, naturals[0]), float)
    # One draw per row takes the values one call per row would, in order.
    got = fam.sample(family, standards, np.random.default_rng(seed), 1)[0]
    rng = np.random.default_rng(seed)
    want = np.array([fam.sample(family, row, rng, 1)[0] for row in standards])
    np.testing.assert_array_equal(got, want)
