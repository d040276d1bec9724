"""Objective identities: exact ELBO, KL form, entropy sums, pseudo variants."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj
from efgen.errors import IncompatibilityError, SupportError, UnsupportedModelError
from helpers import (
    assert_jvp_is_the_jacobian_product,
    criterion_with_jvp_bound,
    dense_lstsq,
    elbo_gradient_oracle,
    entropy_rows_reference,
    eta_jacobian_reference,
    grad_log_partition_oracle,
    kl_form,
    log_partition_oracle,
    pseudo_entropy_oracle,
    repeated_rows,
    rowwise_posterior,
    sbn_eta_jacobian_reference,
    state_sums_per_point,
    statistics_then_grouped,
    with_reference_jvp,
)


def gmm(means=(-1.0, 1.5), variances=(1.0, 0.5), weights=(0.4, 0.6)):
    comp = np.array([[m, v] for m, v in zip(means, variances)])
    return mdl.make_ef_mixture(fam.gaussian_scalar_var(1), np.asarray(weights), comp)


def poisson_mix():
    comp = np.array([[1.0, 4.0], [6.0, 0.5]])
    return mdl.make_ef_mixture(fam.poisson_product(2), [0.4, 0.6], comp)


def gamma_mix():
    comp = np.array([[2.0, 3.0], [5.0, 1.0]])
    return mdl.make_ef_mixture(fam.gamma_family(), [0.35, 0.65], comp)


def sbn(h=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return mdl.make_sbn(
        rng.uniform(0.2, 0.8, size=h), rng.normal(size=(d, h)), rng.normal(size=d) * 0.5
    )


def ppca():
    w = np.array([[1.0, 0.2], [-0.5, 0.8], [0.3, -0.1]])
    return mdl.make_ppca(w, np.array([0.5, -0.2, 0.0]), 0.6, tau=1.0)


def random_table(rng, n, c):
    t = rng.random((n, c)) + 1e-3
    return t / t.sum(axis=1, keepdims=True)


def gmm_loglik_oracle(model, data):
    """Direct mixture log-likelihood via scipy normal pdfs."""
    args = mdl.constructor_args(model)
    pis, comps = args["weights"], args["component_params"]
    dens = np.zeros(len(data))
    for pi_c, (m, v) in zip(pis, comps):
        dens += pi_c * stats.norm.pdf(data[:, 0], loc=m, scale=math.sqrt(v))
    return float(np.mean(np.log(dens)))


# ---------------------------------------------------------------------------
# Random points of every model kind.

_COMPONENT_PARAMS = {
    "bernoulli_product": [0.3, 0.6],
    "gaussian_scalar_var": [0.0, 1.0, 1.0],
    "gaussian_diag_cov": [0.0, 1.0, 1.0, 2.0],
    "gamma": [2.0, 1.0],
    "poisson_product": [1.0, 3.0],
}


def zoo_model(kind):
    """One small model of each kind; random_point() redraws its parameters."""
    if kind.startswith("mixture-"):
        name = kind[len("mixture-") :]
        family = getattr(fam, name)(2) if name != "gamma" else fam.gamma_family()
        comp = np.tile(_COMPONENT_PARAMS[name], (3, 1))
        return mdl.make_ef_mixture(family, [0.2, 0.3, 0.5], comp)
    rng = np.random.default_rng(0)
    if kind.startswith("sbn-"):
        offsets_free = kind == "sbn-free-offsets"
        return mdl.make_sbn(
            [0.3, 0.6, 0.5], rng.normal(size=(4, 3)), rng.normal(size=4), offsets_free
        )
    if kind == "rigid_sbn":
        return mdl.make_rigid_sbn(0.4, 0.7)
    if kind == "ppca":
        return mdl.make_ppca(rng.normal(size=(4, 2)), rng.normal(size=4), 0.7, tau=1.3)
    return mdl.make_simple_fa(rng.normal(size=3), 1.2, [0.5, 0.8, 1.1])


ZOO_KINDS = [f"mixture-{name}" for name in _COMPONENT_PARAMS] + [
    "sbn-free-offsets",
    "sbn-fixed-offsets",
    "rigid_sbn",
    "ppca",
    "simple_fa",
]
# Fixed nonzero offsets and the tied rigid weights fail the criterion.
CRITERION_KINDS = [k for k in ZOO_KINDS if k not in ("sbn-fixed-offsets", "rigid_sbn")]
# The finite-state kinds, which FiniteObjective evaluates.
FINITE_KINDS = [k for k in ZOO_KINDS if k not in ("ppca", "simple_fa")]
POISSON_SUPPORT = "poisson observations must be non-negative integers up to 2**53"


def random_point(kind, seed, n=25):
    """(model, data, evaluator, q) at random parameters and a random q.

    q is not the posterior: the record of Dirichlet rows over the finite
    states, one per data point, or the exact Gaussian moments with perturbed
    means and covariance.
    """
    rng = np.random.default_rng(seed)
    model = zoo_model(kind)
    model = mdl.replace_params(model, *mdl._random_params(model, rng))
    _, data = mdl.sample_joint(model, rng, n)
    ev = obj.evaluator(model, data)
    exact = ev.posterior(model)
    if isinstance(exact, obj.QRecord):
        q = ev.state_table(model, rng.dirichlet(np.ones(exact.table.shape[1]), size=n))
    else:
        h = exact.cov.shape[0]
        a = rng.normal(size=(h, h))
        q = obj.GaussianMoments(
            exact.means + 0.5 * rng.normal(size=exact.means.shape),
            exact.cov + 0.3 * a @ a.T,
        )
    return model, data, ev, q


def report_at(model, data, q):
    """The evaluator's report at a caller's q, checked by state_table."""
    ev = obj.evaluator(model, data)
    return ev.report(model, ev.state_table(model, q))


class TestElboTerms:
    def test_gmm_exact_posterior_is_tight_against_oracle(self):
        model = gmm()
        rng = np.random.default_rng(0)
        _, data = mdl.sample_joint(model, rng, 400)
        ev = obj.evaluator(model, data)
        report = ev.report(model, ev.posterior(model))
        oracle = gmm_loglik_oracle(model, data)
        assert report.elbo == pytest.approx(oracle, abs=1e-10)
        assert report.elbo == pytest.approx(report.f1 - report.f2 - report.f3, abs=1e-12)

    def test_uniform_q_uniform_prior_gives_prior_entropy(self):
        model = gmm(weights=(0.5, 0.5))
        data = np.array([[0.0], [1.0], [2.0]])
        report = report_at(model, data, np.full((3, 2), 0.5))
        assert report.f2 == pytest.approx(math.log(2.0), abs=1e-13)

    def test_single_state_latent_f1_zero(self):
        model = mdl.make_ef_mixture(fam.gaussian_scalar_var(1), [1.0], np.array([[0.0, 1.0]]))
        data = np.array([[0.7]])
        report = report_at(model, data, np.ones((1, 1)))
        assert report.f1 == 0.0
        assert report.elbo == pytest.approx(gmm_loglik_oracle(model, data), abs=1e-12)

    def test_incompatible_state_rejected(self):
        with pytest.raises(IncompatibilityError):
            report_at(gmm(), np.zeros((2, 1)), np.ones((2, 3)) / 3)


class TestStateTable:
    """FiniteObjective.state_table checks a caller's q once."""

    @pytest.mark.parametrize(
        "q, error, match",
        [
            (np.full(2, 0.5), IncompatibilityError, r"q must be \(N, 2\)"),
            (np.full((2, 3), 1.0 / 3.0), IncompatibilityError, r"q must be \(N, 2\)"),
            (np.full((3, 2), 0.5), ValueError, "disagree on N"),
            (np.array([[1.5, -0.5], [0.5, 0.5]]), ValueError, r"\[0, 1\]"),
            (np.array([[np.nan, np.nan], [0.5, 0.5]]), ValueError, r"\[0, 1\]"),
            (np.array([[0.5, 0.4], [0.5, 0.5]]), ValueError, "sum to 1"),
        ],
        ids=["one-dimensional", "state-count", "point-count", "outside-unit", "nan", "unnormalised"],
    )
    def test_rejects(self, q, error, match):
        model = gmm()
        ev = obj.evaluator(model, np.zeros((2, 1)))
        with pytest.raises(error, match=match):
            ev.state_table(model, q)

    def test_accepts_lists_and_returns_states_major(self):
        model = gmm()
        ev = obj.evaluator(model, np.zeros((2, 1)))
        table = ev.state_table(model, [[0.25, 0.75], [1.0, 0.0]]).table
        assert table.T.flags.c_contiguous
        np.testing.assert_array_equal(table, [[0.25, 0.75], [1.0, 0.0]])


class TestTracedFunctions:
    """exact_posterior, elbo_terms, pseudo_elbo_terms and
    learning.grad_norm_all_params stay for the benchmark's tracer; each
    returns what the evaluator does."""

    @pytest.mark.parametrize("builder", [poisson_mix, sbn, ppca], ids=lambda b: b.__name__)
    def test_match_the_evaluator(self, builder):
        model = builder()
        _, data = mdl.sample_joint(model, np.random.default_rng(1), 30)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        exact = obj.exact_posterior(model, data)
        if isinstance(q, obj.QRecord):  # the traced functions take a caller's table
            np.testing.assert_array_equal(exact.table, q.table)
            table = q.table
        else:
            np.testing.assert_array_equal(exact.means, q.means)
            table = q
        assert obj.elbo_terms(model, data, table) == ev.report(model, q)
        assert obj.pseudo_elbo_terms(model, data, table) == ev.report(model, q, pseudo=True)
        assert lrn.grad_norm_all_params(model, data, table) == ev.grad_norm(model, q)


# ---------------------------------------------------------------------------
# Grouped rows: each distinct integer-valued row is evaluated once.

GROUPED_KINDS = ["sbn", "mixture-poisson", "mixture-bernoulli", "mixture-categorical"]


def grouped_model(kind, rng, data_dim=2):
    """A finite-state model of kind at random parameters, observing
    integer-valued rows of data_dim columns."""
    if kind == "sbn":
        model = mdl.make_sbn([0.3, 0.6], rng.normal(size=(data_dim, 2)), rng.normal(size=data_dim))
    elif kind == "mixture-categorical":
        comp = rng.dirichlet(np.ones(4), size=3)[:, :-1]
        return mdl.make_ef_mixture(fam.categorical(4), rng.dirichlet(np.ones(3)), comp)
    else:
        factory = fam.poisson_product if kind == "mixture-poisson" else fam.bernoulli_product
        family = factory(data_dim)
        comp = np.tile(_COMPONENT_PARAMS[family.name][0], (3, data_dim))
        model = mdl.make_ef_mixture(family, [0.2, 0.3, 0.5], comp)
    return mdl.replace_params(model, *mdl._random_params(model, rng))


def planted_repeats(rows, rng):
    """rows (an (R, D) array), each repeated 1 to 5 times, in shuffled order."""
    data = np.repeat(rows, rng.integers(1, 6, size=len(rows)), axis=0)
    return data[rng.permutation(len(data))]


def assert_close(actual, expected):
    """Equal within 1e-12 relative to the largest |entry| of expected (or 1)."""
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


def check_grouping(ev, data):
    """ev keeps each distinct row of data once, in order of first occurrence,
    with its count and every point's row."""
    np.testing.assert_array_equal(ev.rows[ev.inverse], data)
    assert len(np.unique(ev.rows, axis=0)) == len(ev.rows)
    first = [int(np.flatnonzero(ev.inverse == u)[0]) for u in range(len(ev.rows))]
    assert first == sorted(first)
    counts = np.bincount(ev.inverse)
    np.testing.assert_array_equal(ev.counts, counts)
    if len(ev.rows) < ev.n:  # grouped: some row repeats
        assert np.any(counts > 1)
    else:  # no row repeats, so each counts once
        assert np.all(counts == 1)
    assert ev.n == len(data)


def check_against_repeated_rows(ev, model, data, q):
    """Every quantity at q (over the distinct rows or the data points)
    equals the one the repeated rows give."""
    table = q.table
    oracle = repeated_rows(model, data, table[ev.inverse] if len(table) < len(data) else table)
    assert_close(ev.terms(model, q), oracle["terms"])
    assert_close(ev.terms(model, q, pseudo=True), oracle["pseudo_terms"])
    assert_close(ev.report(model, q).entropy_sum, oracle["entropy_sum"])
    assert_close(ev.report(model, q, pseudo=True).entropy_sum, oracle["pseudo_entropy_sum"])
    assert_close(ev.gradient(model, q), oracle["gradient"])
    assert_close(ev.marginal_loglik(model), oracle["marginal_loglik"])
    assert_close(ev.mean_log_h, oracle["mean_log_h"])
    return oracle


# The kinds whose rows are kept whole: real-valued mixtures, and the
# integer-valued kinds on data with no repeated row.
UNGROUPED_KINDS = [
    "mixture-gaussian_scalar_var",
    "mixture-gaussian_diag_cov",
    "mixture-gamma",
    *GROUPED_KINDS,
]


def check_sums_against_the_per_point_oracle(model, data, rng):
    """The records of the posterior and of a random table over the kept rows
    hold the per-point oracle's state sums, state means and f2, each within
    16 eps of the sum of its summands' magnitudes: relative, where every
    summand is non-negative (all but the statistics of real-valued rows).
    Measured over 6,000 tables of each kind, grouped or not, at most 3.7 eps
    apart."""
    ev = obj.evaluator(model, data)
    bound = 16 * np.finfo(float).eps
    log_prior = ev.tables(model).log_prior
    random = rng.dirichlet(np.ones(len(ev.states)), size=len(ev.rows))
    for q in (ev.posterior(model), ev.state_table(model, random)):
        points = q.table[ev.inverse]
        mass, stats = state_sums_per_point(ev, q.table)
        np.testing.assert_allclose(q.mass, mass, rtol=bound, atol=0.0)
        magnitudes = points.T @ np.abs(ev.t[ev.inverse])
        assert np.all(np.abs(q.stats - stats) <= bound * magnitudes)
        np.testing.assert_allclose(q.state_means, mass / ev.n, rtol=bound, atol=0.0)
        f2 = -np.sum(points @ log_prior) / ev.n  # every summand is non-negative
        assert abs(q.f2(log_prior) - f2) <= bound * f2


class TestGroupedRows:
    """FiniteObjective keeps each distinct integer-valued row once, with its
    count, and every quantity equals the one summed over the repeated rows."""

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_planted_repeats_match_the_repeated_rows(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = grouped_model(kind, rng)
        _, rows = mdl.sample_joint(model, rng, int(rng.integers(1, 9)))
        data = planted_repeats(np.reshape(rows, (len(rows), -1)), rng)
        ev = obj.evaluator(model, data)
        check_grouping(ev, data)
        q = ev.posterior(model)
        assert q.table.shape == (len(ev.rows), len(model.latent_support.states))
        oracle = check_against_repeated_rows(ev, model, data, q)
        assert_close(q.table[ev.inverse], oracle["posterior"])
        # A caller's table, one row per point, gives equal rows different q.
        q_points = ev.state_table(model, rng.dirichlet(np.ones(q.table.shape[1]), size=len(data)))
        check_against_repeated_rows(ev, model, data, q_points)

    @pytest.mark.parametrize(
        "kind, data_dim, top",
        [
            ("mixture-poisson", 3, 2**53),  # the key passes int64
            ("mixture-bernoulli", 70, 1),  # the key passes int64
        ],
        ids=["poisson-near-2**53", "bernoulli-70"],
    )
    def test_keys_past_a_dense_table(self, kind, data_dim, top):
        rng = np.random.default_rng(data_dim)
        model = grouped_model(kind, rng, data_dim)
        if top > 1:  # counts within 3 of 2**53, at rates of that size
            model = mdl.replace_params(model, theta=rng.uniform(0.8, 1.0, 9) * 2.0**53)
            rows = top - rng.integers(0, 4, size=(6, data_dim)).astype(float)
        else:
            rows = rng.integers(0, 2, size=(6, data_dim)).astype(float)
        data = planted_repeats(rows, rng)
        assert math.prod(int(c) + 1 for c in data.max(axis=0)) > 2**63
        ev = obj.evaluator(model, data)
        check_grouping(ev, data)
        q = ev.posterior(model)
        check_against_repeated_rows(ev, model, data, q)
        q_points = ev.state_table(model, rng.dirichlet(np.ones(q.table.shape[1]), size=len(data)))
        check_against_repeated_rows(ev, model, data, q_points)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 30),
        d=st.integers(1, 4),
        top=st.sampled_from([1, 3, obj._DENSE_KEYS - 1, obj._DENSE_KEYS, 2**53]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_group_rows_on_every_path(self, n, d, top, seed):
        # Keys spanning up to _DENSE_KEYS values take the dense table, wider
        # ones the lexsort; the first row pins the span at (top + 1)**d.
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, top, size=(n, d), endpoint=True).astype(float)
        distinct[0] = top
        data = planted_repeats(distinct, rng)
        first, inverse, counts = obj._group_rows(data, obj._column_tops(data))
        np.testing.assert_array_equal(data[first][inverse], data)
        np.testing.assert_array_equal(first, np.sort(first))
        np.testing.assert_array_equal(inverse[first], np.arange(len(first)))
        assert len(np.unique(data[first], axis=0)) == len(first)
        np.testing.assert_array_equal(counts, np.bincount(inverse))

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_state_sums_match_the_per_point_sums(self, kind, seed):
        # A table over the distinct rows takes one product with the counts
        # and the count-weighted statistics; the oracle repeats it to one
        # row per point and sums it back per row.
        rng = np.random.default_rng(seed)
        model = grouped_model(kind, rng)
        _, rows = mdl.sample_joint(model, rng, int(rng.integers(1, 9)))
        data = planted_repeats(np.reshape(rows, (len(rows), -1)), rng)
        check_sums_against_the_per_point_oracle(model, data, rng)

    @pytest.mark.parametrize("kind", UNGROUPED_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rows_without_repeats_take_the_same_product(self, kind, seed):
        # Real-valued rows, and integer rows none of which repeats, are kept
        # whole with a count of 1 each: their tables take the grouped rows'
        # product, checked against the plain sums over the points.
        rng = np.random.default_rng(seed)
        if kind in GROUPED_KINDS:
            model = grouped_model(kind, rng)
        else:
            model = zoo_model(kind)
            model = mdl.replace_params(model, *mdl._random_params(model, rng))
        _, rows = mdl.sample_joint(model, rng, int(rng.integers(1, 30)))
        rows = np.reshape(rows, (len(rows), -1)).astype(float)
        data = rows[np.sort(np.unique(rows, axis=0, return_index=True)[1])]
        ev = obj.evaluator(model, data)
        assert len(ev.rows) == ev.n
        np.testing.assert_array_equal(ev.counts, np.ones(len(data)))
        check_sums_against_the_per_point_oracle(model, data, rng)

    @pytest.mark.parametrize("case", ["gaussian-mixture", "bernoulli-distinct"])
    def test_rows_without_repeats_are_every_row(self, case):
        # The path real-valued data always take: no row is dropped, and
        # posterior and loglik are the per-point tables.
        rng = np.random.default_rng(17)
        if case == "gaussian-mixture":
            model = gmm()
            _, data = mdl.sample_joint(model, rng, 200)
        else:
            model = sbn(h=2, d=6)
            data = rng.permutation(mdl.enumerate_binary_states(6))[:40].astype(float)
        ev = obj.evaluator(model, data)
        assert ev.rows is data or np.array_equal(ev.rows, data)
        np.testing.assert_array_equal(ev.counts, np.ones(len(data)))
        np.testing.assert_array_equal(ev.inverse, np.arange(len(data)))
        tables = ev.tables(model)
        t = fam.batch_sufficient_stats(model.noise.family, data)
        np.testing.assert_array_equal(ev.t, t)
        loglik = t @ tables.etas.T - tables.log_parts
        assert np.max(np.abs(ev.loglik(model) - loglik)) <= 1e-15 * max(1.0, np.max(np.abs(loglik)))
        assert np.max(np.abs(ev.posterior(model).table - rowwise_posterior(ev, model))) <= 1e-15


# The finite-state kinds whose noise family is integer-valued: their rows
# are grouped.
GROUPED_FINITE_KINDS = [k for k in FINITE_KINDS if zoo_model(k).noise.family.integer_valued]


class TestGroupingOrder:
    """Rows are grouped before their statistics are computed, and the
    statistics of the distinct rows are those of every row, gathered."""

    @pytest.mark.parametrize("kind", GROUPED_FINITE_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_statistics_then_grouping(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = zoo_model(kind)
        model = mdl.replace_params(model, *mdl._random_params(model, rng))
        _, rows = mdl.sample_joint(model, rng, int(rng.integers(1, 12)))
        rows = np.reshape(rows, (len(rows), -1)).astype(float)  # as harness holds data
        data = planted_repeats(np.vstack([rows, rows[:1]]), rng)  # the first row repeats
        ev = obj.evaluator(model, data)
        for name, expected in statistics_then_grouped(model, data).items():
            got, expected = np.asarray(getattr(ev, name)), np.asarray(expected)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("mixture-bernoulli_product", math.nan, "observations must be finite"),
            ("mixture-bernoulli_product", -1.0, "bernoulli observations must be 0/1"),
            ("mixture-bernoulli_product", 0.5, "bernoulli observations must be 0/1"),
            ("mixture-poisson_product", math.inf, "observations must be finite"),
            ("mixture-poisson_product", -1.0, POISSON_SUPPORT),
            ("mixture-poisson_product", 2.5, POISSON_SUPPORT),
        ],
    )
    def test_values_that_make_no_key_are_refused_before_grouping(
        self, monkeypatch, kind, value, message
    ):
        def forbidden(*args):
            raise AssertionError("_group_rows reached")

        monkeypatch.setattr(obj, "_group_rows", forbidden)
        data = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, value]])
        with pytest.raises(SupportError) as info:
            obj.evaluator(zoo_model(kind), data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("mixture-bernoulli_product", 2.0, "bernoulli observations must be 0/1"),
            ("mixture-poisson_product", 2.0**53 + 2, POISSON_SUPPORT),
        ],
    )
    def test_keys_outside_the_support_are_refused_on_the_distinct_rows(self, kind, value, message):
        # A finite, non-negative integer is a key; the family refuses it
        # when the distinct rows' statistics are computed.
        data = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, value]])
        with pytest.raises(SupportError) as info:
            obj.evaluator(zoo_model(kind), data)
        assert str(info.value) == message


class TestKlForm:
    @pytest.mark.parametrize("kind", FINITE_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_three_term_form(self, kind, seed):
        # terms reads q's expected statistics; kl_form and the pseudo f3
        # below read the log-likelihood table, one row per data point.
        model, data, ev, q = random_point(kind, seed)
        elbo = ev.elbo(model, q)
        assert kl_form(ev, model, q.table) == pytest.approx(elbo, abs=1e-12 * max(1.0, abs(elbo)))
        f3 = ev.terms(model, q, pseudo=True)[2]
        table_f3 = -np.mean(np.sum(q.table * ev.loglik(model)[ev.inverse], axis=1))
        assert f3 == pytest.approx(table_f3, abs=1e-12 * max(1.0, abs(table_f3)))

        # Tables are states-major: (N, S) views of C-ordered (S, N) arrays.
        posterior = ev.posterior(model)
        post = posterior.table
        assert ev.loglik(model).T.flags.c_contiguous and post.T.flags.c_contiguous
        table = ev.state_table(model, q.table).table
        assert table.T.flags.c_contiguous and np.array_equal(table, q.table)
        # A points-major copy of the posterior reads exactly as the states-major one.
        c_copy = np.ascontiguousarray(post)
        assert report_at(model, data, c_copy).elbo == ev.elbo(model, posterior)
        assert np.max(np.abs(post - rowwise_posterior(ev, model))) <= 1e-15

    def test_q_equal_to_prior_has_zero_kl(self):
        model = gmm(weights=(0.3, 0.7))
        data = np.array([[0.1], [-0.4]])
        q = np.tile([0.3, 0.7], (2, 1))
        ev = obj.FiniteObjective(model, data)
        ll = ev.loglik(model) + ev.log_h[:, None]
        expected_ll = float(np.mean(np.sum(q * ll, axis=1)))
        assert kl_form(ev, model, q) == pytest.approx(expected_ll, abs=1e-12)

    def test_ppca_exact_posterior_matches_gaussian_marginal(self):
        model = ppca()
        rng = np.random.default_rng(2)
        _, data = mdl.sample_joint(model, rng, 200)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        args = mdl.constructor_args(model)
        w, mu, s2, tau = (args[k] for k in ("w", "mu", "sigma2", "tau"))
        oracle = float(
            np.mean(
                stats.multivariate_normal.logpdf(
                    data, mean=mu, cov=tau * w @ w.T + s2 * np.eye(3)
                )
            )
        )
        assert kl_form(ev, model, q) == pytest.approx(oracle, abs=1e-9)
        assert ev.elbo(model, q) == pytest.approx(oracle, abs=1e-9)
        assert ev.marginal_loglik(model) == pytest.approx(oracle, abs=1e-10)


class TestEStep:
    """e_step gives the posterior and the ELBO at it, the mean log marginal
    likelihood: for finite states from one normalisation, as the mean of each
    row's log normaliser plus mean_log_h; for the linear-Gaussian models from
    the marginal's Cholesky factor. posterior and marginal_loglik are its
    halves."""

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "distinct-rows"])
    @pytest.mark.parametrize("kind", ZOO_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_elbo_is_the_three_term_elbo_at_the_posterior(self, kind, repeated, seed):
        model, data, _, _ = random_point(kind, seed)
        if repeated:
            data = planted_repeats(data[:8], np.random.default_rng(seed + 1))
        else:
            data = data[np.sort(np.unique(data, axis=0, return_index=True)[1])]
        ev = obj.evaluator(model, data)
        q, elbo = ev.e_step(model)
        # Measured over 400 seeds of each case, the two forms differ by at
        # most 20 eps relative (2 eps for ppca and simple_fa); 1e-13 is about
        # 450 eps.
        assert abs(elbo - ev.elbo(model, q)) <= 1e-13 * max(1.0, abs(elbo))
        assert ev.marginal_loglik(model) == elbo
        if isinstance(q, obj.GaussianMoments):
            posterior = ev.posterior(model)
            np.testing.assert_array_equal(posterior.means, q.means)
            np.testing.assert_array_equal(posterior.cov, q.cov)
            return
        # The posterior is the states-major subtract-max, exp and normalise,
        # bit for bit.
        scores = ev.loglik(model).T + ev.tables(model).log_prior[:, None]
        scores -= scores.max(axis=0)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=0)
        np.testing.assert_array_equal(q.table, scores.T)
        np.testing.assert_array_equal(ev.posterior(model).table, q.table)
        assert np.max(np.abs(q.table - rowwise_posterior(ev, model))) <= 1e-15

    @pytest.mark.parametrize(
        "x, rates",
        [(0, (1000.0, 1001.0)), (240, (240.0, 250.0))],
        ids=["scores-near-minus-1e3", "scores-near-plus-1e3"],
    )
    def test_normaliser_at_large_state_scores(self, x, rates):
        # The state scores x log(rate) - rate + log(weight) lie near -1e3 or
        # +1e3, where exp underflows to 0 or overflows to inf unless each row's
        # maximum is subtracted first.
        weights = (0.3, 0.7)
        model = mdl.make_ef_mixture(fam.poisson_product(1), weights, np.array(rates)[:, None])
        ev = obj.evaluator(model, np.array([[x]]))
        q, elbo = ev.e_step(model)
        parts = [mp.mpf(w) * mp.mpf(r) ** x * mp.exp(-mp.mpf(r)) for w, r in zip(weights, rates)]
        total = mp.fsum(parts)
        assert elbo == pytest.approx(float(mp.log(total) - mp.loggamma(x + 1)), abs=1e-12)
        np.testing.assert_allclose(q.table[0], [float(p / total) for p in parts], rtol=1e-12)

    def test_builds_one_table(self):
        # 4096 states over 1811 distinct rows: the (U, S) table is 59.3 MB,
        # and the E-step peaks at 1.012 times it once the model's tables are
        # built. Neither the state sums nor the ELBO form a second table.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=12), rng.normal(size=(20, 12)), rng.normal(size=20)
        )
        _, data = mdl.sample_joint(model, rng, 2000)
        ev = obj.evaluator(model, data)
        ev.tables(model)
        tracemalloc.start()
        try:
            q, _ = ev.e_step(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.table.shape == (len(ev.rows), 4096)
        assert peak <= 1.05 * q.table.nbytes, peak


class TestRecord:
    """A QRecord reduces q once, and reads alike however it was made: the
    E-step's record of the posterior and the record state_table makes of the
    same table, passed by a caller, give equal reports and gradients, bit for
    bit. f2 depends on the model, so a record kept across models must give
    each model its own."""

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "distinct-rows"])
    @pytest.mark.parametrize("kind", FINITE_KINDS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_e_step_record_reads_as_a_callers_table(self, kind, repeated, seed):
        model, data, _, _ = random_point(kind, seed)
        rng = np.random.default_rng(seed + 1)
        if repeated:
            data = planted_repeats(data[:8], rng)
        else:  # the posterior is then an (N, S) table, one row per point
            data = data[np.sort(np.unique(data, axis=0, return_index=True)[1])]
        other = mdl.replace_params(model, *mdl._random_params(model, rng))
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        assert not q.table.flags.writeable
        if not repeated:
            assert q.table.shape == (len(data), len(ev.states))
        caller = ev.state_table(model, np.ascontiguousarray(q.table))
        for m in (model, other, model):
            for pseudo in (False, True):
                assert ev.report(m, q, pseudo) == ev.report(m, caller, pseudo)
            np.testing.assert_array_equal(ev.gradient(m, q), ev.gradient(m, caller))
            assert ev.grad_norm(m, q) == ev.grad_norm(m, caller)
        fresh = ev.state_table(model, np.ascontiguousarray(q.table))
        assert ev.report(other, fresh) == ev.report(other, q)


class TestEntropySumRhs:
    def test_ppca_noise_term_is_constant_in_q(self):
        model = ppca()
        rng = np.random.default_rng(3)
        _, data = mdl.sample_joint(model, rng, 50)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        args = mdl.constructor_args(model)
        s2, tau = args["sigma2"], args["tau"]
        h = q.means.shape[1]
        _, logdet = np.linalg.slogdet(q.cov)
        avg_q_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e) + 0.5 * logdet
        prior_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e * tau)
        noise_term = avg_q_entropy - prior_entropy - ev.report(model, q).entropy_sum
        assert noise_term == pytest.approx(1.5 * math.log(2.0 * math.pi * math.e * s2), abs=1e-12)
        # Same constant under a different variational state.
        q2 = obj.GaussianMoments(q.means * 0.1, q.cov * 2.0)
        avg2 = 0.5 * h * math.log(2.0 * math.pi * math.e) + 0.5 * np.linalg.slogdet(q2.cov)[1]
        noise_term2 = avg2 - prior_entropy - ev.report(model, q2).entropy_sum
        assert noise_term2 == pytest.approx(noise_term, abs=1e-12)

    def test_gamma_mixture_aggregated_noise_entropies(self):
        model = gamma_mix()
        rng = np.random.default_rng(4)
        q = random_table(rng, 30, 2)
        qbar = q.mean(axis=0)
        comps = mdl.constructor_args(model)["component_params"]
        manual = (
            float(np.mean(-np.sum(q * np.log(q), axis=1)))
            - fam.entropy(fam.categorical(2), model.prior.params)
            - sum(qb * fam.entropy(fam.gamma_family(), row) for qb, row in zip(qbar, comps))
        )
        ev = obj.evaluator(model, np.ones((30, 1)))  # entropy sums read no data
        rhs = ev.report(model, ev.state_table(model, q)).entropy_sum
        assert rhs == pytest.approx(manual, abs=1e-12)

    def test_degenerate_single_component(self):
        model = mdl.make_ef_mixture(fam.gaussian_scalar_var(1), [1.0], np.array([[0.3, 2.0]]))
        ev = obj.evaluator(model, np.zeros((5, 1)))
        q = ev.state_table(model, np.ones((5, 1)))
        expected = -fam.entropy(fam.gaussian_scalar_var(1), [0.3, 2.0])
        assert ev.report(model, q).entropy_sum == pytest.approx(expected, abs=1e-12)


class TestPseudoVariants:
    def test_unit_base_models_identical_fieldwise(self):
        for builder in (gmm, gamma_mix, sbn):
            model = builder()
            rng = np.random.default_rng(5)
            _, data = mdl.sample_joint(model, rng, 60)
            ev = obj.evaluator(model, data)
            q = ev.posterior(model)
            std, pse = ev.report(model, q), ev.report(model, q, pseudo=True)
            for field in ("f1", "f2", "f3", "elbo", "entropy_sum", "gap"):
                assert getattr(std, field) == pytest.approx(
                    getattr(pse, field), abs=1e-12
                ), (builder.__name__, field)

    def test_poisson_all_zero_data_offset_vanishes(self):
        model = poisson_mix()
        data = np.zeros((4, 2), dtype=int)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        std, pse = ev.report(model, q), ev.report(model, q, pseudo=True)
        assert pse.elbo == pytest.approx(std.elbo, abs=1e-12)

    def test_poisson_offset_identity(self):
        model = poisson_mix()
        rng = np.random.default_rng(6)
        _, data = mdl.sample_joint(model, rng, 80)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        std, pse = ev.report(model, q), ev.report(model, q, pseudo=True)
        offset = ev.mean_log_h
        assert pse.elbo == pytest.approx(std.elbo - offset, abs=1e-10)
        # Explicit factorial form of the offset.
        manual = np.mean([sum(math.lgamma(int(v) + 1) for v in row) for row in data])
        assert pse.elbo - std.elbo == pytest.approx(manual, abs=1e-10)

    def test_poisson_pseudo_noise_term(self):
        model = poisson_mix()
        rng = np.random.default_rng(7)
        q = random_table(rng, 25, 2)
        qbar = q.mean(axis=0)
        comps = mdl.constructor_args(model)["component_params"]
        last_term = sum(
            qb * float(np.sum(lam * (1.0 - np.log(lam)))) for qb, lam in zip(qbar, comps)
        )
        manual = (
            float(np.mean(-np.sum(q * np.log(q), axis=1)))
            - fam.entropy(fam.categorical(2), model.prior.params)
            - last_term
        )
        ev = obj.evaluator(model, np.zeros((25, 2)))  # entropy sums read no data
        rhs = ev.report(model, ev.state_table(model, q), pseudo=True).entropy_sum
        assert rhs == pytest.approx(manual, abs=1e-12)

    def test_unit_rate_components_give_data_dim(self):
        comp = np.ones((2, 2))
        model = mdl.make_ef_mixture(fam.poisson_product(2), [0.5, 0.5], comp)
        ev = obj.evaluator(model, np.zeros((10, 2)))
        q = ev.state_table(model, np.full((10, 2), 0.5))
        # last term = D exactly when every rate is 1
        avg_h_q = math.log(2.0)
        prior_h = math.log(2.0)
        assert ev.report(model, q, pseudo=True).entropy_sum == pytest.approx(
            avg_h_q - prior_h - 2.0, abs=1e-12
        )


class TestPseudoLoglik:
    """The pseudo log-likelihood is marginal_loglik minus mean_log_h."""

    def test_gmm_no_offset(self):
        model = gmm()
        _, data = mdl.sample_joint(model, np.random.default_rng(8), 50)
        assert obj.evaluator(model, data).mean_log_h == 0.0

    def test_poisson_toy_offset(self):
        comp = np.array([[1.0], [3.0]])
        model = mdl.make_ef_mixture(fam.poisson_product(1), [0.5, 0.5], comp)
        data = np.array([[0], [1], [2]])
        assert -obj.evaluator(model, data).mean_log_h == pytest.approx(
            math.log(2.0) / 3.0, abs=1e-13
        )

    def test_ppca_no_offset(self):
        model = ppca()
        _, data = mdl.sample_joint(model, np.random.default_rng(9), 40)
        assert obj.evaluator(model, data).mean_log_h == 0.0

    def test_unsupported_model(self):
        model = ppca()
        broken = mdl.GenerativeModel(
            model.prior, model.noise, mdl.RealVector(2), "custom"
        )
        with pytest.raises(UnsupportedModelError):
            obj.evaluator(broken, np.zeros((2, 3)))

    @pytest.mark.parametrize("builder", [gmm, ppca], ids=lambda b: b.__name__)
    def test_empty_dataset_rejected(self, builder):
        model = builder()
        with pytest.raises(ValueError, match="empty dataset"):
            obj.evaluator(model, np.zeros((0, model.noise.family.data_dim)))


class TestDominanceAndTightness:
    @pytest.mark.parametrize("builder", [gmm, poisson_mix, sbn], ids=lambda b: b.__name__)
    def test_elbo_never_exceeds_marginal_loglik(self, builder):
        model = builder()
        rng = np.random.default_rng(10)
        _, data = mdl.sample_joint(model, rng, 60)
        ev = obj.evaluator(model, data)
        loglik = ev.marginal_loglik(model)
        states = len(model.latent_support.states)
        for trial in range(5):
            q = ev.state_table(model, random_table(rng, len(data), states))
            assert ev.elbo(model, q) <= loglik + 1e-9

    def test_sbn_enumeration_tightness(self):
        model = sbn(h=3, d=4, seed=11)
        _, data = mdl.sample_joint(model, np.random.default_rng(11), 80)
        ev = obj.evaluator(model, data)
        assert ev.elbo(model, ev.posterior(model)) == pytest.approx(
            ev.marginal_loglik(model), abs=1e-9
        )


class TestStationarityGap:
    def test_nonstationary_parameters_have_visible_gap(self):
        model = gmm()
        _, data = mdl.sample_joint(model, np.random.default_rng(13), 300)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        gap_std = ev.report(model, q).gap
        gap_pse = ev.report(model, q, pseudo=True).gap
        # Ground-truth parameters are not a stationary point of this sample.
        assert gap_std > 1e-3
        assert gap_pse == pytest.approx(gap_std, abs=1e-12)


class TestBatchedStateTables:
    """The finite-state tables take one batched call per quantity, however
    many latent states there are."""

    def counted_sbn(self, calls):
        rng = np.random.default_rng(7)
        model = mdl.make_sbn(
            rng.uniform(0.3, 0.7, size=10), rng.normal(size=(6, 10)), 0.3 * rng.normal(size=6)
        )
        eta = model.noise.eta

        def counted_eta(z, theta):
            calls.append(len(z))
            return eta(z, theta)

        return replace(model, noise=replace(model.noise, eta=counted_eta))

    def test_h10_tables_call_eta_once(self, monkeypatch):
        calls, family_calls = [], []
        model = self.counted_sbn(calls)
        for name in ("partition", "log_partition", "log_density", "pseudo_entropy"):
            original = getattr(fam, name)

            def counted(*args, _name=name, _original=original):
                family_calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(fam, name, counted)
        _, data = mdl.sample_joint(model, np.random.default_rng(8), 40)
        assert calls == [40]
        ev = obj.FiniteObjective(model, data)
        tables = ev.tables(model)
        assert calls == [40, 1024]
        # The noise partition, then the prior's: the prior log masses reuse
        # the states' statistics from the constructor, with no log_density.
        assert family_calls == ["partition", "partition"]
        assert tables.etas.shape == tables.means.shape == (1024, 6)
        assert tables.log_parts.shape == tables.log_prior.shape == (1024,)
        # Later quantities reuse the cached tables: the entropy sum and the
        # gradient read the noise and prior entropies and means from them.
        table = ev.posterior(model)
        ev.report(model, table)
        ev.report(model, table, pseudo=True)
        ev.grad_norm(model, table)
        assert calls == [40, 1024]
        assert family_calls == ["partition", "partition"]

    @pytest.mark.parametrize("builder", [gmm, sbn], ids=lambda b: b.__name__)
    def test_prior_state_stats_computed_once(self, builder, monkeypatch):
        model = builder()
        _, data = mdl.sample_joint(model, np.random.default_rng(3), 30)
        prior_calls = []
        original = fam.batch_sufficient_stats

        def counted(family, rows):
            if family == model.prior.family:
                prior_calls.append(len(rows))
            return original(family, rows)

        monkeypatch.setattr(fam, "batch_sufficient_stats", counted)
        ev = obj.FiniteObjective(model, data)
        table = ev.posterior(model)
        # The gradient reads the cached tables and builds no new model.
        ev.grad_norm(model, table)
        ev.report(model, table)
        assert prior_calls == [len(model.latent_support.states)]
        # The log prior masses still equal log_density's, bit for bit.
        zeta = model.prior.zeta(model.prior.params)
        np.testing.assert_array_equal(
            ev.tables(model).log_prior,
            fam.log_density(model.prior.family, zeta, model.latent_support.states),
        )

    @pytest.mark.parametrize("builder", [gmm, poisson_mix, sbn], ids=lambda b: b.__name__)
    def test_tables_match_the_family_oracles(self, builder):
        # One partition per natural array gives what the per-quantity
        # chains gave; the SBN's logistic below 0 is the exception (4 eps).
        model = builder()
        _, data = mdl.sample_joint(model, np.random.default_rng(4), 30)
        tables = obj.FiniteObjective(model, data).tables(model)
        noise, prior = model.noise.family, model.prior.family
        zeta = model.prior.zeta(model.prior.params)
        np.testing.assert_array_equal(tables.log_parts, log_partition_oracle(noise, tables.etas))
        assert tables.prior_entropy == pseudo_entropy_oracle(prior, zeta)
        np.testing.assert_array_equal(tables.prior_mean, grad_log_partition_oracle(prior, zeta))
        want = grad_log_partition_oracle(noise, tables.etas)
        if noise.name == "bernoulli_product":
            np.testing.assert_allclose(tables.means, want, rtol=4 * np.finfo(float).eps, atol=0)
        else:
            np.testing.assert_array_equal(tables.means, want)

    def test_criterion_calls_eta_once_per_theta_grid_point(self):
        # Each grid point's eta serves both the draw's finiteness check and
        # the solve's target, over all states at once.
        calls = []
        model = self.counted_sbn(calls)
        report = mdl.check_criterion(model)
        assert report.passes and report.tested_points == 2 * mdl.CRITERION_GRID_POINTS
        assert calls == [1024] * mdl.CRITERION_GRID_POINTS


class TestEntropyRows:
    @pytest.mark.parametrize("shape", [(50_000, 3), (1000, 256), (2000, 4)])
    @pytest.mark.parametrize("states_major", [True, False], ids=["states-major", "c-order"])
    def test_matches_where_form_bit_for_bit(self, shape, states_major):
        rng = np.random.default_rng(0)
        n, s = shape
        table = rng.dirichlet(np.ones(s), size=n)
        table[rng.random((n, s)) < 0.2] = 0.0
        table[0] = 0.0
        if states_major:
            table = np.ascontiguousarray(table.T).T
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            rows = obj._entropy_rows(table)
        np.testing.assert_array_equal(rows, entropy_rows_reference(table))


def f1_oracle(points) -> float:
    """-(1/N) sum_n sum_s q_ns log q_ns of a table with one row per point,
    in 50 digits, counting 0 log 0 as 0."""
    with mp.workdps(50):
        total = mp.fsum(-mp.mpf(p) * mp.log(p) for row in points for p in row if p > 0)
        return float(total / len(points))


class TestZeroLogZero:
    """f1 counts 0 log 0 as 0 on grouped rows, however q comes: a caller's
    table over the distinct rows or the points, or the E-step's posterior."""

    weights, rates = (0.3, 0.3, 0.4), (2.0, 3.0, 1000.0)

    def grouped(self):
        # On counts 0 to 5 the rate-1000 state scores about 1e3 below the others.
        model = mdl.make_ef_mixture(
            fam.poisson_product(1), self.weights, np.array(self.rates)[:, None]
        )
        data = np.array([[0], [3], [0], [5], [1], [3], [0], [2]], dtype=float)
        ev = obj.evaluator(model, data)
        assert len(ev.rows) < ev.n
        return model, data, ev

    @pytest.mark.parametrize("per_point", [False, True], ids=["distinct-rows", "data-points"])
    def test_a_callers_table_with_exact_zeros(self, per_point):
        model, data, ev = self.grouped()
        table = random_table(np.random.default_rng(5), len(data) if per_point else len(ev.rows), 3)
        table[::2, 2] = 0.0
        table[1::3, 0] = 0.0
        table[0] = [1.0, 0.0, 0.0]
        table /= table.sum(axis=1, keepdims=True)
        f1 = ev.state_table(model, table).f1
        assert math.isfinite(f1)
        assert f1 == pytest.approx(f1_oracle(table if per_point else table[ev.inverse]), rel=1e-13)

    def test_an_e_step_posterior_whose_exp_underflows(self):
        model, data, ev = self.grouped()
        q = ev.posterior(model)
        assert np.any(q.table == 0.0)
        with mp.workdps(50):
            points = []
            for x in data[:, 0].astype(int).tolist():
                parts = [
                    mp.mpf(w) * mp.mpf(r) ** x * mp.exp(-mp.mpf(r))
                    for w, r in zip(self.weights, self.rates)
                ]
                total = mp.fsum(parts)
                points.append([part / total for part in parts])
            oracle = f1_oracle(points)
        assert math.isfinite(q.f1)
        assert q.f1 == pytest.approx(oracle, rel=1e-13)


class TestWitnessAgainstDenseLstsq:
    """The stated witnesses against one dense least-squares solve.

    A passing witness proves the criterion; a failing one shows only that
    the stated alpha or beta fails. So at random parameters of every kind,
    wherever a dense solve finds some alpha or beta, the stated one must fit
    at rounding level. Then wherever a stated one fails (the rigid SBN, an
    SBN with fixed non-zero offsets), the dense solve fails too.
    """

    @pytest.mark.parametrize("kind", ZOO_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_witness_fits_wherever_the_dense_solve_does(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = zoo_model(kind)
        psi, theta = mdl._random_params(model, rng)
        model = mdl.replace_params(model, psi, theta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mdl, "CRITERION_GRID_POINTS", 1)  # the model's own point alone
            report = mdl.check_criterion(model, seed=seed)
        assert report.tested_points == 2

        support = model.latent_support
        zs = (
            support.states
            if isinstance(support, mdl.FiniteStates)
            else rng.normal(size=(16, support.dim))
        )
        zeta, eta = model.prior.zeta(psi), model.noise.eta(zs, theta)
        jac = eta_jacobian_reference(model, zs, theta)
        dense = [
            dense_lstsq(a, b)[0] / max(1.0, np.linalg.norm(b))
            for a, b in (
                (mdl.jacobian_zeta(model), zeta),
                (jac.reshape(-1, jac.shape[-1]), eta.ravel()),
            )
        ]
        for witness, oracle in zip((report.prior_residual, report.noise_residual), dense):
            if oracle < mdl.CRITERION_THRESHOLD:
                assert witness <= 1e-13
        assert report.passes == (kind in CRITERION_KINDS)


class TestJvpAgainstReferences:
    """Every kind's eta_jvp and eta_vjp against its noise Jacobian written
    out in the tests (helpers.eta_jacobian_reference), at random parameters
    and states; models.jacobian_eta, built from eta_jvp, equals that
    Jacobian."""

    @pytest.mark.parametrize("kind", ZOO_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_jvp_is_the_reference_jacobian_product(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = zoo_model(kind)
        theta = mdl._random_params(model, rng)[1]
        support = model.latent_support
        zs = (
            np.concatenate([support.states, support.states[::-1]])
            if isinstance(support, mdl.FiniteStates)
            else rng.normal(size=(16, support.dim))
        )
        assert_jvp_is_the_jacobian_product(model, zs, theta, rng)
        np.testing.assert_array_equal(
            mdl.jacobian_eta(model, zs, theta), eta_jacobian_reference(model, zs, theta)
        )

    @pytest.mark.parametrize("kind", ZOO_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_vjp_contracts_the_reference_jacobian(self, kind, seed):
        # Every kind with an eta_vjp trains all of theta, so the reference
        # over the criterion subset is its whole Jacobian; PPCA and the
        # factor analyzer state none.
        rng = np.random.default_rng(seed)
        model = zoo_model(kind)
        model = mdl.replace_params(model, *mdl._random_params(model, rng))
        support = model.latent_support
        zs = (
            np.concatenate([support.states, support.states[::-1]])
            if isinstance(support, mdl.FiniteStates)
            else rng.normal(size=(16, support.dim))
        )
        g = rng.normal(size=(len(zs), model.noise.family.natural_dim))
        if model.noise.eta_vjp is None:
            assert kind in ("ppca", "simple_fa")
            with pytest.raises(UnsupportedModelError, match="eta_vjp"):
                mdl.vjp_eta(model, zs, g)
            return
        np.testing.assert_array_equal(
            model.noise.theta_subset, np.arange(model.noise.params.size)
        )
        jac = eta_jacobian_reference(model, zs, model.noise.params)
        want = np.einsum("slp,sl->p", jac, g)
        scale = np.einsum("slp,sl->p", np.abs(jac), np.abs(g))
        got = mdl.vjp_eta(model, zs, g)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestCriterionJvp:
    """check_criterion takes J_eta(z) beta from each kind's eta_jvp, and its
    report must agree with one whose eta_jvp contracts the kind's Jacobian
    written out in the tests (helpers.eta_jacobian_reference)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ZOO_KINDS)
    def test_report_matches_the_jacobian_path(self, kind, seed):
        model = zoo_model(kind)
        hook, bound = criterion_with_jvp_bound(model, seed)
        dense = mdl.check_criterion(with_reference_jvp(model), seed)
        assert (hook.passes, hook.tested_points) == (dense.passes, dense.tested_points)
        assert hook.prior_residual == dense.prior_residual
        assert abs(hook.noise_residual - dense.noise_residual) <= bound


# ---------------------------------------------------------------------------
# The exact gradient, at arbitrary parameters and variational states.

class TestExactGradient:
    @pytest.mark.parametrize("kind", ZOO_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_finite_difference_oracle(self, kind, seed):
        model, _, ev, q = random_point(kind, seed)
        exact = ev.gradient(model, q)
        oracle = elbo_gradient_oracle(ev, model, q)
        assert exact.shape == oracle.shape
        np.testing.assert_array_less(
            np.abs(exact - oracle), 1e-6 * np.maximum(1.0, np.abs(oracle))
        )
        assert ev.grad_norm(model, q) == pytest.approx(np.linalg.norm(exact), rel=1e-15)

    def test_grad_norm_stays_finite_when_squares_overflow(self, monkeypatch):
        model, _, ev, q = random_point("mixture-poisson_product", 0)
        # In range it is math.hypot of the entries, within 1 ulp of the plain norm.
        g = ev.gradient(model, q)
        assert ev.grad_norm(model, q) == math.hypot(*g.tolist())
        assert abs(ev.grad_norm(model, q) - np.linalg.norm(g)) <= np.spacing(np.linalg.norm(g))
        monkeypatch.setattr(ev, "gradient", lambda m, q: np.array([3e200, -4e200, 0.0]))
        assert ev.grad_norm(model, q) == pytest.approx(5e200, rel=1e-15)

    @pytest.mark.parametrize("kind", ["sbn-free-offsets", "sbn-fixed-offsets"])
    def test_sbn_gradient_forms_no_jacobian(self, kind, monkeypatch):
        model, data, _, q = random_point(kind, 5)
        d, offsets_free = model.noise.family.data_dim, kind == "sbn-free-offsets"

        def forbidden(*args, **kwargs):
            raise AssertionError("models.jacobian_eta called")

        monkeypatch.setattr(mdl, "jacobian_eta", forbidden)
        grad = obj.FiniteObjective(model, data).gradient(model, q)

        # The same contraction through the full (S, L, P) reference Jacobian.
        def dense_vjp(z, theta, g):
            return np.einsum("slp,sl->p", sbn_eta_jacobian_reference(z, d, offsets_free), g)

        via_jac = replace(model, noise=replace(model.noise, eta_vjp=dense_vjp))
        np.testing.assert_allclose(
            grad, obj.FiniteObjective(via_jac, data).gradient(via_jac, q), rtol=1e-12
        )

    def test_partial_subset_without_vjp_is_unsupported(self):
        # theta = (a, b) with eta = (a z, b z), but the criterion subset is
        # a alone and there is no eta_vjp: the noise gradient over all of
        # theta has no analytic source, so it must not be approximated.
        prior_family = fam.bernoulli_product(1)
        prior = mdl.PriorSpec(
            prior_family,
            np.array([0.4]),
            lambda p: fam.to_natural(prior_family, p),
            lambda p: np.diag(1.0 / (p * (1.0 - p))),
            lambda p: p * (1.0 - p) * fam.to_natural(prior_family, p),
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([0.8, -0.5]),
            np.array([0]),
            lambda z, t: z[:, :1] * t,
            lambda z, t, v: np.column_stack([z[:, 0] * v[0], np.zeros(len(z))]),
            lambda t: t[:1],
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(1)), "custom"
        )
        data = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        ev = obj.FiniteObjective(model, data)
        with pytest.raises(UnsupportedModelError, match="eta_vjp"):
            ev.gradient(model, ev.posterior(model))


class TestProofStep:
    """elbo - entropy_sum = alpha . grad_psi + beta . grad_theta at any point.

    With zeta = J_zeta alpha and eta(z) = J_eta(z) beta for every z (the
    criterion, with the model's stated witnesses), the moment-matching
    gradient contracts to the gap: the paper's proof step, which sends the
    gap to zero with the gradient.
    """

    @pytest.mark.parametrize("kind", CRITERION_KINDS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gap_is_gradient_contracted_with_the_witnesses(self, kind, seed):
        model, _, ev, q = random_point(kind, seed)
        pseudo = model.noise.family.name == "poisson_product"
        report = ev.report(model, q, pseudo)
        grad = ev.gradient(model, q)
        r = model.prior.params.size

        alpha = model.prior.alpha(model.prior.params)
        beta = model.noise.beta(model.noise.params)
        contracted = alpha @ grad[:r] + beta @ grad[r:][model.noise.theta_subset]
        assert report.elbo - report.entropy_sum == pytest.approx(
            contracted, abs=1e-9 * max(1.0, abs(report.elbo))
        )
        # A random point is not stationary: the identity is not 0 = 0.
        assert abs(contracted) > 1e-6
