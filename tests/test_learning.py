"""Training loops: fixed points, recovery, monotonicity, determinism."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj
from efgen.errors import DegenerateDataError, EmptyClusterError, NewtonConvergenceError
from helpers import (
    SBN8_MU,
    SBN8_PI,
    SBN8_W,
    kmeanspp_init_per_point,
    sbn_newton_direction_oracle,
    weighted_component_update,
)


def separated_gmm(n=500, seed=0):
    truth = mdl.make_ef_mixture(
        fam.gaussian_scalar_var(1), [0.5, 0.5], np.array([[-5.0, 1.0], [5.0, 1.0]])
    )
    _, data = mdl.sample_joint(truth, np.random.default_rng(seed), n)
    return truth, data


class TestEmMixture:
    def test_separated_gmm_reaches_stationary_point(self):
        truth, data = separated_gmm()
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=0))
        assert fit.trace.converged
        last = fit.trace.last()
        assert last.grad_norm < 1e-7
        # Gap/stationarity coupling holds at the trace level too: the recorded
        # relative gap vanishes wherever the recorded gradient norm does.
        assert last.gap <= 1e-6
        report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))

    def test_single_component_degenerate(self):
        model = mdl.make_ef_mixture(
            fam.gaussian_scalar_var(1), [1.0], np.array([[0.0, 1.0]])
        )
        rng = np.random.default_rng(1)
        data = rng.normal(2.0, 1.5, size=(200, 1))
        fit = lrn.em_mixture(model, data, lrn.TrainingConfig(seed=1))
        assert fit.trace.converged
        ev = obj.evaluator(fit.model, data)
        assert ev.elbo(fit.model, fit.q) == pytest.approx(
            ev.marginal_loglik(fit.model), abs=1e-10
        )
        mu, s2 = mdl.constructor_args(fit.model)["component_params"][0]
        assert mu == pytest.approx(data.mean(), abs=1e-10)
        assert s2 == pytest.approx(data.var(), rel=1e-8)

    def test_gamma_shape_recovery(self):
        rng = np.random.default_rng(2)
        data = fam.sample(fam.gamma_family(), [3.0, 2.0], rng, 100_000)
        model = mdl.make_ef_mixture(fam.gamma_family(), [1.0], np.array([[1.0, 1.0]]))
        fit = lrn.em_mixture(model, data, lrn.TrainingConfig(seed=2))
        alpha, beta = mdl.constructor_args(fit.model)["component_params"][0]
        assert abs(alpha - 3.0) / 3.0 < 0.05
        assert abs(beta - 2.0) / 2.0 < 0.05

    def test_poisson_mixture_converges(self):
        truth = mdl.make_ef_mixture(
            fam.poisson_product(2), [0.4, 0.6], np.array([[1.0, 6.0], [7.0, 0.5]])
        )
        _, data = mdl.sample_joint(truth, np.random.default_rng(3), 400)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=3))
        assert fit.trace.converged
        pse = obj.evaluator(fit.model, data).report(fit.model, fit.q, pseudo=True)
        assert pse.gap <= 1e-6 * max(1.0, abs(pse.elbo))

    def test_gamma_mixture_reaches_stationary_point(self):
        # The gamma M-step is only an exact fixed point if the Newton shape
        # update solves its equation to full precision; the entropy-sum gap
        # (which runs through log-gamma and digamma) certifies it end to end.
        truth = mdl.make_ef_mixture(
            fam.gamma_family(), [0.45, 0.55], np.array([[2.0, 4.0], [9.0, 1.0]])
        )
        _, data = mdl.sample_joint(truth, np.random.default_rng(20), 600)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=20, max_iters=3000))
        assert fit.trace.converged, fit.trace.stop_reason
        report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))

    # Component 0 holds the point x = 1 with mass 1e-300 only, so its
    # variance, probability or rate lands about 1e-300 from the domain's
    # edge. Two points 2e-129 apart give a variance of 1e-258: far above
    # their rounding, but 0.5 / sigma2 would be squared past the float range.
    # Two points at -+1e100 give a variance of 1e200, whose square overflows
    # and whose 0.5 / sigma2 squares below the normal floats.
    @pytest.mark.parametrize(
        "family, comp, data, resp",
        [
            *[
                (family, comp, [[0.0], [1.0]], [[1.0, 0.0], [1e-300, 1.0]])
                for family, comp in [
                    (fam.gaussian_scalar_var(1), [0.0, 1.0]),
                    (fam.gaussian_diag_cov(1), [0.0, 1.0]),
                    (fam.bernoulli_product(1), [0.5]),
                    (fam.poisson_product(1), [1.0]),
                ]
            ],
            (fam.gaussian_scalar_var(1), [0.0, 1.0], [[1e-129], [3e-129]], [[0.5, 0.5]] * 2),
            (fam.gaussian_diag_cov(1), [0.0, 1.0], [[1e-129], [3e-129]], [[0.5, 0.5]] * 2),
            (fam.gaussian_scalar_var(1), [0.0, 1.0], [[-1e100], [1e100]], [[0.5, 0.5]] * 2),
        ],
        ids=[
            "gaussian-point-mass",
            "diag-point-mass",
            "bernoulli-constant",
            "poisson-zero",
            "gaussian-past-float-range",
            "diag-past-float-range",
            "gaussian-variance-past-float-range",
        ],
    )
    def test_component_at_the_edge_of_its_domain_collapses(self, family, comp, data, resp):
        model = mdl.make_ef_mixture(family, [0.5, 0.5], np.array([comp, comp]))
        ev = obj.FiniteObjective(model, np.array(data))
        with pytest.raises(DegenerateDataError, match="component 0 collapsed"):
            lrn.mixture_m_step(model, *ev.state_sums(ev.state_table(model, resp)))

    @pytest.mark.parametrize("family", [fam.gaussian_scalar_var(1), fam.gaussian_diag_cov(1)])
    def test_non_finite_state_sums_name_the_component(self, family):
        # Component 1's statistics give mean inf and variance inf - inf.
        model = mdl.make_ef_mixture(family, [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 1.0]]))
        stats = np.array([[0.0, 1.0], [np.inf, np.inf]])
        with np.errstate(invalid="ignore"), pytest.raises(
            DegenerateDataError, match="component 1 collapsed"
        ):
            lrn.mixture_m_step(model, np.array([1.0, 1.0]), stats)

    def test_monotone_elbo(self):
        truth, data = separated_gmm(seed=4)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=4, record_every=1))
        elbos = [r.elbo for r in fit.trace.records]
        diffs = np.diff(elbos)
        assert np.all(diffs >= -1e-10)

    def test_empty_cluster_raises_with_advice(self):
        data = np.zeros((50, 1)) + np.random.default_rng(5).normal(0, 0.01, size=(50, 1))
        bad = mdl.make_ef_mixture(
            fam.gaussian_scalar_var(1), [0.5, 0.5], np.array([[0.0, 0.01], [1e6, 0.01]])
        )
        with pytest.raises(EmptyClusterError, match="restart"):
            lrn.em_mixture(bad, data, lrn.TrainingConfig(seed=5, init="model"))

    def test_determinism_bitwise(self):
        truth, data = separated_gmm(seed=6)
        cfg = lrn.TrainingConfig(seed=6)
        a = lrn.em_mixture(truth, data, cfg)
        b = lrn.em_mixture(truth, data, cfg)
        # wall_time necessarily differs; every numeric field must not.
        for ra, rb in zip(a.trace.records, b.trace.records):
            assert (ra.iteration, ra.elbo, ra.entropy_sum, ra.gap, ra.grad_norm) == (
                rb.iteration,
                rb.elbo,
                rb.entropy_sum,
                rb.gap,
                rb.grad_norm,
            )
        np.testing.assert_array_equal(a.q, b.q)

    @pytest.mark.parametrize("trainer", ["em_mixture", "fit_ppca", "fit_sbn"])
    def test_iteration_cap_not_converged(self, trainer):
        # Every trainer runs the same loop, so every cap reports the last
        # gradient norm against its tolerance.
        cfg = lrn.TrainingConfig(max_iters=1, seed=7)
        if trainer == "em_mixture":
            truth, data = separated_gmm(seed=7)
            fit = lrn.em_mixture(truth, data, cfg)
        elif trainer == "fit_ppca":
            truth = mdl.make_ppca(np.array([[1.0], [0.6], [-0.3]]), np.zeros(3), 0.5)
            _, data = mdl.sample_joint(truth, np.random.default_rng(7), 500)
            fit = lrn.fit_ppca(truth, data, cfg)
        else:
            truth = mdl.make_sbn([0.35], np.array([[2.0], [-1.5]]), np.array([0.3, -0.2]))
            _, data = mdl.sample_joint(truth, np.random.default_rng(7), 200)
            fit = lrn.fit_sbn(truth, data, cfg)
        assert not fit.trace.converged
        grad = fit.trace.last().grad_norm
        assert fit.trace.stop_reason == (
            f"iteration cap 1 reached (grad_norm {grad:.3e}, tol {cfg.grad_norm_tol:.1e})"
        )

    def test_one_loglik_table_per_iteration(self, monkeypatch):
        # The E-step builds the (N, S) log-likelihood table; the ELBO, the
        # reports and the gradient read q's expected statistics instead.
        truth, data = separated_gmm(seed=4)
        builds = []
        loglik = obj.FiniteObjective.loglik

        def counted(self, *args, **kwargs):
            builds.append(args)
            return loglik(self, *args, **kwargs)

        monkeypatch.setattr(obj.FiniteObjective, "loglik", counted)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=4, max_iters=5))
        iterations = fit.trace.last().iteration
        assert iterations > 1
        # One more for the posterior the first M-step reads.
        assert len(builds) == iterations + 1

    def test_training_forms_no_noise_jacobian(self, monkeypatch):
        # The gradient contracts the mixture's eta_vjp; only the criterion
        # forms the (S, L, C * ldim) Jacobian.
        truth, data = separated_gmm(seed=4)
        calls = []
        jacobian_eta = mdl.jacobian_eta

        def counted(*args, **kwargs):
            calls.append(args)
            return jacobian_eta(*args, **kwargs)

        monkeypatch.setattr(mdl, "jacobian_eta", counted)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=4, max_iters=5))
        assert fit.trace.last().grad_norm > 0.0
        assert calls == []
        assert mdl.check_criterion(fit.model).passes
        assert calls

    def test_one_terms_per_iteration(self, monkeypatch):
        # A trace record takes its ELBO and entropy sum from one report.
        truth, data = separated_gmm(seed=4)
        calls = []
        terms = obj.FiniteObjective.terms

        def counted(self, *args, **kwargs):
            calls.append(args)
            return terms(self, *args, **kwargs)

        monkeypatch.setattr(obj.FiniteObjective, "terms", counted)
        cfg = lrn.TrainingConfig(seed=4, max_iters=5, record_every=1)
        fit = lrn.em_mixture(truth, data, cfg)
        iterations = fit.trace.last().iteration
        assert iterations > 1
        assert len(fit.trace.records) == iterations
        assert len(calls) == iterations

    def test_terms_only_for_records(self, monkeypatch):
        # The plateau test reads the E-step's ELBO, so an iteration that
        # records nothing evaluates no terms; a report computes the average
        # variational entropy once, for f1 and the entropy sum.
        truth, data = separated_gmm(seed=4)
        terms_calls, entropy_calls = [], []
        terms, entropy_rows = obj.FiniteObjective.terms, obj._entropy_rows

        def counted_terms(self, *args, **kwargs):
            terms_calls.append(args)
            return terms(self, *args, **kwargs)

        def counted_entropy_rows(table):
            entropy_calls.append(table.shape)
            return entropy_rows(table)

        monkeypatch.setattr(obj.FiniteObjective, "terms", counted_terms)
        monkeypatch.setattr(obj, "_entropy_rows", counted_entropy_rows)
        cfg = lrn.TrainingConfig(seed=4, max_iters=5, record_every=1000)
        fit = lrn.em_mixture(truth, data, cfg)
        iterations = fit.trace.last().iteration
        assert iterations > 1
        assert [r.iteration for r in fit.trace.records] == [iterations]
        assert len(terms_calls) == 1
        assert len(entropy_calls) == 1
        fit.evaluator.report(fit.model, fit.q)
        assert len(entropy_calls) == 2


def _component_rows(family, rng, n, repeated):
    """At most n in-support rows of family: with repeated, n rows drawn from
    3 distinct ones, else rows none of which repeats. Every column of the
    distinct rows takes two values at least, so no component collapses."""
    d = family.data_dim
    name = family.name
    if name == "bernoulli_product":  # all zeros and all ones come first
        base = np.array([[i >> k & 1 for k in range(d)] for i in range(2**d)], dtype=float)
        base = base[np.r_[0, 2**d - 1, 1 + rng.permutation(2**d - 2)]]
    elif name == "poisson_product":
        base = rng.permutation(np.unique(rng.poisson(4.0, size=(3 * n, d)), axis=0))
        base[0] = base.max(axis=0) + 1.0  # a new row, and no column all zero
    elif name == "gamma":
        base = rng.gamma(rng.uniform(0.5, 5.0), rng.uniform(0.2, 3.0), size=(n, 1))
    else:
        base = rng.normal(rng.normal(0.0, 3.0, size=d), rng.uniform(0.1, 3.0), size=(n, d))
    if not repeated:
        return base[:n]
    return base[:3][rng.permutation(np.r_[0, 1, 2, rng.integers(3, size=n - 3)])]


_M_STEP_FAMILIES = [
    fam.bernoulli_product(3),
    fam.poisson_product(2),
    fam.gaussian_diag_cov(2),
    fam.gaussian_scalar_var(3),
    fam.gamma_family(),
]


class TestMixtureMStep:
    """Moment matching from the evaluator's state sums, against the two-pass
    weighted update on the data rows that it replaced."""

    @pytest.mark.parametrize("family", _M_STEP_FAMILIES, ids=lambda f: f.name)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        repeated=st.booleans(),
        per_point=st.booleans(),
        c=st.integers(1, 3),
    )
    def test_matches_the_weighted_update_and_the_moments(self, family, seed, repeated, per_point, c):
        rng = np.random.default_rng(seed)
        data = _component_rows(family, rng, 30, repeated)
        comp = weighted_component_update(family, data, np.ones(len(data)), len(data))
        model = mdl.make_ef_mixture(family, np.full(c, 1.0 / c), np.tile(comp, (c, 1)))
        ev = obj.FiniteObjective(model, data)
        assert (ev.counts is not None) == (repeated and family.integer_valued)
        rows = data if per_point or ev.counts is None else ev.rows
        q = rng.uniform(0.05, 1.0, size=(len(rows), c))
        q /= q.sum(axis=1, keepdims=True)
        # The oracle's responsibilities: one row per point, or a distinct
        # row's weighted by its count.
        resp = q if rows is data else q * ev.counts[:, None]

        mass, stats = ev.state_sums(ev.state_table(model, q))
        args = mdl.constructor_args(lrn.mixture_m_step(model, mass, stats))
        weights, got = args["weights"], args["component_params"]
        oracle = np.array([weighted_component_update(family, rows, r, r.sum()) for r in resp.T])
        np.testing.assert_allclose(weights, resp.sum(axis=0) / len(data), rtol=1e-12)

        d = family.data_dim
        eps = np.finfo(float).eps
        if family.name == "gamma":  # within the Newton iteration's tolerance
            np.testing.assert_allclose(got, oracle, rtol=1e-10)
        elif family.name.startswith("gaussian"):
            scale = np.max(np.abs(rows))
            np.testing.assert_allclose(got[:, :d], oracle[:, :d], rtol=1e-12, atol=1e-12 * scale)
            # One pass takes the squared mean from the second moment, so the
            # variance carries an absolute error of order eps E[x^2].
            second = (resp.T @ rows**2) / resp.sum(axis=0)[:, None]
            if family.name == "gaussian_scalar_var":
                second = second.mean(axis=1, keepdims=True)
            bound = 64.0 * eps * second
            assert np.all(np.abs(got[:, d:] - oracle[:, d:]) <= bound)
        else:
            np.testing.assert_allclose(got, oracle, rtol=1e-12)

        # Each component's expected statistics are its state's B_s / w_s; a
        # shared variance matches the second moments summed over dimensions.
        target = stats / mass[:, None]
        moments = fam.grad_log_partition(family, fam.to_natural(family, got))
        if family.name == "gaussian_scalar_var":
            moments = np.hstack([moments[:, :d], moments[:, d:].sum(axis=1, keepdims=True)])
            target = np.hstack([target[:, :d], target[:, d:].sum(axis=1, keepdims=True)])
        atol = 1e-10 if family.name == "gamma" else 1e-12 * np.max(np.abs(target))
        np.testing.assert_allclose(moments, target, rtol=1e-10, atol=atol)


class TestKmeansppInit:
    """k-means++ seeding computes distances once per distinct row, and draws
    and assigns as seeding on every data point did."""

    @pytest.mark.parametrize(
        "family",
        [fam.poisson_product(2), fam.bernoulli_product(3), fam.gaussian_diag_cov(2)],
        ids=lambda f: f.name,
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repeated=st.booleans(), c=st.integers(1, 4))
    def test_matches_seeding_on_every_point(self, family, seed, repeated, c):
        # Real-valued rows are never grouped (U = N); with 3 distinct rows
        # and 4 components, the last draw sees zero distances everywhere.
        rng = np.random.default_rng(seed)
        data = _component_rows(family, rng, 30, repeated)
        comp = weighted_component_update(family, data, np.ones(len(data)), len(data))
        model = mdl.make_ef_mixture(family, np.full(c, 1.0 / c), np.tile(comp, (c, 1)))
        ev = obj.FiniteObjective(model, data)
        assert (ev.counts is not None) == (repeated and family.integer_valued)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        table = lrn._kmeanspp_init(model, ev, rng)
        oracle = kmeanspp_init_per_point(model, ev, oracle_rng)
        assert table.shape == (len(ev.rows), c)
        np.testing.assert_array_equal(table[ev.inverse], oracle)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_observations_past_the_bound_raise(self):
        # The bound keeps every sum of squared distances over the points finite.
        family = fam.gaussian_diag_cov(1)
        model = mdl.make_ef_mixture(family, [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 1.0]]))
        bound = 0.5 * math.sqrt(np.finfo(float).max / 4)
        ev = obj.FiniteObjective(model, np.array([[0.0], [2.0 * bound], [1.0], [-1.0]]))
        for seeding in (lrn._kmeanspp_init, kmeanspp_init_per_point):
            with pytest.raises(DegenerateDataError, match="too large for k-means"):
                seeding(model, ev, np.random.default_rng(0))


class TestGammaShapeNewton:
    def test_round_trip(self):
        for alpha in (0.3, 1.0, 2.5, 17.0):
            s = math.log(alpha) - lrn.digamma(alpha)
            assert lrn.gamma_shape_newton(s) == pytest.approx(alpha, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(NewtonConvergenceError):
            lrn.gamma_shape_newton(0.0)

    def test_rounding_level_s_rejected(self):
        # Identical gamma observations leave s at rounding level, where the
        # shape equation's slope rounds to zero.
        with pytest.raises(NewtonConvergenceError, match="flat"):
            lrn.gamma_shape_newton(2.0**-53)

    @pytest.mark.parametrize("s", [2.3496e-4, 1e-4, 1e-5, 1e-8])
    def test_large_shapes_reach_the_rounding_limit(self, s):
        # Tightly clustered gamma data give a small s and a large shape a.
        # There log(a) - digamma(a) cancels to s, so rounding in f moves the
        # root by eps (|log a| + |digamma a|) / |f'(a)|: Newton stops where
        # its steps stop shrinking, within a small multiple of that.
        a = lrn.gamma_shape_newton(s)
        with mp.workdps(50):
            root = float(mp.findroot(lambda x: mp.log(x) - mp.digamma(x) - s, a))
        slope = 1.0 / a - lrn.polygamma(1, a)
        eps = np.finfo(float).eps
        bound = 16 * eps * (abs(math.log(a)) + abs(lrn.digamma(a))) / (a * abs(slope))
        assert abs(a - root) <= bound * root


class TestFitPpca:
    def test_variance_recovery(self):
        w = np.array([[1.0], [0.6], [-0.3]])
        truth = mdl.make_ppca(w, np.array([0.2, -0.1, 0.4]), 0.5)
        _, data = mdl.sample_joint(truth, np.random.default_rng(8), 10_000)
        s2 = mdl.constructor_args(lrn.ppca_closed_form(data, 1))["sigma2"]
        assert abs(s2 - 0.5) / 0.5 < 0.05

    def test_h_equal_d_rejected(self):
        data = np.random.default_rng(9).normal(size=(100, 3))
        with pytest.raises(DegenerateDataError):
            lrn.ppca_closed_form(data, 3)

    def test_data_on_an_h_dimensional_line_rejected(self):
        # Rank-one data leave sigma2 at rounding level for h = 1.
        data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.5]])
        with pytest.raises(DegenerateDataError, match="rank too low"):
            lrn.ppca_closed_form(data, 1)

    def test_closed_form_likelihood_identity(self):
        w = np.array([[1.2, 0.0], [0.4, 0.9], [-0.5, 0.3], [0.0, -0.7]])
        truth = mdl.make_ppca(w, np.zeros(4), 0.3)
        _, data = mdl.sample_joint(truth, np.random.default_rng(10), 3000)
        model = lrn.ppca_closed_form(data, 2)
        args = mdl.constructor_args(model)
        w_ml, s2 = args["w"], args["sigma2"]
        direct = obj.evaluator(model, data).marginal_loglik(model)
        d = 4
        formula = -0.5 * np.linalg.slogdet(w_ml.T @ w_ml / s2 + np.eye(2))[1] - (
            d / 2.0
        ) * math.log(2.0 * math.pi * math.e * s2)
        assert direct == pytest.approx(formula, abs=1e-6)

    def test_em_and_eigen_solutions_agree_in_likelihood(self):
        w = np.array([[1.0], [0.5], [-0.2]])
        truth = mdl.make_ppca(w, np.zeros(3), 0.4)
        _, data = mdl.sample_joint(truth, np.random.default_rng(11), 2000)
        eigen = lrn.ppca_closed_form(data, 1)
        fit = lrn.fit_ppca(truth, data, lrn.TrainingConfig(seed=11, max_iters=5000))
        ev = obj.evaluator(eigen, data)
        l_eigen = ev.marginal_loglik(eigen)
        l_em = ev.marginal_loglik(fit.model)
        assert l_em == pytest.approx(l_eigen, abs=1e-8)

    def test_gap_closes_at_ml_solution(self):
        w = np.array([[0.9], [-0.4], [0.1]])
        truth = mdl.make_ppca(w, np.zeros(3), 0.6)
        _, data = mdl.sample_joint(truth, np.random.default_rng(12), 4000)
        model = lrn.ppca_closed_form(data, 1)
        ev = obj.evaluator(model, data)
        q = ev.posterior(model)
        report = ev.report(model, q)
        assert ev.grad_norm(model, q) < 1e-6
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))


class TestFitSbn:
    def test_flat_model_posterior_equals_prior(self):
        model = mdl.make_sbn([0.5, 0.5], np.zeros((3, 2)), np.zeros(3))
        data = np.random.default_rng(13).integers(0, 2, size=(20, 3)).astype(float)
        q = obj.evaluator(model, data).posterior(model)
        np.testing.assert_allclose(q, 0.25, atol=1e-12)

    def test_single_latent_training_reaches_stationary_point(self):
        truth = mdl.make_sbn([0.35], np.array([[2.0], [-1.5]]), np.array([0.3, -0.2]))
        _, data = mdl.sample_joint(truth, np.random.default_rng(14), 500)
        fit = lrn.fit_sbn(truth, data, lrn.TrainingConfig(seed=14, max_iters=2000))
        assert fit.trace.converged, fit.trace.stop_reason
        last = fit.trace.last()
        assert last.grad_norm < 1e-7
        report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
        assert report.gap <= 1e-5 * max(1.0, abs(report.elbo))

    def test_saturating_observables_survive_training(self):
        # A constant observable has no interior optimum: its weights walk
        # toward a boundary supremum where Bernoulli naturals saturate to
        # probability exactly 1 in floats. Training and every entropy-sum
        # evaluation must stay finite along the way (convergence to the
        # gradient tolerance is not expected on such degenerate data and the
        # cap must be reported honestly).
        rng = np.random.default_rng(9)
        truth = mdl.make_sbn([0.4, 0.6], rng.normal(size=(3, 2)), 0.2 * rng.normal(size=3))
        _, data = mdl.sample_joint(truth, rng, 200)
        data[:, 0] = 1.0
        fit = lrn.fit_sbn(truth, data, lrn.TrainingConfig(max_iters=300, seed=9, record_every=50))
        report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
        assert np.isfinite(report.entropy_sum) and np.isfinite(report.elbo)
        assert all(np.isfinite(r.entropy_sum) for r in fit.trace.records)
        elbos = [r.elbo for r in fit.trace.records]
        assert np.all(np.diff(elbos) >= -1e-10)
        if not fit.trace.converged:
            assert "cap" in fit.trace.stop_reason

    def test_monotone_trace_h3_d8(self):
        rng = np.random.default_rng(15)
        truth = mdl.make_sbn(
            rng.uniform(0.3, 0.7, size=3), rng.normal(size=(8, 3)), rng.normal(size=8) * 0.3
        )
        _, data = mdl.sample_joint(truth, rng, 300)
        fit = lrn.fit_sbn(truth, data, lrn.TrainingConfig(seed=15, max_iters=60))
        elbos = [r.elbo for r in fit.trace.records]
        assert np.all(np.diff(elbos) >= -1e-10)

    def test_line_search_never_evaluates_its_start_point(self, monkeypatch):
        # Once t * direction is below the parameters' ulp, the candidate is
        # the start point itself; it and every smaller t would be rejected.
        model = mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU)
        _, data = mdl.sample_joint(model, np.random.default_rng(1), 1000)
        at_start = []
        armijo = lrn._armijo_step

        def spied(evaluate, theta, *args):
            def recorded(cand):
                at_start.append(np.array_equal(cand, theta))
                return evaluate(cand)

            return armijo(recorded, theta, *args)

        monkeypatch.setattr(lrn, "_armijo_step", spied)
        lrn.fit_sbn(model, data, lrn.TrainingConfig(max_iters=30, record_every=1000, seed=3))
        assert at_start and not any(at_start)


class TestSbnNewtonStop:
    """fit_sbn's Newton loop ends on its own decrement: at the same step
    whatever the rows' order, and short of its step cap on a constant
    observable."""

    @pytest.mark.parametrize("seed", range(8))
    def test_row_order_does_not_change_m_step_cost(self, monkeypatch, seed):
        # Permuting the rows reorders the grouped rows, and so the rounding of
        # every sum over them; a stop at the gradient's rounding floor read it.
        model = mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU)
        _, data = mdl.sample_joint(model, np.random.default_rng(seed), 1000)
        shuffled = data[np.random.default_rng(1000 + seed).permutation(len(data))]
        evaluations = []
        noise_expectation = obj.noise_expectation

        def counted(*args):
            evaluations.append(args)
            return noise_expectation(*args)

        monkeypatch.setattr(obj, "noise_expectation", counted)
        cfg = lrn.TrainingConfig(seed=3, max_iters=30, record_every=1000)
        costs = []
        for rows in (data, shuffled):
            evaluations.clear()
            lrn.fit_sbn(model, rows, cfg)
            costs.append(len(evaluations))
        assert costs[0] == costs[1]

    def test_one_outer_table_per_fit_and_one_grad_log_partition_per_evaluation(
        self, monkeypatch
    ):
        # The states' outer products do not change within a fit, and each
        # Newton direction's curvature reads the expected statistics that the
        # noise evaluation at the same eta computed.
        model = mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU)
        _, data = mdl.sample_joint(model, np.random.default_rng(0), 1000)
        outers, evaluations, grads, directions = [], [], [], []
        in_step = [False]

        def counting(calls, f, only_in_step):
            def counted(*args):
                if in_step[0] or not only_in_step:
                    calls.append(args)
                return f(*args)

            return counted

        train = lrn._train

        def counted_train(ev, model, config, step):
            def counted_step(model, q):
                in_step[0] = True
                try:
                    return step(model, q)
                finally:
                    in_step[0] = False

            return train(ev, model, config, counted_step)

        monkeypatch.setattr(lrn, "_sbn_outer", counting(outers, lrn._sbn_outer, False))
        monkeypatch.setattr(
            obj, "noise_expectation", counting(evaluations, obj.noise_expectation, True)
        )
        monkeypatch.setattr(
            fam, "grad_log_partition", counting(grads, fam.grad_log_partition, True)
        )
        monkeypatch.setattr(
            lrn, "_sbn_newton_direction", counting(directions, lrn._sbn_newton_direction, True)
        )
        monkeypatch.setattr(lrn, "_train", counted_train)
        lrn.fit_sbn(model, data, lrn.TrainingConfig(seed=3, max_iters=5, record_every=1000))
        assert len(outers) == 1
        assert len(directions) > 5  # several Newton steps per M-step
        assert len(grads) == len(evaluations)

    @pytest.mark.parametrize("zeroed", ["all-columns", "one-column"])
    def test_constant_observable_stops_short_of_the_step_cap(self, monkeypatch, zeroed):
        # An all-zero observable's optimum is at infinity: the objective
        # shrinks toward 0, and a stop relative to it alone chases it.
        model = mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU)
        _, data = mdl.sample_joint(model, np.random.default_rng(0), 1000)
        data[:, slice(None) if zeroed == "all-columns" else 0] = 0.0
        directions, per_step = [], []
        direction, train = lrn._sbn_newton_direction, lrn._train

        def counted_direction(*args):
            directions.append(args)
            return direction(*args)

        def counted_train(ev, model, config, step):
            def counted_step(model, q):
                before = len(directions)
                model = step(model, q)
                per_step.append(len(directions) - before)
                return model

            return train(ev, model, config, counted_step)

        monkeypatch.setattr(lrn, "_sbn_newton_direction", counted_direction)
        monkeypatch.setattr(lrn, "_train", counted_train)
        cfg = lrn.TrainingConfig(seed=3, max_iters=30, record_every=1000)
        fit = lrn.fit_sbn(model, data, cfg)
        assert per_step and max(per_step) < 200
        if zeroed == "all-columns":
            assert fit.trace.converged and fit.trace.last().iteration == 2


class TestSbnNewtonDirection:
    """The stacked solve against the per-observable loop it replaced."""

    def inputs(self, offsets_free, seed):
        rng = np.random.default_rng(seed)
        states = mdl.enumerate_binary_states(3)
        d = 4
        curv = rng.uniform(0.01, 2.0, size=(len(states), d))
        grad = rng.normal(size=3 * d + (d if offsets_free else 0))
        return grad, states, curv

    @pytest.mark.parametrize("offsets_free", [True, False], ids=["free", "fixed"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_observable_loop(self, offsets_free, seed):
        grad, states, curv = self.inputs(offsets_free, seed)
        direction = lrn._sbn_newton_direction(
            grad, lrn._sbn_outer(states, offsets_free), curv, offsets_free
        )
        oracle = sbn_newton_direction_oracle(grad, states, curv, offsets_free)
        np.testing.assert_allclose(direction, oracle, rtol=1e-12, atol=1e-14)
        assert float(grad @ direction) > 0.0

    @pytest.mark.parametrize("offsets_free", [True, False], ids=["free", "fixed"])
    def test_singular_stack_falls_back_to_gradient(self, offsets_free):
        # Observable 0 sees one state with a curvature that swamps the
        # 1e-12 ridge: its Hessian is exactly singular in floats. The whole
        # step falls back to the gradient; the loop fell back for
        # observable 0 alone.
        grad, states, curv = self.inputs(offsets_free, 0)
        curv[:, 0] = 0.0
        curv[3, 0] = 1e20  # state (1, 1, 0)
        direction = lrn._sbn_newton_direction(
            grad, lrn._sbn_outer(states, offsets_free), curv, offsets_free
        )
        np.testing.assert_array_equal(direction, grad)
        oracle = sbn_newton_direction_oracle(grad, states, curv, offsets_free)
        assert not np.array_equal(oracle, grad)


class TestGradNorm:
    def test_fixed_point_small_perturbed_large(self):
        truth, data = separated_gmm(seed=16)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=16))
        ev = obj.evaluator(fit.model, data)
        assert ev.grad_norm(fit.model, fit.q) < 1e-7
        bumped = mdl.replace_params(
            fit.model,
            psi=fit.model.prior.params + 0.1,
            theta=fit.model.noise.params + 0.1,
        )
        assert ev.grad_norm(bumped, fit.q) > 1e-3

    def test_two_point_single_component_closed_form_ml(self):
        # Smallest dataset with an interior ML point; the closed-form fit is
        # the sample mean and biased variance, where the gradient vanishes.
        data = np.array([[0.0], [2.0]])
        model = mdl.make_ef_mixture(
            fam.gaussian_scalar_var(1), [1.0], np.array([[1.0, 1.0]])
        )
        ev = obj.evaluator(model, data)
        assert ev.grad_norm(model, ev.state_table(model, np.ones((2, 1)))) < 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": 0}, {"grad_norm_tol": -1.0}, {"record_every": 0}, {"init": "warm"}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            lrn.TrainingConfig(**kwargs)
