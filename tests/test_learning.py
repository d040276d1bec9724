"""Training loops: fixed points, recovery, monotonicity, determinism."""

import math

import numpy as np
import pytest

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj
from efgen.errors import DegenerateDataError, EmptyClusterError, NewtonConvergenceError


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
        report = obj.elbo_terms(fit.model, data, fit.q)
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))

    def test_single_component_degenerate(self):
        model = mdl.make_ef_mixture(
            fam.gaussian_scalar_var(1), [1.0], np.array([[0.0, 1.0]])
        )
        rng = np.random.default_rng(1)
        data = rng.normal(2.0, 1.5, size=(200, 1))
        fit = lrn.em_mixture(model, data, lrn.TrainingConfig(seed=1))
        assert fit.trace.converged
        assert obj.elbo_terms(fit.model, data, fit.q).elbo == pytest.approx(
            obj.marginal_loglik(fit.model, data), abs=1e-10
        )
        mu, s2 = mdl.mixture_component_params(fit.model)[0]
        assert mu == pytest.approx(data.mean(), abs=1e-10)
        assert s2 == pytest.approx(data.var(), rel=1e-8)

    def test_gamma_shape_recovery(self):
        rng = np.random.default_rng(2)
        data = fam.sample(fam.gamma_family(), [3.0, 2.0], rng, 100_000)
        model = mdl.make_ef_mixture(fam.gamma_family(), [1.0], np.array([[1.0, 1.0]]))
        fit = lrn.em_mixture(model, data, lrn.TrainingConfig(seed=2))
        alpha, beta = mdl.mixture_component_params(fit.model)[0]
        assert abs(alpha - 3.0) / 3.0 < 0.05
        assert abs(beta - 2.0) / 2.0 < 0.05

    def test_poisson_mixture_converges(self):
        truth = mdl.make_ef_mixture(
            fam.poisson_product(2), [0.4, 0.6], np.array([[1.0, 6.0], [7.0, 0.5]])
        )
        _, data = mdl.sample_joint(truth, np.random.default_rng(3), 400)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=3))
        assert fit.trace.converged
        pse = obj.pseudo_elbo_terms(fit.model, data, fit.q)
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
        report = obj.elbo_terms(fit.model, data, fit.q)
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))

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
            lrn.em_mixture(bad, data, lrn.TrainingConfig(seed=5), init="model")

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
        np.testing.assert_array_equal(a.q.resp, b.q.resp)

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
            fit = lrn.fit_ppca(data, 1, cfg)
        else:
            truth = mdl.make_sbn([0.35], np.array([[2.0], [-1.5]]), np.array([0.3, -0.2]))
            _, data = mdl.sample_joint(truth, np.random.default_rng(7), 200)
            fit = lrn.fit_sbn(truth, data, cfg)
        assert not fit.trace.converged
        grad = fit.trace.last().grad_norm
        assert fit.trace.stop_reason == (
            f"iteration cap 1 reached (grad_norm {grad:.3e}, tol {cfg.grad_norm_tol:.1e})"
        )


class TestGammaShapeNewton:
    def test_round_trip(self):
        for alpha in (0.3, 1.0, 2.5, 17.0):
            s = math.log(alpha) - lrn.digamma(alpha)
            assert lrn.gamma_shape_newton(s) == pytest.approx(alpha, rel=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(NewtonConvergenceError):
            lrn.gamma_shape_newton(0.0)


class TestFitPpca:
    def test_variance_recovery(self):
        w = np.array([[1.0], [0.6], [-0.3]])
        truth = mdl.make_ppca(w, np.array([0.2, -0.1, 0.4]), 0.5)
        _, data = mdl.sample_joint(truth, np.random.default_rng(8), 10_000)
        fit = lrn.fit_ppca(data, 1, lrn.TrainingConfig(seed=8))
        _, _, s2, _ = mdl.ppca_components(fit.model)
        assert abs(s2 - 0.5) / 0.5 < 0.05

    def test_h_equal_d_rejected(self):
        data = np.random.default_rng(9).normal(size=(100, 3))
        with pytest.raises(DegenerateDataError):
            lrn.fit_ppca(data, 3, lrn.TrainingConfig())

    def test_closed_form_likelihood_identity(self):
        w = np.array([[1.2, 0.0], [0.4, 0.9], [-0.5, 0.3], [0.0, -0.7]])
        truth = mdl.make_ppca(w, np.zeros(4), 0.3)
        _, data = mdl.sample_joint(truth, np.random.default_rng(10), 3000)
        fit = lrn.fit_ppca(data, 2, lrn.TrainingConfig(seed=10))
        w_ml, _, s2, _ = mdl.ppca_components(fit.model)
        direct = obj.marginal_loglik(fit.model, data)
        d = 4
        formula = -0.5 * np.linalg.slogdet(w_ml.T @ w_ml / s2 + np.eye(2))[1] - (
            d / 2.0
        ) * math.log(2.0 * math.pi * math.e * s2)
        assert direct == pytest.approx(formula, abs=1e-6)

    def test_em_and_eigen_solutions_agree_in_likelihood(self):
        w = np.array([[1.0], [0.5], [-0.2]])
        truth = mdl.make_ppca(w, np.zeros(3), 0.4)
        _, data = mdl.sample_joint(truth, np.random.default_rng(11), 2000)
        fit = lrn.fit_ppca(data, 1, lrn.TrainingConfig(seed=11, max_iters=5000))
        l_eigen = obj.marginal_loglik(fit.model, data)
        l_em = obj.marginal_loglik(fit.em_model, data)
        assert l_em == pytest.approx(l_eigen, abs=1e-8)

    def test_gap_closes_at_ml_solution(self):
        w = np.array([[0.9], [-0.4], [0.1]])
        truth = mdl.make_ppca(w, np.zeros(3), 0.6)
        _, data = mdl.sample_joint(truth, np.random.default_rng(12), 4000)
        fit = lrn.fit_ppca(data, 1, lrn.TrainingConfig(seed=12))
        report = obj.elbo_terms(fit.model, data, fit.q)
        assert lrn.grad_norm_all_params(fit.model, data, fit.q) < 1e-6
        assert report.gap <= 1e-6 * max(1.0, abs(report.elbo))


class TestFitSbn:
    def test_flat_model_posterior_equals_prior(self):
        model = mdl.make_sbn([0.5, 0.5], np.zeros((3, 2)), np.zeros(3))
        data = np.random.default_rng(13).integers(0, 2, size=(20, 3)).astype(float)
        q = obj.exact_posterior(model, data)
        np.testing.assert_allclose(q.probs, 0.25, atol=1e-12)

    def test_single_latent_training_reaches_stationary_point(self):
        truth = mdl.make_sbn([0.35], np.array([[2.0], [-1.5]]), np.array([0.3, -0.2]))
        _, data = mdl.sample_joint(truth, np.random.default_rng(14), 500)
        fit = lrn.fit_sbn(truth, data, lrn.TrainingConfig(seed=14, max_iters=2000))
        assert fit.trace.converged, fit.trace.stop_reason
        last = fit.trace.last()
        assert last.grad_norm < 1e-7
        report = obj.elbo_terms(fit.model, data, fit.q)
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
        report = obj.elbo_terms(fit.model, data, fit.q)
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


class TestGradNorm:
    def test_fixed_point_small_perturbed_large(self):
        truth, data = separated_gmm(seed=16)
        fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(seed=16))
        assert lrn.grad_norm_all_params(fit.model, data, fit.q) < 1e-7
        bumped = mdl.replace_params(
            fit.model,
            psi=fit.model.prior.params + 0.1,
            theta=fit.model.noise.params + 0.1,
        )
        assert lrn.grad_norm_all_params(bumped, data, fit.q) > 1e-3

    def test_two_point_single_component_closed_form_ml(self):
        # Smallest dataset with an interior ML point; the closed-form fit is
        # the sample mean and biased variance, where the gradient vanishes.
        data = np.array([[0.0], [2.0]])
        model = mdl.make_ef_mixture(
            fam.gaussian_scalar_var(1), [1.0], np.array([[1.0, 1.0]])
        )
        q = obj.CategoricalTable(np.ones((2, 1)))
        assert lrn.grad_norm_all_params(model, data, q) < 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": 0}, {"elbo_rel_tol": 0.0}, {"grad_norm_tol": -1.0}, {"record_every": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            lrn.TrainingConfig(**kwargs)
