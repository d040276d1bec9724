"""Training loops: fixed points, recovery, monotonicity, determinism."""

import math

import numpy as np
import pytest

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj
from efgen.errors import DegenerateDataError, EmptyClusterError, NewtonConvergenceError
from helpers import SBN8_MU, SBN8_PI, SBN8_W, sbn_newton_direction_oracle


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
        ],
        ids=[
            "gaussian-point-mass",
            "diag-point-mass",
            "bernoulli-constant",
            "poisson-zero",
            "gaussian-past-float-range",
            "diag-past-float-range",
        ],
    )
    def test_component_at_the_edge_of_its_domain_collapses(self, family, comp, data, resp):
        model = mdl.make_ef_mixture(family, [0.5, 0.5], np.array([comp, comp]))
        with pytest.raises(DegenerateDataError, match="component 0 collapsed"):
            lrn.mixture_m_step(model, np.array(data), np.array(resp))

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
        assert fit.trace.last().iteration == 5
        # One more for the posterior the first M-step reads.
        assert len(builds) == 5 + 1

    def test_one_terms_per_iteration(self, monkeypatch):
        # A trace record reuses the iteration's ELBO instead of a report.
        truth, data = separated_gmm(seed=4)
        calls = []
        terms = obj.FiniteObjective.terms

        def counted(self, *args, **kwargs):
            calls.append(args)
            return terms(self, *args, **kwargs)

        monkeypatch.setattr(obj.FiniteObjective, "terms", counted)
        cfg = lrn.TrainingConfig(seed=4, max_iters=5, record_every=1)
        fit = lrn.em_mixture(truth, data, cfg)
        assert len(fit.trace.records) == 5
        assert len(calls) == 5


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

    def test_data_on_an_h_dimensional_line_rejected(self):
        # Rank-one data leave sigma2 at rounding level for h = 1.
        data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.5]])
        with pytest.raises(DegenerateDataError, match="rank too low"):
            lrn.fit_ppca(data, 1, lrn.TrainingConfig())

    def test_closed_form_likelihood_identity(self):
        w = np.array([[1.2, 0.0], [0.4, 0.9], [-0.5, 0.3], [0.0, -0.7]])
        truth = mdl.make_ppca(w, np.zeros(4), 0.3)
        _, data = mdl.sample_joint(truth, np.random.default_rng(10), 3000)
        fit = lrn.fit_ppca(data, 2, lrn.TrainingConfig(seed=10))
        w_ml, _, s2, _ = mdl.ppca_components(fit.model)
        direct = obj.evaluator(fit.model, data).marginal_loglik(fit.model)
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
        ev = obj.evaluator(fit.model, data)
        l_eigen = ev.marginal_loglik(fit.model)
        l_em = ev.marginal_loglik(fit.em_model)
        assert l_em == pytest.approx(l_eigen, abs=1e-8)

    def test_gap_closes_at_ml_solution(self):
        w = np.array([[0.9], [-0.4], [0.1]])
        truth = mdl.make_ppca(w, np.zeros(3), 0.6)
        _, data = mdl.sample_joint(truth, np.random.default_rng(12), 4000)
        fit = lrn.fit_ppca(data, 1, lrn.TrainingConfig(seed=12))
        ev = obj.evaluator(fit.model, data)
        report = ev.report(fit.model, fit.q)
        assert ev.grad_norm(fit.model, fit.q) < 1e-6
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
        direction = lrn._sbn_newton_direction(grad, states, curv, offsets_free)
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
        direction = lrn._sbn_newton_direction(grad, states, curv, offsets_free)
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
        [{"max_iters": 0}, {"grad_norm_tol": -1.0}, {"record_every": 0}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            lrn.TrainingConfig(**kwargs)
