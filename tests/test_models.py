"""Model zoo: constructors, Jacobians, criterion checker, ancestral sampling."""

import math

import numpy as np
import pytest

from efgen import families as fam
from efgen import models as mdl
from efgen.errors import DomainError

from helpers import finite_difference_gradient


def gmm_1d(means=(-1.0, 1.0), variances=(1.0, 1.0), weights=(0.5, 0.5)):
    comp = np.array([[m, v] for m, v in zip(means, variances)])
    return mdl.make_ef_mixture(fam.gaussian_scalar_var(1), np.asarray(weights), comp)


def gamma_mixture():
    comp = np.array([[2.0, 3.0], [5.0, 1.0], [0.8, 0.5]])
    return mdl.make_ef_mixture(fam.gamma_family(), [0.3, 0.3, 0.4], comp)


def poisson_mixture():
    comp = np.array([[1.0, 4.0], [6.0, 0.5]])
    return mdl.make_ef_mixture(fam.poisson_product(2), [0.4, 0.6], comp)


def simple_sbn(pi=0.5, v=0.8, w=-1.1):
    # Single latent, two observables, offsets pinned at zero.
    return mdl.make_sbn([pi], np.array([[v], [w]]), offsets_free=False)


class TestConstructors:
    def test_symmetric_gmm(self):
        m = gmm_1d()
        np.testing.assert_allclose(mdl.mixture_weights(m), [0.5, 0.5])
        assert m.info.n_components == 2

    def test_gamma_mixture_valid(self):
        assert gamma_mixture().noise.family.name == "gamma"

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            mdl.make_ef_mixture(
                fam.gaussian_scalar_var(1), [0.0, 1.0], np.array([[0.0, 1.0], [1.0, 1.0]])
            )

    def test_ppca_valid(self):
        w = np.array([[1.0], [0.0], [0.0]])
        m = mdl.make_ppca(w, np.zeros(3), 1.0, tau=1.0)
        got_w, got_mu, s2, tau = mdl.ppca_components(m)
        np.testing.assert_allclose(got_w, w)
        assert s2 == 1.0 and tau == 1.0

    def test_ppca_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            mdl.make_ppca(np.array([[1.0], [0.0]]), np.zeros(2), 0.0)

    def test_simple_fa_valid(self):
        m = mdl.make_simple_fa([3.0, 4.0], 1.0, [0.5, 2.0])
        wv, s2s, tau = mdl.fa_components(m)
        np.testing.assert_allclose(wv, [0.6, 0.8])  # normalized loading
        np.testing.assert_allclose(s2s, [0.5, 2.0])

    def test_sbn_fixture_and_random(self):
        assert simple_sbn().info.offsets_free is False
        rng = np.random.default_rng(0)
        m = mdl.make_sbn(np.full(3, 0.5), rng.normal(size=(5, 3)), rng.normal(size=5))
        assert m.latent_support.n_states == 8

    def test_sbn_boundary_probability_rejected(self):
        with pytest.raises(DomainError):
            mdl.make_sbn([1.0], np.zeros((2, 1)))

    def test_sbn_cap(self):
        with pytest.raises(DomainError):
            mdl.make_sbn(np.full(15, 0.5), np.zeros((2, 15)))

    def test_rigid_sbn(self):
        m = mdl.make_rigid_sbn(0.3, 2.0)
        assert mdl.rigid_sbn_components(m) == (0.3, 2.0)
        with pytest.raises(DomainError):
            mdl.make_rigid_sbn(0.0, 1.0)


class TestJacobians:
    def test_sbn_prior_jacobian_at_half(self):
        np.testing.assert_allclose(mdl.jacobian_zeta(simple_sbn(pi=0.5)), [[4.0]])

    def test_categorical_prior_jacobian_matches_finite_difference(self):
        m = gmm_1d()
        fd = finite_difference_gradient(
            lambda p: float(m.prior.zeta(p)[0]), np.array([0.5])
        )
        np.testing.assert_allclose(mdl.jacobian_zeta(m, [0.5]), [[4.0]], rtol=1e-9)
        np.testing.assert_allclose(fd, [4.0], rtol=1e-7)

    def test_fa_prior_jacobian_at_unit_variance(self):
        m = mdl.make_simple_fa([1.0, 0.0], 1.0, [1.0, 1.0])
        np.testing.assert_allclose(mdl.jacobian_zeta(m), [[0.0], [0.5]])

    def test_simple_sbn_eta_jacobian_identity_at_one(self):
        np.testing.assert_allclose(
            mdl.jacobian_eta(simple_sbn(), np.array([[1.0]])), [np.eye(2)]
        )

    def test_rigid_sbn_eta_jacobian_column(self):
        m = mdl.make_rigid_sbn(0.5, 0.0)
        np.testing.assert_allclose(mdl.jacobian_eta(m, np.array([[1.0]])), [[[1.0], [1.0]]])

    def test_ppca_eta_jacobian_is_scaled_eta(self):
        m = mdl.make_ppca(np.array([[0.7], [0.2], [-0.4]]), np.array([0.1, 0.0, -0.2]), 0.9)
        z = np.array([[0.3], [-1.2]])
        eta = m.noise.eta(z, m.noise.params)
        np.testing.assert_allclose(
            mdl.jacobian_eta(m, z), (-1.0 / 0.9) * eta[:, :, None], rtol=1e-12
        )

    @pytest.mark.parametrize(
        "model,zs",
        [
            (gmm_1d((0.3, -2.0), (0.7, 1.4), (0.4, 0.6)), [0, 1]),
            (gamma_mixture(), [0, 1, 2]),
            (poisson_mixture(), [0, 1]),
            (
                mdl.make_ppca(
                    np.array([[0.9, 0.1], [-0.3, 0.5], [0.2, 0.2]]),
                    np.array([0.5, -0.1, 0.0]),
                    0.7,
                    tau=1.3,
                ),
                [np.array([0.4, -1.2]), np.array([0.0, 0.0])],
            ),
            (mdl.make_simple_fa([2.0, -1.0], 0.8, [0.6, 1.7]), [np.array([0.5]), np.array([-1.0])]),
            (
                mdl.make_sbn([0.4, 0.7], np.array([[0.5, -1.0], [1.2, 0.3], [0.0, 2.0]]), [0.1, -0.4, 0.6]),
                list(mdl.enumerate_binary_states(2)),
            ),
            (mdl.make_rigid_sbn(0.5, 1.5), list(mdl.enumerate_binary_states(1))),
        ],
        ids=["gmm", "gamma_mix", "poisson_mix", "ppca", "fa", "sbn", "rigid"],
    )
    def test_analytic_matches_finite_difference(self, model, zs):
        # Prior map.
        psi = model.prior.params
        fd = np.column_stack(
            [
                finite_difference_gradient(lambda p: model.prior.zeta(p)[k], psi)
                for k in range(model.prior.family.natural_dim)
            ]
        ).T
        np.testing.assert_allclose(mdl.jacobian_zeta(model), fd, atol=1e-5)
        # Noise map w.r.t. its theta subset, at every state of the stack.
        theta = model.noise.params
        subset = model.noise.theta_subset
        zs = np.asarray(zs)
        jac = mdl.jacobian_eta(model, zs)
        assert jac.shape == (len(zs), model.noise.family.natural_dim, subset.size)
        for i, z in enumerate(zs):
            def eta_of_subset(sub, z=z):
                full = theta.copy()
                full[subset] = sub
                return model.noise.eta(np.asarray([z]), full)[0]

            fd = np.column_stack(
                [
                    finite_difference_gradient(
                        lambda s, k=k: eta_of_subset(s)[k], theta[subset]
                    )
                    for k in range(model.noise.family.natural_dim)
                ]
            ).T
            np.testing.assert_allclose(jac[i], fd, atol=1e-5)


class TestCriterion:
    @pytest.mark.parametrize(
        "model",
        [
            simple_sbn(),  # single-latent fixture, offsets pinned
            mdl.make_simple_fa([0.6, -0.8], 1.0, [0.9, 1.8]),  # diag-noise FA fixture
            mdl.make_sbn([0.4, 0.7], np.array([[0.5, -1.0], [1.2, 0.3]]), [0.1, -0.4]),
            mdl.make_ppca(np.array([[0.9], [-0.3], [0.2]]), np.zeros(3), 0.7),
            gamma_mixture(),
            gmm_1d(),
            poisson_mixture(),
        ],
        ids=["simple_sbn", "simple_fa", "sbn", "ppca", "gamma_mix", "gmm", "poisson_mix"],
    )
    def test_zoo_passes(self, model):
        report = mdl.check_criterion(model, seed=0)
        assert report.passes
        assert max(report.prior_residual, report.noise_residual) < 1e-8

    def test_rigid_sbn_fails_noise_part(self):
        report = mdl.check_criterion(mdl.make_rigid_sbn(0.5, 0.0), seed=0)
        assert not report.passes
        assert report.prior_residual < 1e-8
        assert report.noise_residual >= 0.1

    def test_report_consistency(self):
        report = mdl.check_criterion(gmm_1d(), seed=3)
        assert report.passes == (
            max(report.prior_residual, report.noise_residual) < report.threshold
        )
        assert report.tested_points == 16

    def test_permutation_invariance(self):
        model = mdl.make_sbn([0.3], np.array([[0.5], [1.5], [-0.7]]), [0.2, 0.0, -0.1])
        rng = np.random.default_rng(5)
        psis = [model.prior.params] + [
            1.0 / (1.0 + np.exp(-rng.normal(size=1))) for _ in range(5)
        ]
        thetas = [model.noise.params] + [
            model.noise.params + rng.normal(size=model.noise.params.size) for _ in range(5)
        ]
        zs = list(mdl.enumerate_binary_states(1))
        fwd = mdl.check_criterion(model, psis, thetas, zs)
        rev = mdl.check_criterion(model, psis[::-1], thetas[::-1], zs[::-1])
        assert fwd.passes == rev.passes
        assert fwd.prior_residual == pytest.approx(rev.prior_residual, abs=1e-12)
        assert fwd.noise_residual == pytest.approx(rev.noise_residual, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mdl.check_criterion(gmm_1d(), psi_grid=[], theta_grid=[])

    def test_custom_model_uses_finite_difference_jacobians(self):
        # Hand-assembled model with no analytic Jacobians: Bernoulli latent
        # whose natural parameter is psi^3, two Bernoulli observables with
        # natural parameters theta * (z, 2z). Both maps stay inside the
        # column spaces of their own Jacobians, so the check must pass.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1), np.array([0.7]), lambda p: p**3
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([1.3]),
            np.array([0]),
            lambda z, t: t[0] * np.column_stack([z[:, 0], 2.0 * z[:, 0]]),
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(1)), "custom"
        )
        np.testing.assert_allclose(
            mdl.jacobian_zeta(model), [[3 * 0.7**2]], rtol=1e-6
        )
        np.testing.assert_allclose(
            mdl.jacobian_eta(model, np.array([[1.0], [0.0]])),
            [[[1.0], [2.0]], [[0.0], [0.0]]],
            rtol=1e-6,
        )
        report = mdl.check_criterion(model, seed=0)
        assert report.passes

    def test_custom_model_with_tied_offset_fails(self):
        # Same skeleton but eta = (theta*z, theta*z + z) leaves the Jacobian
        # column space: finite differences alone must expose the failure.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1), np.array([0.5]), lambda p: np.log(p) - np.log1p(-p)
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([0.0]),
            np.array([0]),
            lambda z, t: np.column_stack([t[0] * z[:, 0], (t[0] + 1.0) * z[:, 0]]),
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(1)), "custom"
        )
        report = mdl.check_criterion(model, seed=0)
        assert not report.passes
        assert report.noise_residual >= 0.1


class TestSampleJoint:
    def test_gmm_cluster_proportions(self):
        m = gmm_1d(means=(-5.0, 5.0))
        rng = np.random.default_rng(42)
        zs, xs = mdl.sample_joint(m, rng, 10_000)
        sigma = math.sqrt(0.25 / 10_000)
        assert abs(np.mean(zs == 0) - 0.5) < 5.0 * sigma
        # Support check: components are unit-variance at +-5.
        assert xs.shape == (10_000, 1)
        assert np.all(np.isfinite(xs))

    def test_ppca_sample_covariance(self):
        w = np.array([[1.0], [0.5], [-0.25]])
        m = mdl.make_ppca(w, np.zeros(3), 0.5, tau=1.0)
        rng = np.random.default_rng(1)
        _, xs = mdl.sample_joint(m, rng, 10_000)
        target = w @ w.T + 0.5 * np.eye(3)
        emp = np.cov(xs.T, bias=True)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_sbn_support(self):
        m = mdl.make_sbn([0.4, 0.6], np.array([[1.0, -1.0], [0.5, 0.5]]), [0.0, 0.2])
        zs, xs = mdl.sample_joint(m, np.random.default_rng(0), 500)
        assert set(np.unique(zs)) <= {0.0, 1.0}
        assert set(np.unique(xs)) <= {0.0, 1.0}

    def test_poisson_mixture_support(self):
        zs, xs = mdl.sample_joint(poisson_mixture(), np.random.default_rng(0), 300)
        assert xs.dtype == np.int64
        assert np.all(xs >= 0)

    def test_empty(self):
        zs, xs = mdl.sample_joint(gmm_1d(), np.random.default_rng(0), 0)
        assert len(zs) == 0 and xs.shape == (0, 1)

    @pytest.mark.parametrize(
        "kind, want_z, want_x",
        [
            (
                "gmm",
                [2, 1, 1, 2, 2, 0],
                [
                    [4.430675458970213, -1.1180625938559148],
                    [1.8102855742952833, 0.7508434731539183],
                    [0.6397595539314624, -0.7313225212292476],
                    [3.4461414824363663, 0.5710658934432078],
                    [4.024456201534767, -0.5944059260237036],
                    [-3.973277923926064, 0.38287858715118617],
                ],
            ),
            ("poisson", [1, 0, 0, 1, 1, 0], [[20, 0], [0, 4], [3, 6], [35, 0], [20, 0], [2, 6]]),
            (
                "sbn",
                [[0, 1], [0, 0], [0, 1], [1, 1], [0, 1], [0, 0]],
                [[1, 0, 1], [1, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]],
            ),
        ],
    )
    def test_seeded_stream_is_pinned(self, kind, want_z, want_x):
        # Values drawn one row at a time, before sampling was batched; the
        # batched draws must take the same values from the generator, so
        # seeded datasets stay byte-identical. A rate of 30 exercises the
        # Poisson sampler's rejection branch.
        model = {
            "gmm": lambda: mdl.make_ef_mixture(
                fam.gaussian_diag_cov(2),
                [0.2, 0.3, 0.5],
                np.array([[-3.0, 1.0, 0.5, 2.0], [0.0, 0.0, 1.0, 1.0], [4.0, -2.0, 0.25, 3.0]]),
            ),
            "poisson": lambda: mdl.make_ef_mixture(
                fam.poisson_product(2), [0.4, 0.6], np.array([[1.5, 7.0], [30.0, 0.8]])
            ),
            "sbn": lambda: mdl.make_sbn(
                [0.3, 0.6], np.array([[1.5, -1.0], [-2.0, 0.5], [0.7, 1.8]]), [0.2, -0.3, 0.1]
            ),
        }[kind]()
        zs, xs = mdl.sample_joint(model, np.random.default_rng(2024), 6)
        np.testing.assert_array_equal(zs, want_z)
        np.testing.assert_array_equal(xs, want_x)
        assert xs.dtype == (np.int64 if kind == "poisson" else np.float64)


class TestReplaceParams:
    def test_round_trip(self):
        m = gmm_1d()
        m2 = mdl.replace_params(m, psi=[0.3], theta=m.noise.params * 1.5)
        np.testing.assert_allclose(mdl.mixture_weights(m2), [0.3, 0.7])
        np.testing.assert_allclose(m2.noise.params, m.noise.params * 1.5)
        # Original untouched.
        np.testing.assert_allclose(mdl.mixture_weights(m), [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mdl.replace_params(gmm_1d(), psi=[0.3, 0.2])
