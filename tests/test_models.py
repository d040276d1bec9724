"""Model zoo: constructors, Jacobians, criterion checker, ancestral sampling."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen import families as fam
from efgen import models as mdl
from efgen.errors import DomainError, UnsupportedModelError

from helpers import (
    SBN8_MU,
    SBN8_PI,
    SBN8_W,
    bernoulli_prior_reference,
    categorical_prior_jacobian_reference,
    dense_lstsq,
    finite_difference_gradient,
    sbn_eta_jacobian_reference,
)


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
            (simple_sbn(), list(mdl.enumerate_binary_states(1))),
            (mdl.make_rigid_sbn(0.5, 1.5), list(mdl.enumerate_binary_states(1))),
        ],
        ids=["gmm", "gamma_mix", "poisson_mix", "ppca", "fa", "sbn", "sbn_fixed", "rigid"],
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
        # Vector-Jacobian product over all of theta: the gradient of <g, eta>.
        g = np.random.default_rng(0).normal(size=(len(zs), model.noise.family.natural_dim))
        if model.model_kind in ("ppca", "simple_fa"):
            # Their criterion subset leaves out the means, and they have no
            # eta_vjp: GaussianObjective supplies their gradient instead.
            with pytest.raises(UnsupportedModelError):
                mdl.vjp_eta(model, zs, g)
            return
        fd = finite_difference_gradient(lambda t: np.sum(g * model.noise.eta(zs, t)), theta)
        np.testing.assert_allclose(mdl.vjp_eta(model, zs, g), fd, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 6),
        d=st.integers(1, 5),
        offsets_free=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sbn_jacobians_equal_the_two_part_reference(self, h, d, offsets_free, seed):
        rng = np.random.default_rng(seed)
        pi = rng.uniform(0.01, 0.99, size=h)
        model = mdl.make_sbn(pi, rng.normal(size=(d, h)), rng.normal(size=d), offsets_free)
        zs = np.vstack([mdl.enumerate_binary_states(h), rng.normal(size=(4, h))])
        theta = model.noise.params + rng.normal(size=model.noise.params.size)
        np.testing.assert_array_equal(
            mdl.jacobian_eta(model, zs, theta),
            sbn_eta_jacobian_reference(zs, d, offsets_free),
            strict=True,
        )
        zeta, jac = bernoulli_prior_reference(model.prior.params)
        np.testing.assert_array_equal(model.prior.zeta(model.prior.params), zeta, strict=True)
        np.testing.assert_array_equal(mdl.jacobian_zeta(model), jac, strict=True)

    @settings(max_examples=30, deadline=None)
    @given(c=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_categorical_prior_jacobian_equals_the_reference(self, c, seed):
        weights = np.random.default_rng(seed).dirichlet(np.ones(c))
        model = mdl.make_ef_mixture(fam.poisson_product(1), weights, np.ones((c, 1)))
        np.testing.assert_array_equal(
            mdl.jacobian_zeta(model),
            categorical_prior_jacobian_reference(model.prior.params),
            strict=True,
        )

    def test_sbn_jacobian_allocates_only_its_output(self):
        model = mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU)
        states = model.latent_support.states
        mdl.jacobian_eta(model, states)  # first-call allocations are not the Jacobian's
        tracemalloc.start()
        try:
            jac = mdl.jacobian_eta(model, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert jac.shape == (256, 12, 108)
        assert peak <= 1.1 * jac.nbytes

    def test_specs_require_their_jacobians(self):
        with pytest.raises(TypeError):
            mdl.PriorSpec(fam.bernoulli_product(1), np.array([0.5]), lambda p: p)
        with pytest.raises(TypeError):
            mdl.NoiseSpec(
                fam.bernoulli_product(1), np.array([0.5]), np.array([0]), lambda z, t: t * z
            )


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
        # The block solver's worst residual over a grid does not depend on
        # the order of the grid points or of the stacked latent states.
        model = mdl.make_sbn([0.3], np.array([[0.5], [1.5], [-0.7]]), [0.2, 0.0, -0.1])
        rng = np.random.default_rng(5)
        thetas = [model.noise.params] + [
            model.noise.params + rng.normal(size=model.noise.params.size) for _ in range(5)
        ]
        zs = mdl.enumerate_binary_states(1)

        def worst(thetas, zs):
            solve = mdl._BlockLstsq()
            residuals = []
            for theta in thetas:
                jac = mdl.jacobian_eta(model, zs, theta)
                res, _ = solve(jac.reshape(-1, jac.shape[-1]), model.noise.eta(zs, theta).ravel())
                residuals.append(res)
            return max(residuals)

        assert worst(thetas, zs) == pytest.approx(worst(thetas[::-1], zs[::-1]), abs=1e-12)

    def test_custom_model_with_hand_written_jacobians_passes(self):
        # Hand-assembled model: Bernoulli latent whose natural parameter is
        # psi^3, two Bernoulli observables with natural parameters
        # theta * (z, 2z). Both maps stay inside the column spaces of their
        # own Jacobians, so the check must pass.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1), np.array([0.7]), lambda p: p**3, lambda p: np.diag(3 * p**2)
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([1.3]),
            np.array([0]),
            lambda z, t: t[0] * np.column_stack([z[:, 0], 2.0 * z[:, 0]]),
            lambda z, t: np.column_stack([z[:, 0], 2.0 * z[:, 0]])[:, :, None],
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
        # Same skeleton but eta = (theta*z, theta*z + z) leaves the column
        # space of its Jacobian (z, z): the check must expose the failure.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1),
            np.array([0.5]),
            lambda p: np.log(p) - np.log1p(-p),
            lambda p: np.diag(1.0 / (p * (1.0 - p))),
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([0.0]),
            np.array([0]),
            lambda z, t: np.column_stack([t[0] * z[:, 0], (t[0] + 1.0) * z[:, 0]]),
            lambda z, t: np.column_stack([z[:, 0], z[:, 0]])[:, :, None],
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(1)), "custom"
        )
        report = mdl.check_criterion(model, seed=0)
        assert not report.passes
        assert report.noise_residual >= 0.1


_ENTRY = st.integers(-3, 3).map(float)


def _matrix(draw, m, n):
    return np.array(
        draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=m, max_size=m)),
        dtype=float,
    ).reshape(m, n)


@st.composite
def block_systems(draw):
    """(a, b) with a block-diagonal up to shuffled rows and columns.

    Blocks have unequal shapes and small integer entries, so rank deficiency
    is exact: a block may get a last column equal to the sum of the others.
    All-zero rows and columns ride along.
    """
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 4)), min_size=1, max_size=4)
    )
    blocks = []
    for m, n in shapes:
        block = _matrix(draw, m, n)
        if n > 1 and draw(st.booleans()):
            block[:, -1] = block[:, :-1].sum(axis=1)
        blocks.append(block)
    m = sum(blk.shape[0] for blk in blocks) + draw(st.integers(0, 2))
    n = sum(blk.shape[1] for blk in blocks) + draw(st.integers(0, 2))
    a = np.zeros((m, n))
    r = c = 0
    for blk in blocks:
        a[r : r + blk.shape[0], c : c + blk.shape[1]] = blk
        r, c = r + blk.shape[0], c + blk.shape[1]
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(n)))
    b = np.array(draw(st.lists(_ENTRY, min_size=m, max_size=m)))
    return a[np.ix_(rows, cols)], b


class TestBlockLstsq:
    @settings(max_examples=200, deadline=None)
    @given(system=block_systems())
    def test_matches_dense_lstsq(self, system):
        a, b = system
        res, rank = mdl._BlockLstsq()(a, b)
        dense_res, dense_rank = dense_lstsq(a, b)
        assert abs(res - dense_res) <= 1e-12
        assert rank == dense_rank

    @settings(max_examples=200, deadline=None)
    @given(system=block_systems(), data=st.data())
    def test_grid_points_merge_and_reuse_the_partition(self, system, data):
        a, b = system
        # The grid's two points share a shape; the second one's extra rows
        # are all-zero at the first.
        extra = _matrix(data.draw, data.draw(st.integers(1, 2)), a.shape[1])
        a1 = np.vstack([a, np.zeros_like(extra)])
        a2 = np.vstack([a, extra])
        b2 = np.concatenate([b, _matrix(data.draw, len(extra), 1).ravel()])
        solve = mdl._BlockLstsq()
        solve(a1, b2)
        first = solve.labels
        res, rank = solve(a2, b2)
        labels = solve.labels
        dense_res, dense_rank = dense_lstsq(a2, b2)
        assert abs(res - dense_res) <= 1e-12
        assert rank == dense_rank
        # The merged partition is coarser than the first point's, and no row
        # of the second point crosses it.
        assert np.array_equal(labels[first], labels)
        for row in a2:
            assert len(set(labels[row != 0.0])) <= 1
        # A third point whose nonzeros are a subset of the second's keeps
        # the blocks; it may zero whole rows and columns.
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=a2.size, max_size=a2.size)))
        a3 = a2 * keep.reshape(a2.shape)
        res, rank = solve(a3, b2)
        dense_res, dense_rank = dense_lstsq(a3, b2)
        assert abs(res - dense_res) <= 1e-12
        assert rank == dense_rank
        assert np.array_equal(solve.labels, labels)

    def test_merge_follows_the_earlier_partition(self):
        a1 = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        solve = mdl._BlockLstsq()
        solve(a1, np.ones(3))
        assert solve.labels.tolist() == [0, 0, 2, 2]
        # Only the middle row touches two columns; columns 0 and 3 join
        # through the first point's blocks.
        a2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        res, rank = solve(a2, np.array([1.0, 2.0, 3.0]))
        assert solve.labels.tolist() == [0, 0, 0, 0]
        assert rank == 3 and res == pytest.approx(0.0, abs=1e-15)

    def test_all_zero_rows_keep_their_targets(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        res, rank = mdl._BlockLstsq()(a, np.array([3.0, 5.0, 4.0]))
        assert res == 5.0 and rank == 1
        # A one-component mixture's prior has no parameters at all.
        res, rank = mdl._BlockLstsq()(np.zeros((2, 0)), np.array([3.0, 4.0]))
        assert res == 5.0 and rank == 0


class TestCriterionSolves:
    def test_sbn_enumerate_solves_no_system_taller_than_the_states(self, monkeypatch):
        # H = 8 latents and D = 12 observables: 256 states and a 3072 x 108
        # stacked noise Jacobian whose rows each touch one observable's
        # 9 columns.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=8), rng.normal(size=(12, 8)), rng.normal(size=12)
        )
        heights = []
        for name in ("lstsq", "svd", "qr", "pinv"):

            def recording(a, *args, _solver=getattr(np.linalg, name), **kwargs):
                heights.append(np.shape(a)[-2])
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        report = mdl.check_criterion(model, seed=0)
        assert report.passes
        assert heights and max(heights) <= 256

    def test_rank_deficient_prior_jacobian_warns(self):
        # zeta(psi) = (psi_0 + psi_1) (1, 1): a rank-one 2 x 2 Jacobian whose
        # column space still holds zeta.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(2),
            np.array([0.3, 0.4]),
            lambda p: np.full(2, p.sum()),
            lambda p: np.ones((2, 2)),
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(1),
            np.array([0.5]),
            np.array([0]),
            lambda z, t: t[0] * z[:, :1],
            lambda z, t: z[:, :1, None],
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(2)), "custom"
        )
        with pytest.warns(RuntimeWarning, match="prior Jacobian rank-deficient \\(rank 1\\)"):
            report = mdl.check_criterion(model, seed=0)
        assert report.passes

    def test_rank_deficient_noise_jacobian_warns(self):
        # At z = 0 every weight column of the SBN Jacobian vanishes; only the
        # two offsets remain.
        model = mdl.make_sbn([0.4, 0.7], np.array([[0.5, -1.0], [1.2, 0.3]]), [0.1, -0.4])
        model = replace(model, latent_support=mdl.FiniteStates(np.zeros((3, 2))))
        with pytest.warns(RuntimeWarning, match="noise Jacobian rank-deficient \\(rank 2\\)"):
            report = mdl.check_criterion(model, seed=0)
        assert report.passes


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
