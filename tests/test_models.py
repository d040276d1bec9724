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
    assert_jvp_is_the_jacobian_product,
    bernoulli_prior_reference,
    categorical_prior_jacobian_reference,
    finite_difference_gradient,
    mixture_eta_jacobian_reference,
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


def jacobian_values(model):
    """L P, the values of one latent state's criterion Jacobian."""
    support = model.latent_support
    z = support.states[:1] if isinstance(support, mdl.FiniteStates) else np.zeros((1, support.dim))
    return mdl.jacobian_eta(model, z)[0].size


class TestConstructors:
    def test_symmetric_gmm(self):
        m = gmm_1d()
        np.testing.assert_allclose(mdl.constructor_args(m)["weights"], [0.5, 0.5])
        assert m.latent_support.n_states == 2

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
        args = mdl.constructor_args(m)
        np.testing.assert_allclose(args["w"], w)
        assert args["sigma2"] == 1.0 and args["tau"] == 1.0

    def test_ppca_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            mdl.make_ppca(np.array([[1.0], [0.0]]), np.zeros(2), 0.0)

    def test_simple_fa_valid(self):
        m = mdl.make_simple_fa([3.0, 4.0], 1.0, [0.5, 2.0])
        args = mdl.constructor_args(m)
        np.testing.assert_allclose(args["w"], [0.6, 0.8])  # normalized loading
        np.testing.assert_allclose(args["sigma2s"], [0.5, 2.0])

    def test_sbn_fixture_and_random(self):
        assert mdl.constructor_args(simple_sbn())["offsets_free"] is False
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
        assert mdl.constructor_args(m) == {"pi": 0.3, "v": 2.0}
        with pytest.raises(DomainError):
            mdl.make_rigid_sbn(0.0, 1.0)


# A valid standard-parameter row of each component family, in dimension d.
_COMPONENT_DRAWS = {
    "bernoulli_product": lambda rng, d: rng.uniform(0.05, 0.95, size=d),
    "gaussian_scalar_var": lambda rng, d: np.append(rng.normal(0, 3, size=d), rng.lognormal()),
    "gaussian_diag_cov": lambda rng, d: np.append(
        rng.normal(0, 3, size=d), rng.lognormal(size=d)
    ),
    "gamma": lambda rng, d: rng.lognormal(size=2),
    "poisson_product": lambda rng, d: rng.lognormal(size=d),
}


def random_model(kind, rng):
    """A model of kind built by its constructor from random valid arguments
    and shapes; "sbn-fixed-offsets" is an SBN with offsets_free=False."""
    d, h = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    if kind == "ef_mixture":
        name = str(rng.choice(sorted(_COMPONENT_DRAWS)))
        family = fam.gamma_family() if name == "gamma" else getattr(fam, name)(d)
        c = int(rng.integers(1, 4))
        rows = [_COMPONENT_DRAWS[name](rng, family.data_dim) for _ in range(c)]
        return mdl.make_ef_mixture(family, rng.dirichlet(np.ones(c)), rows)
    if kind == "ppca":
        w, mu = rng.normal(size=(d, h)), rng.normal(size=d)
        return mdl.make_ppca(w, mu, rng.lognormal(), tau=rng.lognormal())
    if kind == "simple_fa":
        return mdl.make_simple_fa(rng.normal(size=d), rng.lognormal(), rng.lognormal(size=d))
    if kind.startswith("sbn"):
        pi, w, mu = rng.uniform(0.05, 0.95, size=h), rng.normal(size=(d, h)), rng.normal(size=d)
        return mdl.make_sbn(pi, w, mu, offsets_free=kind == "sbn")
    return mdl.make_rigid_sbn(rng.uniform(0.05, 0.95), rng.normal())


class TestCollapsedComponent:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "family, row",
        [
            (fam.bernoulli_product(2), [0.3, 0.6]),
            (fam.poisson_product(2), [1.0, 4.0]),
            (fam.gaussian_scalar_var(1), [0.0, 1.0]),
            (fam.gaussian_diag_cov(1), [0.0, 1.0]),
            (fam.gamma_family(), [2.0, 3.0]),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_a_non_finite_coordinate_is_flagged(self, family, row, bad):
        # The mixture M-step's only domain check: a flagged row is refused.
        # An infinite coordinate can put the other row within rounding of the
        # edge too, relative to an infinite weighted mean, and name it first.
        for coord in range(len(row)):
            rows = np.array([row, row])
            rows[1, coord] = bad
            flagged = mdl.collapsed_component(family, rows, np.array([0.5, 0.5]))
            assert flagged == 1 if math.isnan(bad) else flagged is not None


class TestConstructorArgs:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(
            ["ef_mixture", "ppca", "simple_fa", "sbn", "sbn-fixed-offsets", "rigid_sbn"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_constructor_rebuilds_the_model(self, kind, seed):
        model = random_model(kind, np.random.default_rng(seed))
        args = mdl.constructor_args(model)
        rebuilt = mdl.CONSTRUCTORS[model.model_kind](**args)
        assert rebuilt.model_kind == model.model_kind
        assert type(rebuilt.latent_support) is type(model.latent_support)
        # The constructors renormalize mixture weights and FA loadings.
        for got, want in [(rebuilt.prior, model.prior), (rebuilt.noise, model.noise)]:
            assert got.params.shape == want.params.shape
            np.testing.assert_allclose(got.params, want.params, rtol=0, atol=1e-15)
        if kind.startswith("sbn"):
            assert args["offsets_free"] is (kind == "sbn")
            # Fixed offsets live in eta alone; they come back exactly.
            z = np.zeros((1, model.prior.params.size))
            offsets = [m.noise.eta(z, m.noise.params) for m in (rebuilt, model)]
            np.testing.assert_array_equal(*offsets)

    def test_a_custom_model_is_not_rebuilt(self):
        custom = replace(gmm_1d(), model_kind="custom")
        with pytest.raises(UnsupportedModelError, match="custom"):
            mdl.constructor_args(custom)


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

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_COMPONENT_DRAWS)),
        d=st.integers(1, 4),
        c=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixture_vjp_contracts_the_dense_jacobian(self, name, d, c, seed):
        # Every state's J^T g lands in its own component's columns, and
        # repeated states add up.
        rng = np.random.default_rng(seed)
        family = fam.gamma_family() if name == "gamma" else getattr(fam, name)(d)
        rows = [_COMPONENT_DRAWS[name](rng, family.data_dim) for _ in range(c)]
        model = mdl.make_ef_mixture(family, np.full(c, 1.0 / c), rows)
        model = mdl.replace_params(model, *mdl._random_params(model, rng))
        zs = np.concatenate([np.arange(c), rng.integers(0, c, size=2 * c + 3)])
        g = rng.normal(size=(zs.size, family.natural_dim))
        jac = mixture_eta_jacobian_reference(zs, model.noise.params, family, c)
        want = np.einsum("slp,sl->p", jac, g)
        scale = np.einsum("slp,sl->p", np.abs(jac), np.abs(g))
        got = mdl.vjp_eta(model, zs, g)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 6),
        d=st.integers(1, 5),
        offsets_free=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sbn_jvp_equals_the_jacobian_product(self, h, d, offsets_free, seed):
        rng = np.random.default_rng(seed)
        pi = rng.uniform(0.01, 0.99, size=h)
        model = mdl.make_sbn(pi, rng.normal(size=(d, h)), rng.normal(size=d), offsets_free)
        zs = np.vstack([mdl.enumerate_binary_states(h), rng.normal(size=(4, h))])
        theta = model.noise.params + rng.normal(size=model.noise.params.size)
        assert_jvp_is_the_jacobian_product(model, zs, theta, rng)
        if offsets_free:  # eta is linear in theta: J_eta(z) theta is eta itself
            np.testing.assert_array_equal(
                mdl.jvp_eta(model, zs, theta, theta), model.noise.eta(zs, theta), strict=True
            )

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_COMPONENT_DRAWS)),
        d=st.integers(1, 4),
        c=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixture_jvp_equals_the_jacobian_product(self, name, d, c, seed):
        rng = np.random.default_rng(seed)
        family = fam.gamma_family() if name == "gamma" else getattr(fam, name)(d)
        rows = [_COMPONENT_DRAWS[name](rng, family.data_dim) for _ in range(c)]
        model = mdl.make_ef_mixture(family, np.full(c, 1.0 / c), rows)
        theta = mdl._random_params(model, rng)[1]
        zs = np.concatenate([np.arange(c), rng.integers(0, c, size=2 * c + 3)])
        assert_jvp_is_the_jacobian_product(model, zs, theta, rng)

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

    def test_specs_require_their_jacobians_and_witnesses(self):
        family, params, subset = fam.bernoulli_product(1), np.array([0.5]), np.array([0])
        with pytest.raises(TypeError):
            mdl.PriorSpec(family, params, lambda p: p)
        with pytest.raises(TypeError):
            mdl.PriorSpec(family, params, lambda p: p, lambda p: np.eye(1))
        with pytest.raises(TypeError):
            mdl.NoiseSpec(family, params, subset, lambda z, t: t * z)
        with pytest.raises(TypeError):
            mdl.NoiseSpec(family, params, subset, lambda z, t: t * z, lambda z, t, v: z * v)


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

    @pytest.mark.parametrize(
        "family",
        [
            fam.bernoulli_product(3),
            fam.categorical(4),
            fam.gaussian_scalar_var(2),
            fam.gaussian_diag_cov(2),
            fam.gamma_family(),
            fam.poisson_product(3),
        ],
        ids=lambda f: f.name,
    )
    def test_natural_witness_solves_each_family_jacobian(self, family):
        # A stack of rows, as make_ef_mixture's beta passes its components.
        rng = np.random.default_rng(0)
        d = family.data_dim
        rows = {
            "bernoulli_product": lambda: rng.uniform(0.01, 0.99, size=(5, d)),
            "categorical": lambda: rng.dirichlet(np.full(4, 0.5), size=5)[:, :-1],
            "gaussian_scalar_var": lambda: np.hstack(
                [rng.normal(0.0, 3.0, size=(5, d)), rng.lognormal(size=(5, 1))]
            ),
            "gaussian_diag_cov": lambda: np.hstack(
                [rng.normal(0.0, 3.0, size=(5, d)), rng.lognormal(size=(5, d))]
            ),
            "gamma": lambda: rng.lognormal(size=(5, 2)),
            "poisson_product": lambda: rng.lognormal(0.0, 2.0, size=(5, d)),
        }[family.name]()
        witness = mdl._natural_witness(family, rows)
        assert witness.shape == rows.shape
        jac = mdl._component_natural_jacobian(family, rows)
        np.testing.assert_allclose(
            np.einsum("slp,sp->sl", jac, witness),
            fam.to_natural(family, rows),
            rtol=1e-13,
            atol=1e-14,
        )

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

    def test_custom_model_with_hand_written_jacobians_passes(self):
        # Hand-assembled model: Bernoulli latent whose natural parameter is
        # psi^3, two Bernoulli observables with natural parameters
        # theta * (z, 2z), whose noise Jacobian (z, 2z) is stated by its
        # products. Both maps stay inside the column spaces of their own
        # Jacobians, with the witnesses alpha = psi / 3 and beta = theta, so
        # the check must pass.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1),
            np.array([0.7]),
            lambda p: p**3,
            lambda p: np.diag(3 * p**2),
            lambda p: p / 3.0,
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([1.3]),
            np.array([0]),
            lambda z, t: t[0] * np.column_stack([z[:, 0], 2.0 * z[:, 0]]),
            lambda z, t, v: np.column_stack([z[:, 0], 2.0 * z[:, 0]]) * v[0],
            lambda t: t,
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
        # space of its Jacobian (z, z): no beta fits, not even the
        # least-squares one, theta + 1/2, stated here.
        prior = mdl.PriorSpec(
            fam.bernoulli_product(1),
            np.array([0.5]),
            lambda p: np.log(p) - np.log1p(-p),
            lambda p: np.diag(1.0 / (p * (1.0 - p))),
            lambda p: p * (1.0 - p) * (np.log(p) - np.log1p(-p)),
        )
        noise = mdl.NoiseSpec(
            fam.bernoulli_product(2),
            np.array([0.0]),
            np.array([0]),
            lambda z, t: np.column_stack([t[0] * z[:, 0], (t[0] + 1.0) * z[:, 0]]),
            lambda z, t, v: np.column_stack([z[:, 0], z[:, 0]]) * v[0],
            lambda t: t + 0.5,
        )
        model = mdl.GenerativeModel(
            prior, noise, mdl.FiniteStates(mdl.enumerate_binary_states(1)), "custom"
        )
        report = mdl.check_criterion(model, seed=0)
        assert not report.passes
        assert report.noise_residual >= 0.1


class TestCriterionCost:
    def test_sbn_enumerate_calls_no_linalg_solver(self, monkeypatch):
        # H = 8 latents and D = 12 observables, the sbn-enumerate benchmark
        # size: the witnesses are evaluated, never solved for.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=8), rng.normal(size=(12, 8)), rng.normal(size=12)
        )
        for name in ("lstsq", "svd", "qr", "pinv", "solve"):

            def forbidden(*args, _name=name, **kwargs):
                raise AssertionError(f"np.linalg.{_name} called")

            monkeypatch.setattr(np.linalg, name, forbidden)
        assert mdl.check_criterion(model, seed=0).passes

    @pytest.mark.parametrize(
        "model, passes",
        [
            (mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU), True),
            (mdl.make_sbn(SBN8_PI, SBN8_W, offsets_free=False), True),
            (mdl.make_sbn(SBN8_PI, SBN8_W, SBN8_MU, offsets_free=False), False),
            (gmm_1d(), True),
            (gamma_mixture(), True),
            (poisson_mixture(), True),
            (mdl.make_ppca(np.array([[0.9], [-0.3], [0.2]]), np.zeros(3), 0.7), True),
            (mdl.make_simple_fa([0.6, -0.8], 1.0, [0.9, 1.8]), True),
            (mdl.make_rigid_sbn(0.5, 0.0), False),
        ],
        ids=[
            "sbn", "sbn-fixed-zero", "sbn-fixed-mu", "gmm", "gamma_mix", "poisson_mix",
            "ppca", "simple_fa", "rigid_sbn",
        ],
    )
    def test_sbns_and_mixtures_form_no_jacobian(self, model, passes, monkeypatch):
        # Every kind's eta_jvp gives J_eta(z) beta; a fixed non-zero offset
        # and the tied weights still fail.
        def forbidden(*args, **kwargs):
            raise AssertionError("models.jacobian_eta called")

        monkeypatch.setattr(mdl, "jacobian_eta", forbidden)
        assert mdl.check_criterion(model, seed=0).passes is passes

    def test_h12_d20_sbn_check_fits_in_32_mb(self):
        # 4096 states, 20 observables, 260 parameters: the (S, L, P)
        # Jacobian over all states would take 170 MB. The check forms none
        # of it: the SBN's eta_jvp gives J_eta(z) beta.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=12), rng.normal(size=(20, 12)), rng.normal(size=20)
        )
        tracemalloc.start()
        try:
            report = mdl.check_criterion(model, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passes
        assert peak <= 32 * 2**20

    def test_h12_d20_sbn_check_peaks_below_5_mb(self):
        # Jacobian chunks of 256 states (5200 values each) took 10.6 MB
        # each, for a 12.6 MB peak; chunks of at most 2^17 values (1 MB)
        # peaked at 2.3 MB. Without a Jacobian the states, eta, the fitted
        # rows and their residual (0.4, 0.7, 0.7 and 0.7 MB) make a 1.9 MB
        # peak.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=12), rng.normal(size=(20, 12)), rng.normal(size=20)
        )
        assert jacobian_values(model) == 20 * 260
        tracemalloc.start()
        try:
            report = mdl.check_criterion(model, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passes
        assert peak < 5 * 2**20, peak

    def test_h12_d20_sbn_check_keeps_one_grid_point_at_a_time(self):
        # Each grid point's fitted rows and eta (0.7 MB each here) go before
        # the next point's eta is built: 1.9 MB traced; keeping the previous
        # point's while building the next takes 2.6 MB (2.9 MB with chunked
        # Jacobians).
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(
            rng.uniform(0.2, 0.8, size=12), rng.normal(size=(20, 12)), rng.normal(size=20)
        )
        tracemalloc.start()
        try:
            report = mdl.check_criterion(model, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passes
        assert peak < 2.3 * 2**20, peak


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
        np.testing.assert_allclose(mdl.constructor_args(m2)["weights"], [0.3, 0.7])
        np.testing.assert_allclose(m2.noise.params, m.noise.params * 1.5)
        # Original untouched.
        np.testing.assert_allclose(mdl.constructor_args(m)["weights"], [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mdl.replace_params(gmm_1d(), psi=[0.3, 0.2])
