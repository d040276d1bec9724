"""Generative models: prior + noise family composition and the criterion test.

A :class:`GenerativeModel` pairs a prior exponential family (with a map from
trainable prior parameters to natural parameters) and a noise family (with a
map from latent value and noise parameters to natural parameters). The zoo
covers exponential-family mixtures, linear-Gaussian latent models (isotropic
and diagonal observation noise), sigmoid belief nets with Bernoulli latents
and observables, and a deliberately broken SBN variant whose tied weights
admit no shared coefficient vector.

Noise maps work on stacks of latent states: eta(Z, theta) takes an (S,)
array of component indices (mixtures) or an (S, H) array of latent vectors
and returns the (S, L) natural parameters, and its Jacobian is (S, L, P)
over the P criterion parameters. Mixtures index rows of their component
naturals; the linear models compute Z W^T + mu. vjp_eta contracts the
Jacobian over all of theta with per-state weights, which is the ELBO
gradient's noise part.

The parameterization check asks, numerically, whether the natural-parameter
vectors lie in the column spaces of their own Jacobians: the prior map must
satisfy zeta(psi) = J_zeta(psi) alpha(psi) pointwise, and the noise map must
admit ONE coefficient vector beta(theta), independent of the latent value,
with eta(z; theta) = J_eta(z; theta) beta(theta) across all tested z. Both
parts are resolved as least-squares residuals on parameter grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from . import families as fam
from .errors import CriterionSampleError, DomainError
from .families import FamilyDescriptor

__all__ = [
    "SBN_ENUMERATION_CAP",
    "FiniteStates",
    "RealVector",
    "PriorSpec",
    "NoiseSpec",
    "GenerativeModel",
    "CriterionReport",
    "MixtureInfo",
    "LinearGaussianInfo",
    "SbnInfo",
    "RigidSbnInfo",
    "enumerate_binary_states",
    "make_ef_mixture",
    "make_ppca",
    "make_simple_fa",
    "make_sbn",
    "make_rigid_sbn",
    "mixture_weights",
    "mixture_component_params",
    "ppca_components",
    "fa_components",
    "sbn_components",
    "rigid_sbn_components",
    "replace_params",
    "jacobian_zeta",
    "jacobian_eta",
    "vjp_eta",
    "check_criterion",
    "sample_joint",
]

# Exact enumeration of 2^H binary latent states is used downstream; this cap
# keeps posteriors and objective terms exactly computable.
SBN_ENUMERATION_CAP = 14


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FiniteStates:
    """Finite latent support: 1-D int states (mixtures) or binary rows (SBN)."""

    states: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RealVector:
    dim: int


LatentSupport = Union[FiniteStates, RealVector]


@dataclass(frozen=True)
class PriorSpec:
    family: FamilyDescriptor
    params: np.ndarray  # trainable prior parameter vector psi
    zeta: Callable[[np.ndarray], np.ndarray]
    zeta_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class NoiseSpec:
    family: FamilyDescriptor
    params: np.ndarray  # trainable noise parameter vector theta (flat)
    theta_subset: np.ndarray  # indices into theta used for the criterion Jacobian
    eta: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states, theta) -> (S, L)
    eta_jacobian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None  # (S, L, P)
    # (states, theta, G (S, L)) -> sum_s J_eta(z_s)^T G_s over all of theta, (P_all,)
    eta_vjp: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class MixtureInfo:
    n_components: int
    component_family: FamilyDescriptor


@dataclass(frozen=True)
class LinearGaussianInfo:
    data_dim: int
    latent_dim: int


@dataclass(frozen=True)
class SbnInfo:
    n_latents: int
    data_dim: int
    offsets_free: bool
    fixed_offsets: Optional[np.ndarray] = None


@dataclass(frozen=True)
class RigidSbnInfo:
    pass


@dataclass(frozen=True)
class GenerativeModel:
    prior: PriorSpec
    noise: NoiseSpec
    latent_support: LatentSupport
    model_kind: str  # ef_mixture | ppca | simple_fa | sbn | rigid_sbn | custom
    info: object = None


@dataclass(frozen=True)
class CriterionReport:
    """Grid residuals of the column-space membership test."""

    prior_residual: float
    noise_residual: float
    passes: bool
    tested_points: int
    threshold: float


def enumerate_binary_states(h: int) -> np.ndarray:
    """All 2^h binary vectors, bit 0 fastest; shape (2^h, h)."""
    idx = np.arange(2**h)
    return ((idx[:, None] >> np.arange(h)) & 1).astype(float)


# ---------------------------------------------------------------------------
# Component natural-map Jacobians (standard params -> natural params).


def _component_natural_jacobian(family: FamilyDescriptor, params: np.ndarray) -> np.ndarray:
    """Jacobians of to_natural at parameter rows (..., P), shape (..., L, P)."""
    name = family.name
    d = family.data_dim
    if name == "bernoulli_product":
        p = params
        return np.eye(d) * (1.0 / (p * (1.0 - p)))[..., None, :]
    if name == "gaussian_scalar_var":
        mu, s2 = params[..., :-1], params[..., -1:]
        jac = np.zeros(params.shape[:-1] + (2 * d, d + 1))
        jac[..., :d, :d] = np.eye(d) / s2[..., None]
        jac[..., :d, d] = -mu / s2**2
        jac[..., d:, d] = 0.5 / s2**2
        return jac
    if name == "gaussian_diag_cov":
        mu, s2 = params[..., :d], params[..., d:]
        jac = np.zeros(params.shape[:-1] + (2 * d, 2 * d))
        jac[..., :d, :d] = np.eye(d) * (1.0 / s2)[..., None, :]
        jac[..., :d, d:] = np.eye(d) * (-mu / s2**2)[..., None, :]
        jac[..., d:, d:] = np.eye(d) * (0.5 / s2**2)[..., None, :]
        return jac
    if name == "gamma":
        return np.broadcast_to(np.array([[1.0, 0.0], [0.0, -1.0]]), params.shape[:-1] + (2, 2))
    if name == "poisson_product":
        return np.eye(d) * (1.0 / params)[..., None, :]
    raise ValueError(f"no analytic natural-map Jacobian for {name}")


def _affine_rows(w: np.ndarray, z: np.ndarray, mu) -> np.ndarray:
    """Z W^T + mu for an (S, H) stack of latent vectors.

    One matrix-vector product per row, in a single stacked matmul: unlike
    Z @ W.T, it rounds each row exactly as W @ z for that row alone.
    """
    return (w @ z[:, :, None])[:, :, 0] + mu


# ---------------------------------------------------------------------------
# Constructors.


def make_ef_mixture(
    component_family: FamilyDescriptor,
    weights,
    component_params,
) -> GenerativeModel:
    """Categorical latent over C components of one exponential family.

    weights is the full length-C probability vector (every entry positive,
    summing to one); component_params is a (C, standard_dim) array.
    """
    weights = np.asarray(weights, dtype=float)
    c = weights.size
    if c < 1:
        raise DomainError("a mixture needs at least 1 component")
    if not np.all(weights > 0.0):
        raise DomainError("mixture weights must be strictly positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError("mixture weights must sum to 1")
    weights = weights / weights.sum()
    comp = np.asarray(component_params, dtype=float)
    ldim = fam.standard_dim(component_family)
    if comp.shape != (c, ldim):
        raise DomainError(
            f"component_params must have shape ({c}, {ldim}), got {comp.shape}"
        )
    fam.check_standard(component_family, comp)

    prior_family = fam.categorical(c)

    def zeta(psi):
        return fam.to_natural(prior_family, psi)

    def zeta_jac(psi):
        pi_last = 1.0 - psi.sum()
        return np.diag(1.0 / psi) + 1.0 / pi_last

    def eta(z, theta):
        rows = fam.to_natural(component_family, theta.reshape(c, ldim))
        return rows[np.asarray(z, dtype=int)]

    def eta_jac(z, theta):
        z = np.asarray(z, dtype=int)
        blocks = _component_natural_jacobian(component_family, theta.reshape(c, ldim))
        jac = np.zeros((z.size, component_family.natural_dim, c, ldim))
        jac[np.arange(z.size), :, z, :] = blocks[z]
        return jac.reshape(z.size, component_family.natural_dim, c * ldim)

    return GenerativeModel(
        prior=PriorSpec(prior_family, _frozen(weights[:-1]), zeta, zeta_jac),
        noise=NoiseSpec(
            component_family,
            _frozen(comp.ravel()),
            np.arange(c * ldim),
            eta,
            eta_jac,
        ),
        latent_support=FiniteStates(np.arange(c)),
        model_kind="ef_mixture",
        info=MixtureInfo(c, component_family),
    )


def _scalar_var_gaussian_prior(h: int):
    """Zero-mean Gaussian prior on R^h with a single trainable variance."""
    prior_family = fam.gaussian_scalar_var(h)

    def zeta(psi):
        tau = psi[0]
        if tau <= 0.0:
            raise DomainError("prior variance must be positive")
        return np.concatenate([np.zeros(h), np.full(h, -0.5 / tau)])

    def zeta_jac(psi):
        tau = psi[0]
        return np.concatenate([np.zeros(h), np.full(h, 0.5 / tau**2)])[:, None]

    return prior_family, zeta, zeta_jac


def _bernoulli_prior(h: int):
    """Independent Bernoulli latents on {0,1}^h, trained as probabilities."""
    prior_family = fam.bernoulli_product(h)

    def zeta(psi):
        if not np.all((psi > 0.0) & (psi < 1.0)):
            raise DomainError("latent probabilities must lie in the open (0,1)")
        return np.log(psi) - np.log1p(-psi)

    def zeta_jac(psi):
        return np.diag(1.0 / (psi * (1.0 - psi)))

    return prior_family, zeta, zeta_jac


def make_ppca(w, mu, sigma2: float, tau: float = 1.0) -> GenerativeModel:
    """Linear-Gaussian model with isotropic observation noise.

    z ~ N(0, tau I_H), x ~ N(W z + mu, sigma2 I_D). The criterion Jacobian
    uses the variance alone as its parameter subset.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise DomainError("w must be a (D, H) matrix")
    d, h = w.shape
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (d,):
        raise DomainError(f"mu must have shape ({d},)")
    if not sigma2 > 0.0:
        raise DomainError("sigma2 must be positive")
    if not tau > 0.0:
        raise DomainError("tau must be positive")

    prior_family, zeta, zeta_jac = _scalar_var_gaussian_prior(h)
    noise_family = fam.gaussian_scalar_var(d)
    n_w = d * h

    def eta(z, theta):
        mean = _affine_rows(theta[:n_w].reshape(d, h, order="F"), z, theta[n_w : n_w + d])
        s2 = theta[-1]
        return np.concatenate([mean / s2, np.full(mean.shape, -0.5 / s2)], axis=1)

    def eta_jac(z, theta):
        return (-1.0 / theta[-1]) * eta(z, theta)[:, :, None]

    theta = np.concatenate([w.ravel(order="F"), mu, [sigma2]])
    return GenerativeModel(
        prior=PriorSpec(prior_family, _frozen([tau]), zeta, zeta_jac),
        noise=NoiseSpec(
            noise_family, _frozen(theta), np.array([n_w + d]), eta, eta_jac
        ),
        latent_support=RealVector(h),
        model_kind="ppca",
        info=LinearGaussianInfo(d, h),
    )


def make_simple_fa(w, tau: float, sigma2s) -> GenerativeModel:
    """Single-latent factor analysis with diagonal observation noise.

    z ~ N(0, tau), x ~ N(w z, diag(sigma2s)) with the loading held at unit
    norm; the criterion Jacobian uses the D variances as its subset.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("w must be a vector with at least 2 entries")
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise DomainError("w must be nonzero")
    w = w / norm
    d = w.size
    sigma2s = np.asarray(sigma2s, dtype=float)
    if sigma2s.shape != (d,) or not np.all(sigma2s > 0.0):
        raise DomainError(f"sigma2s must be {d} positive variances")
    if not tau > 0.0:
        raise DomainError("tau must be positive")

    prior_family, zeta, zeta_jac = _scalar_var_gaussian_prior(1)
    noise_family = fam.gaussian_diag_cov(d)

    def eta(z, theta):
        s2, wv = theta[:d], theta[d:]
        mean_natural = wv * z[:, :1] / s2
        precision = np.broadcast_to(-0.5 / s2, mean_natural.shape)
        return np.concatenate([mean_natural, precision], axis=1)

    def eta_jac(z, theta):
        s2, wv = theta[:d], theta[d:]
        jac = np.zeros((len(z), 2 * d, d))
        jac[:, :d, :] = np.eye(d) * (-wv * z[:, :1] / s2**2)[:, None, :]
        jac[:, d:, :] = np.diag(0.5 / s2**2)
        return jac

    theta = np.concatenate([sigma2s, w])
    return GenerativeModel(
        prior=PriorSpec(prior_family, _frozen([tau]), zeta, zeta_jac),
        noise=NoiseSpec(noise_family, _frozen(theta), np.arange(d), eta, eta_jac),
        latent_support=RealVector(1),
        model_kind="simple_fa",
        info=LinearGaussianInfo(d, 1),
    )


def make_sbn(pi, w, mu=None, offsets_free: bool = True) -> GenerativeModel:
    """Sigmoid belief net: Bernoulli latents, Bernoulli observables.

    The noise natural parameters are W z + mu. With offsets_free=False the
    offsets are frozen constants excluded from the trainable noise vector;
    the single-latent two-observable fixture with mu = 0 uses that form.
    """
    pi = np.asarray(pi, dtype=float)
    h = pi.size
    if h > SBN_ENUMERATION_CAP:
        raise DomainError(f"latent count {h} exceeds enumeration cap {SBN_ENUMERATION_CAP}")
    if not np.all((pi > 0.0) & (pi < 1.0)):
        raise DomainError("latent probabilities must lie in the open (0,1)")
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] != h:
        raise DomainError(f"w must be a (D, {h}) matrix")
    d = w.shape[0]
    mu = np.zeros(d) if mu is None else np.asarray(mu, dtype=float)
    if mu.shape != (d,):
        raise DomainError(f"mu must have shape ({d},)")

    prior_family, zeta, zeta_jac = _bernoulli_prior(h)
    noise_family = fam.bernoulli_product(d)
    n_w = d * h

    def weight_jac(z):
        # d eta_i / d W[j, k] = z_k [i == j], columns in theta's order (k major).
        jac = z[:, None, :, None] * np.eye(d)[None, :, None, :]
        return jac.reshape(len(z), d, n_w)

    def eta_vjp(z, theta, g):
        # sum_s J_eta(z_s)^T g_s without forming J: G^T Z for W (theta's
        # order), and the column sums for free offsets.
        grad_w = (g.T @ z).ravel(order="F")
        return np.concatenate([grad_w, g.sum(axis=0)]) if offsets_free else grad_w

    if offsets_free:

        def eta(z, theta):
            return _affine_rows(theta[:n_w].reshape(d, h, order="F"), z, theta[n_w:])

        def eta_jac(z, theta):
            offsets = np.broadcast_to(np.eye(d), (len(z), d, d))
            return np.concatenate([weight_jac(z), offsets], axis=2)

        theta = np.concatenate([w.ravel(order="F"), mu])
        info = SbnInfo(h, d, True)
    else:
        fixed_mu = _frozen(mu)

        def eta(z, theta):
            return _affine_rows(theta.reshape(d, h, order="F"), z, fixed_mu)

        def eta_jac(z, theta):
            return weight_jac(z)

        theta = w.ravel(order="F")
        info = SbnInfo(h, d, False, fixed_mu)

    return GenerativeModel(
        prior=PriorSpec(prior_family, _frozen(pi), zeta, zeta_jac),
        noise=NoiseSpec(
            noise_family, _frozen(theta), np.arange(theta.size), eta, eta_jac, eta_vjp
        ),
        latent_support=FiniteStates(enumerate_binary_states(h)),
        model_kind="sbn",
        info=info,
    )


def make_rigid_sbn(pi: float, v: float) -> GenerativeModel:
    """Two-observable SBN whose weights are tied as (v, v+1).

    The tied offset makes the noise natural map leave the column space of its
    own one-column Jacobian, so the parameterization check must fail; kept as
    a checker fixture.
    """
    if not 0.0 < pi < 1.0:
        raise DomainError("pi must lie in the open (0,1)")

    prior_family, zeta, zeta_jac = _bernoulli_prior(1)
    noise_family = fam.bernoulli_product(2)

    def eta(z, theta):
        zv = z[:, 0]
        return np.stack([theta[0] * zv, (theta[0] + 1.0) * zv], axis=1)

    def eta_jac(z, theta):
        return np.repeat(z[:, None, :1], 2, axis=1)

    return GenerativeModel(
        prior=PriorSpec(prior_family, _frozen([pi]), zeta, zeta_jac),
        noise=NoiseSpec(noise_family, _frozen([v]), np.array([0]), eta, eta_jac),
        latent_support=FiniteStates(enumerate_binary_states(1)),
        model_kind="rigid_sbn",
        info=RigidSbnInfo(),
    )


# ---------------------------------------------------------------------------
# Structured parameter access.


def mixture_weights(model: GenerativeModel) -> np.ndarray:
    psi = model.prior.params
    return np.concatenate([psi, [1.0 - psi.sum()]])


def mixture_component_params(model: GenerativeModel) -> np.ndarray:
    info = model.info
    return model.noise.params.reshape(info.n_components, -1)


def ppca_components(model: GenerativeModel):
    """Returns (W, mu, sigma2, tau)."""
    d, h = model.info.data_dim, model.info.latent_dim
    theta = model.noise.params
    w = theta[: d * h].reshape(d, h, order="F")
    return w, theta[d * h : d * h + d], float(theta[-1]), float(model.prior.params[0])


def fa_components(model: GenerativeModel):
    """Returns (w, sigma2s, tau)."""
    d = model.info.data_dim
    theta = model.noise.params
    return theta[d:], theta[:d], float(model.prior.params[0])


def sbn_components(model: GenerativeModel):
    """Returns (pi, W, mu)."""
    info = model.info
    h, d = info.n_latents, info.data_dim
    theta = model.noise.params
    w = theta[: d * h].reshape(d, h, order="F")
    mu = theta[d * h :] if info.offsets_free else info.fixed_offsets
    return model.prior.params, w, mu


def rigid_sbn_components(model: GenerativeModel):
    """Returns (pi, v)."""
    return float(model.prior.params[0]), float(model.noise.params[0])


def replace_params(
    model: GenerativeModel, psi=None, theta=None
) -> GenerativeModel:
    """New model with the same structure and substituted parameter vectors."""
    prior = model.prior
    noise = model.noise
    if psi is not None:
        psi = np.asarray(psi, dtype=float)
        if psi.shape != prior.params.shape:
            raise ValueError("psi shape mismatch")
        prior = replace(prior, params=_frozen(psi))
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != noise.params.shape:
            raise ValueError("theta shape mismatch")
        noise = replace(noise, params=_frozen(theta))
    return replace(model, prior=prior, noise=noise)


# ---------------------------------------------------------------------------
# Jacobians.

_FD_REL_STEP = 1e-6


def _fd_jacobian(f, x) -> np.ndarray:
    """Central differences of f over x; a column of f's output per x entry.

    f may return a vector or a stack of rows, so one call per step covers
    every latent state.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = _FD_REL_STEP * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def jacobian_zeta(model: GenerativeModel, psi=None) -> np.ndarray:
    """Jacobian of the prior natural-parameter map, shape (K, R)."""
    psi = model.prior.params if psi is None else np.asarray(psi, dtype=float)
    if model.prior.zeta_jacobian is not None:
        return np.atleast_2d(np.asarray(model.prior.zeta_jacobian(psi), dtype=float))
    return _fd_jacobian(model.prior.zeta, psi)


def jacobian_eta(model: GenerativeModel, z, theta=None) -> np.ndarray:
    """Jacobians of the noise natural map w.r.t. the theta subset at a stack
    of latent states z, shape (S, L, P)."""
    theta = model.noise.params if theta is None else np.asarray(theta, dtype=float)
    z = np.asarray(z)
    if model.noise.eta_jacobian is not None:
        return np.asarray(model.noise.eta_jacobian(z, theta), dtype=float)
    subset = model.noise.theta_subset

    def f(sub):
        full = theta.copy()
        full[subset] = sub
        return model.noise.eta(z, full)

    return _fd_jacobian(f, theta[subset])


def vjp_eta(model: GenerativeModel, z, g) -> np.ndarray:
    """sum_s J_eta(z_s; theta)^T g_s over all of theta, for g of shape (S, L).

    Models with an eta_vjp contract without forming a Jacobian. Otherwise the
    criterion Jacobian is contracted when its subset is all of theta, and
    finite differences of eta over the full theta stand in when it is not.
    """
    theta = model.noise.params
    z = np.asarray(z)
    if model.noise.eta_vjp is not None:
        return np.asarray(model.noise.eta_vjp(z, theta, g), dtype=float)
    if np.array_equal(model.noise.theta_subset, np.arange(theta.size)):
        jac = jacobian_eta(model, z, theta)
    else:
        jac = _fd_jacobian(lambda full: model.noise.eta(z, full), theta)
    return np.einsum("slp,sl->p", jac, g)


# ---------------------------------------------------------------------------
# Criterion check.


def _random_params(model: GenerativeModel, rng: np.random.Generator):
    """Domain-valid random (psi, theta) near moderate scales, per model kind."""
    kind = model.model_kind
    if kind == "ef_mixture":
        info = model.info
        c = info.n_components
        logits = rng.normal(0.0, 0.7, size=c)
        pi = np.exp(logits - logits.max())
        pi = pi / pi.sum()
        psi = pi[:-1]
        rows = []
        name = info.component_family.name
        d = info.component_family.data_dim
        for _ in range(c):
            if name == "bernoulli_product":
                rows.append(1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.2, size=d))))
            elif name == "gaussian_scalar_var":
                rows.append(
                    np.concatenate([rng.normal(0.0, 2.0, size=d), [rng.lognormal(0.0, 0.5)]])
                )
            elif name == "gaussian_diag_cov":
                rows.append(
                    np.concatenate(
                        [rng.normal(0.0, 2.0, size=d), rng.lognormal(0.0, 0.5, size=d)]
                    )
                )
            elif name == "gamma":
                rows.append(rng.lognormal(0.5, 0.5, size=2))
            elif name == "poisson_product":
                rows.append(rng.lognormal(0.5, 0.6, size=d))
            else:
                raise ValueError(name)
        return psi, np.concatenate(rows)
    if kind in ("ppca", "simple_fa"):
        info = model.info
        psi = np.array([rng.lognormal(0.0, 0.4)])
        if kind == "ppca":
            d, h = info.data_dim, info.latent_dim
            theta = np.concatenate(
                [rng.normal(0.0, 1.0, size=d * h + d), [rng.lognormal(0.0, 0.4)]]
            )
        else:
            d = info.data_dim
            wv = rng.normal(0.0, 1.0, size=d)
            wv /= np.linalg.norm(wv)
            theta = np.concatenate([rng.lognormal(0.0, 0.4, size=d), wv])
        return psi, theta
    if kind in ("sbn", "rigid_sbn"):
        psi = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.0, size=model.prior.params.size)))
        theta = model.noise.params + rng.normal(0.0, 0.5, size=model.noise.params.size)
        return psi, theta
    # Unknown kinds: jitter around current parameters and hope the caller's
    # domain checks reject invalid draws.
    psi = model.prior.params + rng.normal(0.0, 0.3, size=model.prior.params.size)
    theta = model.noise.params + rng.normal(0.0, 0.3, size=model.noise.params.size)
    return psi, theta


def _default_z_samples(model: GenerativeModel, count: int, rng: np.random.Generator):
    support = model.latent_support
    if isinstance(support, FiniteStates):
        return support.states
    return rng.normal(0.0, 1.0, size=(count, support.dim))


_EPS = np.finfo(float).eps


def _relative(res: float, target: np.ndarray) -> float:
    return res / max(1.0, math.sqrt(target @ target))


def _merge_blocks(nonzero: np.ndarray, labels: np.ndarray):
    """Coarsen a column partition until no row's nonzeros cross it.

    labels[j] is the smallest column of column j's block. A row belongs to
    the block of its first nonzero; every nonzero outside that block joins
    the two blocks, and joined labels follow their links down to the
    smallest. Returns the merged labels and each row's block, with the
    column count standing for an all-zero row.
    """
    n = labels.size
    if n == 0:  # every row is all-zero
        return labels, np.zeros(len(nonzero), dtype=int)
    while True:
        row = labels[nonzero.argmax(axis=1)]
        crossing = nonzero & (labels != row[:, None])
        if not crossing.any():
            return labels, np.where(nonzero.any(axis=1), row, n)
        r, c = np.nonzero(crossing)
        ends = row[r], labels[c]
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        low = np.arange(n, dtype=labels.dtype)
        np.minimum.at(low, hi, lo)
        while True:
            root = low[low]
            if (root == low).all():
                break
            low = root
        labels = low[labels]


class _BlockLstsq:
    """Least-squares residual ||a x - b|| and rank of a, solved block by block.

    Called once per grid point, with systems of one shape. Columns fall into
    blocks that no row's nonzeros cross: the partition found at the first
    point, merged where a later point's nonzeros cross it. So each problem
    is block-diagonal up to a permutation, and its minimum is the sum of the
    blocks' minima. All blocks of one shape go to one batched SVD, each with
    lstsq's default cutoff eps * max(m, n) * sigma_max; all-zero rows leave
    their target entries in the residual. The gather plan is rebuilt only
    when the gathered blocks miss some nonzero of a, so a point that keeps
    the plan allocates no (m, n) array.
    """

    def __init__(self):
        self.labels = None  # labels[j]: the smallest column of column j's block
        self._groups = []  # (rows (g, m, 1), columns (g, 1, n), cutoff factor) per shape
        self._empty = None  # rows that no block holds

    def _gather(self, a: np.ndarray) -> list:
        return [a[rows, cols] for rows, cols, _ in self._groups]

    def __call__(self, a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
        gathered = self._gather(a)
        held = sum(np.count_nonzero(blk) for blk in gathered)
        if self.labels is None or held < np.count_nonzero(a):
            self._plan(a != 0.0)
            gathered = self._gather(a)
        empty = b[self._empty]
        square = float(empty @ empty)
        rank = 0
        for (rows, _, cutoff), blk in zip(self._groups, gathered):
            rhs = b[rows]
            u, s, _ = np.linalg.svd(blk, full_matrices=False)
            keep = s > cutoff * s[:, :1]
            rank += int(np.count_nonzero(keep))
            resid = rhs - u @ ((u.transpose(0, 2, 1) @ rhs) * keep[:, :, None])
            square += float(np.vdot(resid, resid))
        return math.sqrt(square), rank

    def _plan(self, nonzero: np.ndarray) -> None:
        m, n = nonzero.shape
        if self.labels is None:
            self.labels = np.arange(n, dtype=np.min_scalar_type(n))
        self.labels, row = _merge_blocks(nonzero, self.labels)
        rows_in = np.bincount(row, minlength=n + 1)
        cols_in = np.bincount(self.labels, minlength=n)
        # Rows and columns sorted by block; all-zero rows (block n) come last.
        row_order = np.argsort(row, kind="stable")
        col_order = np.argsort(self.labels, kind="stable")
        row_start = np.cumsum(rows_in) - rows_in
        col_start = np.cumsum(cols_in) - cols_in
        blocks = np.flatnonzero(rows_in[:n])  # a block with no rows fits nothing
        shapes = list(zip(rows_in[blocks].tolist(), cols_in[blocks].tolist()))
        self._groups = []
        for m_k, n_k in sorted(set(shapes)):
            ks = blocks[[shape == (m_k, n_k) for shape in shapes]]
            rows = row_order[row_start[ks, None, None] + np.arange(m_k)[:, None]]
            cols = col_order[col_start[ks, None, None] + np.arange(n_k)]
            self._groups.append((rows, cols, _EPS * max(m_k, n_k)))
        self._empty = row_order[m - rows_in[n] :]


def check_criterion(
    model: GenerativeModel,
    psi_grid=None,
    theta_grid=None,
    z_samples=None,
    threshold: float = 1e-6,
    n_grid: int = 8,
    n_z_samples: int = 16,
    seed: int = 0,
) -> CriterionReport:
    """Least-squares test of the two column-space conditions on grids.

    The prior part solves zeta(psi) = J_zeta(psi) alpha per grid point; the
    noise part solves ONE shared beta over the system stacked across all
    z_samples (beta may not depend on the latent value). Residuals are
    relative to max(1, ||target||); passes iff both stay below threshold.
    Grids default to the model's own parameters plus seeded random draws.

    Both parts solve block by block (_BlockLstsq). Columns that no nonzero
    row joins are independent, so a stacked SBN Jacobian splits into one
    block of S rows per observable and a mixture's into one or more blocks
    per component; a dense Jacobian (PPCA, the tied-weight SBN) is one block.
    The partition comes from the first grid point and is merged where a
    later point's nonzeros cross it; each point's blocks go to batched SVDs
    before the next point's Jacobian is built. The residual and rank equal
    one dense lstsq over the whole stack, up to roundoff.
    """
    rng = np.random.default_rng(seed)
    if psi_grid is None or theta_grid is None:
        probe_z = _default_z_samples(model, 1, rng)[:1]

        def valid(p, t):
            try:
                ok_p = np.all(np.isfinite(model.prior.zeta(np.asarray(p, dtype=float))))
                ok_t = np.all(
                    np.isfinite(model.noise.eta(probe_z, np.asarray(t, dtype=float)))
                )
            except (DomainError, FloatingPointError, ValueError):
                return False
            return bool(ok_p and ok_t)

        psis = [model.prior.params]
        thetas = [model.noise.params]
        attempts = 0
        with np.errstate(all="ignore"):
            while len(psis) < n_grid and attempts < 50 * n_grid:
                attempts += 1
                p, t = _random_params(model, rng)
                if valid(p, t):
                    psis.append(p)
                    thetas.append(t)
        psi_grid = psis if psi_grid is None else psi_grid
        theta_grid = thetas if theta_grid is None else theta_grid
    if len(psi_grid) == 0 or len(theta_grid) == 0:
        raise ValueError("grids must be non-empty")
    if z_samples is None:
        z_samples = _default_z_samples(model, n_z_samples, rng)
    zs = np.asarray(z_samples)
    s_dim = model.noise.theta_subset.size
    if len(zs) < 2 * s_dim and isinstance(model.latent_support, RealVector):
        raise CriterionSampleError(f"need at least {2 * s_dim} z samples, got {len(zs)}")

    prior_residual = 0.0
    solve = _BlockLstsq()
    for psi in psi_grid:
        psi = np.asarray(psi, dtype=float)
        target = np.asarray(model.prior.zeta(psi), dtype=float)
        jac = jacobian_zeta(model, psi)
        res, rank = solve(jac, target)
        if rank < min(jac.shape):
            warnings.warn(
                f"prior Jacobian rank-deficient (rank {rank}) at a grid point",
                RuntimeWarning,
                stacklevel=2,
            )
        prior_residual = max(prior_residual, _relative(res, target))

    noise_residual = 0.0
    solve = _BlockLstsq()
    for theta in theta_grid:
        theta = np.asarray(theta, dtype=float)
        stacked = jacobian_eta(model, zs, theta)
        stacked = stacked.reshape(-1, stacked.shape[-1])
        target = np.asarray(model.noise.eta(zs, theta), dtype=float).reshape(-1)
        res, rank = solve(stacked, target)
        n_params = stacked.shape[1]
        del stacked  # so the next point's Jacobian is built without this one
        if rank < n_params:
            warnings.warn(
                f"stacked noise Jacobian rank-deficient (rank {rank}) at a grid point",
                RuntimeWarning,
                stacklevel=2,
            )
        noise_residual = max(noise_residual, _relative(res, target))

    return CriterionReport(
        prior_residual=prior_residual,
        noise_residual=noise_residual,
        passes=bool(max(prior_residual, noise_residual) < threshold),
        tested_points=len(psi_grid) + len(theta_grid),
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Ancestral sampling.


def sample_joint(model: GenerativeModel, rng: np.random.Generator, n: int):
    """N ancestral draws; returns (latents, observations)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prior_std = fam.from_natural(
        model.prior.family, model.prior.zeta(model.prior.params)
    )
    zs = fam.sample(model.prior.family, prior_std, rng, n)
    noise_std = fam.from_natural(model.noise.family, model.noise.eta(zs, model.noise.params))
    # One draw per row, in row order: the rng stream of a per-row loop.
    xs = fam.sample(model.noise.family, noise_std, rng, 1)[0]
    return zs, xs
