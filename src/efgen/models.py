"""Generative models: prior + noise family composition and the criterion test.

A :class:`GenerativeModel` pairs a prior exponential family (with a map from
trainable prior parameters to natural parameters) and a noise family (with a
map from latent value and noise parameters to natural parameters).
CONSTRUCTORS builds each kind of the zoo from keyword arguments:
exponential-family mixtures, linear-Gaussian latent models (isotropic and
diagonal observation noise), sigmoid belief nets with Bernoulli latents and
observables, and a deliberately broken SBN variant whose tied weights admit
no shared coefficient vector. Those arguments are the only description of a
kind: constructor_args reads them back off a model's parameters and shapes.

Noise maps work on stacks of latent states: eta(Z, theta) takes an (S,)
array of component indices (mixtures) or an (S, H) array of latent vectors
and returns the (S, L) natural parameters. Mixtures index rows of their
component naturals; the linear models compute Z W^T + mu. Every derivative
is analytic. A PriorSpec needs its zeta_jacobian, and priors trained in
their family's own parameters use the family's natural map and its
Jacobian. A noise map states products with its Jacobian, never the
Jacobian: a NoiseSpec needs its eta_jvp, J_eta(z_s) v for each state over
the P criterion parameters, which jvp_eta returns for the criterion check,
and may state an eta_vjp, sum_s J_eta(z_s)^T g_s over all of theta, which
vjp_eta returns for the ELBO gradient's noise part.

The parameterization criterion asks whether the natural-parameter vectors
lie in the column spaces of their own Jacobians: zeta(psi) =
J_zeta(psi) alpha(psi), and eta(z; theta) = J_eta(z; theta) beta(theta)
with ONE beta(theta) for every latent value z. Each model states these
witnesses, PriorSpec.alpha and NoiseSpec.beta, and check_criterion evaluates
their two residuals on a parameter grid. A passing witness proves the
criterion on the grid; a failing one shows that the stated beta fails, not
that no other beta exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from . import families as fam
from .errors import DomainError, UnsupportedModelError
from .families import FamilyDescriptor

__all__ = [
    "SBN_ENUMERATION_CAP",
    "CRITERION_THRESHOLD",
    "CRITERION_GRID_POINTS",
    "FiniteStates",
    "RealVector",
    "PriorSpec",
    "NoiseSpec",
    "GenerativeModel",
    "CriterionReport",
    "enumerate_binary_states",
    "collapsed_component",
    "make_ef_mixture",
    "make_ppca",
    "make_simple_fa",
    "make_sbn",
    "make_rigid_sbn",
    "CONSTRUCTORS",
    "constructor_args",
    "replace_params",
    "jacobian_zeta",
    "jacobian_eta",
    "vjp_eta",
    "jvp_eta",
    "check_criterion",
    "sample_joint",
]

# Exact enumeration of 2^H binary latent states is used downstream; this cap
# keeps posteriors and objective terms exactly computable.
SBN_ENUMERATION_CAP = 14

# The criterion passes when both relative residuals stay below this, on the
# model's own parameters plus seeded random draws up to this many grid points.
CRITERION_THRESHOLD = 1e-6
CRITERION_GRID_POINTS = 8


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
    zeta_jacobian: Callable[[np.ndarray], np.ndarray]  # psi -> (K, R)
    alpha: Callable[[np.ndarray], np.ndarray]  # psi -> (R,): J_zeta alpha = zeta


@dataclass(frozen=True)
class NoiseSpec:
    """A noise family, its trainable theta and its natural map with analytic
    products: eta_jvp over the criterion subset, the criterion's witness
    beta over that subset, and an optional eta_vjp over all of theta, which
    the exact ELBO gradient needs."""

    family: FamilyDescriptor
    params: np.ndarray  # trainable noise parameter vector theta (flat)
    theta_subset: np.ndarray  # indices into theta of the P criterion parameters
    eta: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (states, theta) -> (S, L)
    # (states, theta, v (P,)) -> J_eta(z_s) v for each state over the subset, (S, L)
    eta_jvp: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]  # theta -> (P,): J_eta(z) beta = eta(z) at every z
    # (states, theta, G (S, L)) -> sum_s J_eta(z_s)^T G_s over all of theta, (P_all,)
    eta_vjp: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class GenerativeModel:
    prior: PriorSpec
    noise: NoiseSpec
    latent_support: LatentSupport
    model_kind: str  # a key of CONSTRUCTORS, or custom


@dataclass(frozen=True)
class CriterionReport:
    """Worst relative residuals of the stated witnesses over the grid."""

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
    if name == "categorical":
        # The implicit last weight 1 - sum(psi) enters every coordinate.
        last = 1.0 - params.sum(axis=-1)
        diag = np.eye(params.shape[-1]) * (1.0 / params)[..., None, :]
        return diag + (1.0 / last)[..., None, None]
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


def _natural_witness(family: FamilyDescriptor, params: np.ndarray) -> np.ndarray:
    """Coefficients w with J w = to_natural at parameter rows (..., P), J
    being _component_natural_jacobian's; shape (..., P)."""
    name = family.name
    natural = fam.to_natural(family, params)
    if name == "bernoulli_product":
        return params * (1.0 - params) * natural
    if name == "categorical":
        # Sherman-Morrison on diag(1/pi) + 1 1^T / pi_last, as pi sums to 1.
        return params * (natural - (params * natural).sum(axis=-1, keepdims=True))
    if name.startswith("gaussian"):  # the mean coordinates scale with 1/sigma2 alone
        d = family.data_dim
        return np.concatenate([np.zeros_like(params[..., :d]), -params[..., d:]], axis=-1)
    if name == "gamma":
        return natural * [1.0, -1.0]
    if name == "poisson_product":
        return params * natural
    raise ValueError(f"no natural-map witness for {name}")


def _affine_rows(w: np.ndarray, z: np.ndarray, mu) -> np.ndarray:
    """Z W^T + mu for an (S, H) stack of latent vectors.

    One matrix-vector product per row, in a single stacked matmul: unlike
    Z @ W.T, it rounds each row exactly as W @ z for that row alone.
    """
    return (w @ z[:, :, None])[:, :, 0] + mu


def _natural_prior(family: FamilyDescriptor, psi) -> PriorSpec:
    """A prior trained in its family's standard parameters: zeta is the
    family's natural map, zeta_jacobian that map's Jacobian and alpha its
    witness."""
    return PriorSpec(
        family,
        _frozen(psi),
        partial(fam.to_natural, family),
        partial(_component_natural_jacobian, family),
        partial(_natural_witness, family),
    )


# ---------------------------------------------------------------------------
# Constructors.


# mu / sigma2 and 0.5 / sigma2 get squared and multiplied in the Gaussian
# formulas, so they must stay below a quarter of sqrt(float max). So must
# sigma2 itself: then sigma2^2 stays finite and (0.5 / sigma2)^2 normal.
_GAUSSIAN_NATURAL_MAX = 0.25 * math.sqrt(np.finfo(float).max)


def collapsed_component(family, rows: np.ndarray, weights: np.ndarray):
    """The first mixture component with a non-finite coordinate, within
    rounding of its domain's edge (a Gaussian point mass, a zero Poisson
    rate, a constant Bernoulli coordinate) or with a Gaussian variance or
    natural parameter past _GAUSSIAN_NATURAL_MAX; None if there is none.
    Rounding is relative to each coordinate's weighted mean or mean square,
    so a row past the edge is flagged too, and a component that passes lies
    in its family's standard domain (fam.check_standard). make_ef_mixture
    and the EM M-step refuse such a component."""
    eps, d = np.finfo(float).eps, family.data_dim
    if family.name == "bernoulli_product":
        near = np.minimum(rows, 1.0 - rows) <= eps
    elif family.name == "poisson_product":
        near = rows <= eps * (weights @ rows)
    elif family.name.startswith("gaussian"):
        mu, var = rows[:, :d], rows[:, d:]  # one shared var column for gaussian_scalar_var
        with np.errstate(over="ignore"):  # an infinite product decides as a finite one would
            near = (
                (var <= eps * eps * (weights @ (mu * mu + var)))
                | (var >= _GAUSSIAN_NATURAL_MAX)
                | (np.maximum(np.abs(mu), 0.5) >= _GAUSSIAN_NATURAL_MAX * var)
            )
    else:  # gamma: the M-step's shape Newton keeps a > 0, and so the rate
        near = np.zeros(rows.shape, dtype=bool)
    hit = near.any(axis=1) | ~np.isfinite(rows).all(axis=1)
    return int(hit.argmax()) if hit.any() else None


def make_ef_mixture(
    component_family: FamilyDescriptor,
    weights,
    component_params,
) -> GenerativeModel:
    """Categorical latent over C components of one exponential family.

    weights is the full length-C probability vector (every entry positive,
    summing to one); component_params is a (C, standard_dim) array, and no
    component may lie at the edge of its domain (collapsed_component).
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
    ldim = component_family.standard_dim
    if comp.shape != (c, ldim):
        raise DomainError(
            f"component_params must have shape ({c}, {ldim}), got {comp.shape}"
        )
    fam.check_standard(component_family, comp)
    collapsed = collapsed_component(component_family, comp, weights)
    if collapsed is not None:
        raise DomainError(f"component {collapsed} lies at the edge of its domain")

    def eta(z, theta):
        rows = fam.to_natural(component_family, theta.reshape(c, ldim))
        return rows[np.asarray(z, dtype=int)]

    def eta_vjp(z, theta, g):
        # State s touches only its component's ldim columns: scatter-add
        # J_{z_s}^T g_s there, without the (S, L, C * ldim) Jacobian.
        z = np.asarray(z, dtype=int)
        blocks = _component_natural_jacobian(component_family, theta.reshape(c, ldim))
        out = np.zeros((c, ldim))
        np.add.at(out, z, np.einsum("slp,sl->sp", blocks[z], g))
        return out.ravel()

    def eta_jvp(z, theta, v):
        # State s reads only its component's block: J_k v_k once per
        # component k, then row z_s, without the (S, L, C * ldim) Jacobian.
        blocks = _component_natural_jacobian(component_family, theta.reshape(c, ldim))
        return (blocks @ v.reshape(c, ldim, 1))[np.asarray(z, dtype=int), :, 0]

    def beta(theta):
        return _natural_witness(component_family, theta.reshape(c, ldim)).ravel()

    return GenerativeModel(
        prior=_natural_prior(fam.categorical(c), weights[:-1]),
        noise=NoiseSpec(
            component_family,
            _frozen(comp.ravel()),
            np.arange(c * ldim),
            eta,
            eta_jvp,
            beta,
            eta_vjp,
        ),
        latent_support=FiniteStates(np.arange(c)),
        model_kind="ef_mixture",
    )


def _scalar_var_gaussian_prior(h: int, tau: float) -> PriorSpec:
    """Zero-mean Gaussian prior on R^h with a single trainable variance."""

    def zeta(psi):
        tau = psi[0]
        if tau <= 0.0:
            raise DomainError("prior variance must be positive")
        return np.concatenate([np.zeros(h), np.full(h, -0.5 / tau)])

    def zeta_jac(psi):
        tau = psi[0]
        return np.concatenate([np.zeros(h), np.full(h, 0.5 / tau**2)])[:, None]

    return PriorSpec(fam.gaussian_scalar_var(h), _frozen([tau]), zeta, zeta_jac, np.negative)


def make_ppca(w, mu, sigma2: float, tau: float = 1.0) -> GenerativeModel:
    """Linear-Gaussian model with isotropic observation noise.

    z ~ N(0, tau I_H), x ~ N(W z + mu, sigma2 I_D). The criterion Jacobian
    uses the variance alone as its parameter subset; it is -eta / sigma2, so
    the witnesses are alpha = -tau and beta = -sigma2.
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

    noise_family = fam.gaussian_scalar_var(d)
    n_w = d * h

    def eta(z, theta):
        mean = _affine_rows(theta[:n_w].reshape(d, h, order="F"), z, theta[n_w : n_w + d])
        s2 = theta[-1]
        return np.concatenate([mean / s2, np.full(mean.shape, -0.5 / s2)], axis=1)

    def eta_jvp(z, theta, v):
        # J_eta(z) is the one column -eta / sigma2.
        return (-1.0 / theta[-1]) * eta(z, theta) * v[0]

    theta = np.concatenate([w.ravel(order="F"), mu, [sigma2]])
    return GenerativeModel(
        prior=_scalar_var_gaussian_prior(h, tau),
        noise=NoiseSpec(
            noise_family, _frozen(theta), np.array([n_w + d]), eta, eta_jvp, lambda t: -t[-1:]
        ),
        latent_support=RealVector(h),
        model_kind="ppca",
    )


def make_simple_fa(w, tau: float, sigma2s) -> GenerativeModel:
    """Single-latent factor analysis with diagonal observation noise.

    z ~ N(0, tau), x ~ N(w z, diag(sigma2s)) with the loading held at unit
    norm; the criterion Jacobian uses the D variances as its subset, with
    the witnesses alpha = -tau and beta = -sigma2s.
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

    noise_family = fam.gaussian_diag_cov(d)

    def eta(z, theta):
        s2, wv = theta[:d], theta[d:]
        mean_natural = wv * z[:, :1] / s2
        precision = np.broadcast_to(-0.5 / s2, mean_natural.shape)
        return np.concatenate([mean_natural, precision], axis=1)

    def eta_jvp(z, theta, v):
        # Each half of J_eta(z) is diagonal: -w z / sigma2^2 on the mean
        # naturals, 0.5 / sigma2^2 on the precisions.
        s2, wv = theta[:d], theta[d:]
        means = (-wv * z[:, :1] / s2**2) * v
        return np.concatenate([means, np.broadcast_to(0.5 / s2**2 * v, means.shape)], axis=1)

    theta = np.concatenate([sigma2s, w])
    return GenerativeModel(
        prior=_scalar_var_gaussian_prior(1, tau),
        noise=NoiseSpec(
            noise_family, _frozen(theta), np.arange(d), eta, eta_jvp, lambda t: -t[:d]
        ),
        latent_support=RealVector(1),
        model_kind="simple_fa",
    )


def make_sbn(pi, w, mu=None, offsets_free: bool = True) -> GenerativeModel:
    """Sigmoid belief net: Bernoulli latents, Bernoulli observables.

    The noise natural parameters are W z + mu. With offsets_free=False the
    offsets are frozen constants excluded from the trainable noise vector;
    the single-latent two-observable fixture with mu = 0 uses that form.
    The criterion's witness is beta = theta, as eta is linear in W and free
    offsets. Fixed offsets pass iff mu = 0: at z = 0 every Jacobian row
    vanishes, so no beta fits a non-zero mu.
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

    noise_family = fam.bernoulli_product(d)
    n_w = d * h
    fixed_mu = None if offsets_free else _frozen(mu)

    def eta(z, theta):
        offsets = theta[n_w:] if offsets_free else fixed_mu
        return _affine_rows(theta[:n_w].reshape(d, h, order="F"), z, offsets)

    def eta_vjp(z, theta, g):
        # sum_s J_eta(z_s)^T g_s without forming J: G^T Z for W (theta's
        # order), and the column sums for free offsets.
        grad_w = (g.T @ z).ravel(order="F")
        return np.concatenate([grad_w, g.sum(axis=0)]) if offsets_free else grad_w

    def eta_jvp(z, theta, v):
        # eta is linear in theta, so J_eta(z) v is eta at theta = v, with
        # offset 0 when the offsets are fixed: no Jacobian is formed.
        offsets = v[n_w:] if offsets_free else 0.0
        return _affine_rows(v[:n_w].reshape(d, h, order="F"), z, offsets)

    theta = np.concatenate([w.ravel(order="F"), mu]) if offsets_free else w.ravel(order="F")
    return GenerativeModel(
        prior=_natural_prior(fam.bernoulli_product(h), pi),
        noise=NoiseSpec(
            noise_family,
            _frozen(theta),
            np.arange(theta.size),
            eta,
            eta_jvp,
            lambda t: t,
            eta_vjp,
        ),
        latent_support=FiniteStates(enumerate_binary_states(h)),
        model_kind="sbn",
    )


def make_rigid_sbn(pi: float, v: float) -> GenerativeModel:
    """Two-observable SBN whose weights are tied as (v, v+1).

    The tied offset makes the noise natural map leave the column space of its
    own one-column Jacobian, so its witness beta = theta, like every beta,
    fails the parameterization check; kept as a checker fixture.
    """
    if not 0.0 < pi < 1.0:
        raise DomainError("pi must lie in the open (0,1)")

    noise_family = fam.bernoulli_product(2)

    def eta(z, theta):
        zv = z[:, 0]
        return np.stack([theta[0] * zv, (theta[0] + 1.0) * zv], axis=1)

    def eta_jvp(z, theta, v):
        # Both naturals have the derivative z.
        return np.repeat(z[:, :1] * v, 2, axis=1)

    def eta_vjp(z, theta, g):
        return [z[:, 0] @ g.sum(axis=1)]

    return GenerativeModel(
        prior=_natural_prior(fam.bernoulli_product(1), [pi]),
        noise=NoiseSpec(
            noise_family, _frozen([v]), np.array([0]), eta, eta_jvp, lambda t: t, eta_vjp
        ),
        latent_support=FiniteStates(enumerate_binary_states(1)),
        model_kind="rigid_sbn",
    )


# ---------------------------------------------------------------------------
# Rebuilding a model from its constructor's arguments.


CONSTRUCTORS = {
    "ef_mixture": make_ef_mixture,
    "ppca": make_ppca,
    "simple_fa": make_simple_fa,
    "sbn": make_sbn,
    "rigid_sbn": make_rigid_sbn,
}


def constructor_args(model: GenerativeModel) -> dict:
    """The keyword arguments with which CONSTRUCTORS[model.model_kind]
    rebuilds the model. An SBN's offsets, fixed or trained, are its eta at
    z = 0, and free when theta is longer than its D x H weights. Raises
    UnsupportedModelError for a kind that CONSTRUCTORS lacks (custom)."""
    kind, psi, theta = model.model_kind, model.prior.params, model.noise.params
    d = model.noise.family.data_dim
    if kind == "ef_mixture":
        weights = np.concatenate([psi, [1.0 - psi.sum()]])
        comp = theta.reshape(model.latent_support.n_states, -1)
        return dict(component_family=model.noise.family, weights=weights, component_params=comp)
    if kind == "ppca":  # theta is W (column-major), mu, sigma2
        h = model.latent_support.dim
        w, mu = theta[: d * h].reshape(d, h, order="F"), theta[d * h : -1]
        return dict(w=w, mu=mu, sigma2=float(theta[-1]), tau=float(psi[0]))
    if kind == "simple_fa":  # theta is sigma2s, w
        return dict(w=theta[d:], tau=float(psi[0]), sigma2s=theta[:d])
    if kind == "sbn":  # theta is W (column-major), then mu if the offsets are free
        h = psi.size
        w, mu = theta[: d * h].reshape(d, h, order="F"), model.noise.eta(np.zeros((1, h)), theta)[0]
        return dict(pi=psi, w=w, mu=mu, offsets_free=theta.size > d * h)
    if kind == "rigid_sbn":
        return dict(pi=float(psi[0]), v=float(theta[0]))
    raise UnsupportedModelError(f"model kind {kind!r} has no constructor to rebuild it")


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


def jacobian_zeta(model: GenerativeModel, psi=None) -> np.ndarray:
    """Jacobian of the prior natural-parameter map, shape (K, R)."""
    psi = model.prior.params if psi is None else np.asarray(psi, dtype=float)
    return np.atleast_2d(np.asarray(model.prior.zeta_jacobian(psi), dtype=float))


def jacobian_eta(model: GenerativeModel, z, theta=None) -> np.ndarray:
    """Jacobians of the noise natural map w.r.t. the theta subset at a stack
    of latent states z, shape (S, L, P): column k is jvp_eta at the k-th unit
    vector, written into one preallocated array.

    No library path calls it, as the gradient and the criterion need only
    products. It keeps its name for perfbench's tracer, which counts its
    calls, for notebook 02, which prints a Jacobian, and for the tests.
    """
    theta = model.noise.params if theta is None else np.asarray(theta, dtype=float)
    z, p = np.asarray(z), model.noise.theta_subset.size
    jac = np.empty((len(z), model.noise.family.natural_dim, p))
    for k in range(p):
        jac[:, :, k] = jvp_eta(model, z, np.eye(1, p, k)[0], theta)
    return jac


def vjp_eta(model: GenerativeModel, z, g) -> np.ndarray:
    """sum_s J_eta(z_s; theta)^T g_s over all of theta, for g of shape (S, L),
    from the model's eta_vjp; UnsupportedModelError for a model without one."""
    if model.noise.eta_vjp is None:
        raise UnsupportedModelError(f"{model.model_kind}: the noise gradient needs an eta_vjp")
    return np.asarray(model.noise.eta_vjp(np.asarray(z), model.noise.params, g), dtype=float)


def jvp_eta(model: GenerativeModel, z, v, theta=None) -> np.ndarray:
    """J_eta(z_s; theta) v for each state of a stack z over the criterion
    subset, for v of shape (P,), from the model's eta_jvp; shape (S, L)."""
    theta = model.noise.params if theta is None else np.asarray(theta, dtype=float)
    z, v = np.asarray(z), np.asarray(v, dtype=float)
    return np.asarray(model.noise.eta_jvp(z, theta, v), dtype=float)


# ---------------------------------------------------------------------------
# Criterion check.


def _random_params(model: GenerativeModel, rng: np.random.Generator):
    """Domain-valid random (psi, theta) near moderate scales, per model kind."""
    kind = model.model_kind
    if kind == "ef_mixture":
        family = model.noise.family
        c, d = model.latent_support.n_states, family.data_dim
        logits = rng.normal(0.0, 0.7, size=c)
        pi = np.exp(logits - logits.max())
        pi = pi / pi.sum()
        draw = {
            "bernoulli_product": lambda: 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.2, size=d))),
            "gaussian_scalar_var": lambda: np.append(
                rng.normal(0.0, 2.0, size=d), rng.lognormal(0.0, 0.5)
            ),
            "gaussian_diag_cov": lambda: np.append(
                rng.normal(0.0, 2.0, size=d), rng.lognormal(0.0, 0.5, size=d)
            ),
            "gamma": lambda: rng.lognormal(0.5, 0.5, size=2),
            "poisson_product": lambda: rng.lognormal(0.5, 0.6, size=d),
        }[family.name]
        return pi[:-1], np.concatenate([draw() for _ in range(c)])
    if kind in ("ppca", "simple_fa"):
        psi = np.array([rng.lognormal(0.0, 0.4)])
        if kind == "ppca":  # theta is W and mu, then sigma2
            size = model.noise.params.size - 1
            return psi, np.append(rng.normal(0.0, 1.0, size=size), rng.lognormal(0.0, 0.4))
        d = model.noise.family.data_dim
        wv = rng.normal(0.0, 1.0, size=d)
        wv /= np.linalg.norm(wv)
        return psi, np.concatenate([rng.lognormal(0.0, 0.4, size=d), wv])
    if kind in ("sbn", "rigid_sbn"):
        psi = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.0, size=model.prior.params.size)))
        theta = model.noise.params + rng.normal(0.0, 0.5, size=model.noise.params.size)
        return psi, theta
    # Unknown kinds: jitter around current parameters and hope the caller's
    # domain checks reject invalid draws.
    psi = model.prior.params + rng.normal(0.0, 0.3, size=model.prior.params.size)
    theta = model.noise.params + rng.normal(0.0, 0.3, size=model.noise.params.size)
    return psi, theta


def _relative_norm(residual: np.ndarray, target: np.ndarray) -> float:
    """||residual|| relative to max(1, ||target||)."""
    return math.sqrt(np.vdot(residual, residual)) / max(1.0, math.sqrt(np.vdot(target, target)))


def _grid_points(model: GenerativeModel, zs: np.ndarray, rng: np.random.Generator):
    """(psi, theta, zeta(psi), eta(zs, theta)) at the model's own parameters,
    then at seeded _random_params draws: up to CRITERION_GRID_POINTS points
    from at most 50 CRITERION_GRID_POINTS draws. A draw whose maps raise a
    domain error or are non-finite is skipped; the model's own point is not."""
    psi, theta = model.prior.params, model.noise.params
    yield psi, theta, model.prior.zeta(psi), model.noise.eta(zs, theta)
    points = 1
    for _ in range(50 * CRITERION_GRID_POINTS):
        if points == CRITERION_GRID_POINTS:
            return
        with np.errstate(all="ignore"):
            psi, theta = _random_params(model, rng)
            try:
                zeta, eta = model.prior.zeta(psi), model.noise.eta(zs, theta)
            except (DomainError, FloatingPointError, ValueError):
                continue
        if np.all(np.isfinite(zeta)) and np.all(np.isfinite(eta)):
            points += 1
            yield psi, theta, zeta, eta
            del zeta, eta  # not kept while the next point's maps are built


def check_criterion(model: GenerativeModel, seed: int = 0) -> CriterionReport:
    """The stated witnesses' residuals on a seeded grid.

    The prior part is ||J_zeta(psi) alpha(psi) - zeta(psi)|| per grid point;
    the noise part is ||J_eta(z) beta(theta) - eta(z)|| over all latent
    samples z at once, with ONE beta(theta) for every z, its products
    J_eta(z) beta from one jvp_eta call, so no Jacobian is formed.
    Residuals are relative to max(1, ||target||), on the grid of
    _grid_points; passes iff both stay below CRITERION_THRESHOLD. Finite
    latents test every state; real latents first draw max(16, 2 P) z, P
    being the size of the criterion subset.
    """
    rng = np.random.default_rng(seed)
    support = model.latent_support
    if isinstance(support, FiniteStates):
        zs = support.states
    else:
        count = max(16, 2 * model.noise.theta_subset.size)
        zs = rng.normal(0.0, 1.0, size=(count, support.dim))

    prior_residual = noise_residual = 0.0
    points = 0
    for psi, theta, zeta, eta in _grid_points(model, zs, rng):
        points += 1
        prior = _relative_norm(jacobian_zeta(model, psi) @ model.prior.alpha(psi) - zeta, zeta)
        fitted = jvp_eta(model, zs, model.noise.beta(theta), theta)
        noise = _relative_norm(fitted - eta, eta)
        prior_residual, noise_residual = max(prior_residual, prior), max(noise_residual, noise)
        del fitted, eta  # not kept while _grid_points builds the next point

    return CriterionReport(
        prior_residual=prior_residual,
        noise_residual=noise_residual,
        passes=bool(max(prior_residual, noise_residual) < CRITERION_THRESHOLD),
        tested_points=2 * points,
        threshold=CRITERION_THRESHOLD,
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
    family = model.noise.family
    noise_std = fam.from_natural(family, model.noise.eta(zs, model.noise.params))
    # Checked here, not around fam.sample: its Poisson support error keeps its text.
    try:
        fam.check_standard(family, noise_std)
    except DomainError as exc:  # e.g. a success probability e^-900, which rounds to 0
        raise DomainError(
            "the observation natural parameters are too large in magnitude: they round "
            f"to the edge of the {family.name} domain ({exc})"
        ) from None
    # One draw per row, in row order: the rng stream of a per-row loop.
    xs = fam.sample(family, noise_std, rng, 1)[0]
    return zs, xs
