"""ELBO evaluation, entropy-sum right-hand sides, and their gap.

The ELBO is computed exactly, never by Monte Carlo: finite-state summation
for mixtures and sigmoid belief nets (all 2^H states enumerated), closed-form
Gaussian moment algebra for the linear-Gaussian models. It is split into
three terms,

    elbo = f1 - f2 - f3
    f1 = -(1/N) sum_n E_q[log q]          (average variational entropy)
    f2 = -(1/N) sum_n E_q[log p(z)]       (prior cross-entropy)
    f3 = -(1/N) sum_n E_q[log p(x_n|z)]   (noise cross-entropy)

and compared against the entropy-sum expression

    rhs = (1/N) sum_n H[q_n] - H[prior] - E_qbar[ H[p(x|z)] ],

whose gap |elbo - rhs| closes at stationary points of training. The pseudo
variant drops the observation base measure from the noise log-densities and
replaces entropies with their base-measure-reweighted counterparts, which
stay closed-form even for Poisson observables; the two variants differ by
exactly the data's mean log base measure.

Finite-state models have one evaluator, FiniteObjective. Training uses it
too, so reports and verify recompute a trained model's ELBO, entropy sum
and stationarity gradient with the arithmetic training recorded them with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import logsumexp

from . import families as fam
from . import models as mdl
from .errors import IncompatibilityError, UnsupportedModelError
from .models import (
    FiniteStates,
    GenerativeModel,
    fa_components,
    ppca_components,
)

__all__ = [
    "CategoricalTable",
    "EnumeratedTable",
    "GaussianMoments",
    "VariationalState",
    "ObjectiveReport",
    "FiniteObjective",
    "exact_posterior",
    "elbo_terms",
    "pseudo_elbo_terms",
    "elbo_kl_form",
    "entropy_sum_rhs",
    "pseudo_entropy_sum_rhs",
    "marginal_loglik",
    "pseudo_loglik",
    "mean_log_base_measure",
]

_ROW_NORM_TOL = 1e-9
_GRAD_FD_REL_STEP = 1e-6


def _check_rows_normalized(p: np.ndarray, what: str):
    if p.ndim != 2:
        raise ValueError(f"{what} must be 2-D")
    if p.shape[0] == 0:
        return
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError(f"{what} entries must lie in [0, 1]")
    if np.max(np.abs(p.sum(axis=1) - 1.0)) > _ROW_NORM_TOL:
        raise ValueError(f"{what} rows must sum to 1")


@dataclass(frozen=True)
class CategoricalTable:
    """Per-point responsibilities over mixture components, shape (N, C)."""

    resp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "resp", np.asarray(self.resp, dtype=float))
        _check_rows_normalized(self.resp, "responsibilities")


@dataclass(frozen=True)
class EnumeratedTable:
    """Per-point probabilities over all enumerated latent states, shape (N, S)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        _check_rows_normalized(self.probs, "state probabilities")


@dataclass(frozen=True)
class GaussianMoments:
    """Gaussian posteriors N(means[n], cov) with one shared covariance.

    Exact for the linear-Gaussian models, where the posterior covariance does
    not depend on the data point.
    """

    means: np.ndarray  # (N, H)
    cov: np.ndarray  # (H, H), symmetric positive definite

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cov", cov)
        if means.ndim != 2:
            raise ValueError("means must be (N, H)")
        h = means.shape[1]
        if cov.shape != (h, h) or not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric (H, H)")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite") from None


VariationalState = Union[CategoricalTable, EnumeratedTable, GaussianMoments]


@dataclass(frozen=True)
class ObjectiveReport:
    f1: float
    f2: float
    f3: float
    elbo: float  # = f1 - f2 - f3
    entropy_sum: float
    gap: float  # = |elbo - entropy_sum|
    variant: str  # standard | pseudo


# ---------------------------------------------------------------------------
# The finite-state evaluator (mixtures and sigmoid belief nets).


def _check_data(model: GenerativeModel, data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.noise.family.data_dim:
        raise ValueError(
            f"data must be (N, {model.noise.family.data_dim}), got {data.shape}"
        )
    return data


def _finite_states(model: GenerativeModel) -> np.ndarray:
    if not isinstance(model.latent_support, FiniteStates):
        raise IncompatibilityError(f"{model.model_kind} has no finite latent states")
    return model.latent_support.states


def _as_state_table(model: GenerativeModel, q: VariationalState) -> np.ndarray:
    """Probabilities over the model's finite states, shape (N, S)."""
    s_count = len(_finite_states(model))
    if isinstance(q, CategoricalTable):
        if model.model_kind != "ef_mixture" or q.resp.shape[1] != s_count:
            raise IncompatibilityError("responsibility table does not match the model")
        return q.resp
    if isinstance(q, EnumeratedTable):
        if q.probs.shape[1] != s_count:
            raise IncompatibilityError("enumerated table does not match the state count")
        return q.probs
    raise IncompatibilityError(f"unsupported variational state {type(q).__name__}")


def _entropy_rows(table: np.ndarray) -> np.ndarray:
    """Per-row entropies -sum_s q log q, counting 0 log 0 as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(table > 0.0, table * np.log(table), 0.0).sum(axis=1)


def _natural_entropy(family, n):
    """Standard entropies evaluated from rows of natural parameters.

    Unit-base-measure families take the -n.A'(n) + A(n) form, which equals
    their entropy and cannot saturate out of the standard domain the way a
    from_natural round trip can (a Bernoulli with |n| > ~37 maps to exactly
    0 or 1 in floats). Poisson keeps the truncated-series entropy.
    """
    if family.base_measure_kind == "unit_constant":
        return fam.pseudo_entropy(family, n)
    return fam.entropy(family, fam.from_natural(family, n))


def _objective_report(f1: float, f2: float, f3: float, rhs: float, pseudo: bool):
    elbo = f1 - f2 - f3
    return ObjectiveReport(
        f1=f1,
        f2=f2,
        f3=f3,
        elbo=elbo,
        entropy_sum=rhs,
        gap=abs(elbo - rhs),
        variant="pseudo" if pseudo else "standard",
    )


def _fd_grad_norm(value_of_params, psi: np.ndarray, theta: np.ndarray) -> float:
    """Central finite differences over the concatenated (psi, theta) vector."""
    full = np.concatenate([psi, theta])
    r = psi.size
    sq = 0.0
    for i in range(full.size):
        h = _GRAD_FD_REL_STEP * max(1.0, abs(full[i]))
        up, dn = full.copy(), full.copy()
        up[i] += h
        dn[i] -= h
        g = (value_of_params(up[:r], up[r:]) - value_of_params(dn[:r], dn[r:])) / (2.0 * h)
        sq += g * g
    return math.sqrt(sq)


class FiniteObjective:
    """Every finite-state ELBO quantity of one dataset, from one set of tables.

    The data are checked and their sufficient statistics and log base
    measures computed once. The per-state tables (noise naturals, log
    partitions, log prior masses) are built once per model, each by one
    batched call over all states, and kept for the latest model. Training,
    the objective reports and verify all evaluate through this class, so
    they share one arithmetic: the posterior subtracts each row's maximum
    before exponentiating, and 0 log 0 is 0.
    """

    def __init__(self, model: GenerativeModel, data):
        self.states = _finite_states(model)
        data = _check_data(model, data)
        noise = model.noise.family
        self.n = len(data)
        if self.n:
            self.t = fam.batch_sufficient_stats(noise, data)
            self.log_h = fam.batch_log_base_measure(noise, data)
        else:
            self.t, self.log_h = np.zeros((0, noise.natural_dim)), np.zeros(0)
        self._model = None
        self._tables = None

    def tables(self, model: GenerativeModel):
        """(noise naturals (S, L), log partitions (S,), log prior masses (S,))."""
        if model is not self._model:
            etas = model.noise.eta(self.states, model.noise.params)
            log_parts = fam.log_partition(model.noise.family, etas)
            zeta = model.prior.zeta(model.prior.params)
            log_prior = fam.log_density(model.prior.family, zeta, self.states)
            self._model, self._tables = model, (etas, log_parts, log_prior)
        return self._tables

    def state_table(self, model: GenerativeModel, q: VariationalState) -> np.ndarray:
        """q's probabilities over the states, shape (N, S), checked against N."""
        table = _as_state_table(model, q)
        if len(table) != self.n:
            raise ValueError("data and variational state disagree on N")
        return table

    def loglik(self, model: GenerativeModel, pseudo: bool = False) -> np.ndarray:
        """(N, S) log p(x_n | s); the pseudo variant drops the base measure."""
        etas, log_parts, _ = self.tables(model)
        ll = self.t @ etas.T - log_parts
        return ll if pseudo else ll + self.log_h[:, None]

    def posterior(self, model: GenerativeModel) -> np.ndarray:
        """The exact posterior over the states, shape (N, S)."""
        scores = self.loglik(model, pseudo=True) + self.tables(model)[2]
        scores -= scores.max(axis=1, keepdims=True)
        table = np.exp(scores)
        table /= table.sum(axis=1, keepdims=True)
        return table

    def terms(self, model: GenerativeModel, table: np.ndarray, pseudo: bool = False):
        """(f1, f2, f3) of the module docstring."""
        log_prior = self.tables(model)[2]
        f1 = float(np.mean(_entropy_rows(table)))
        f2 = float(-np.mean(table @ log_prior))
        f3 = float(-np.mean(np.sum(table * self.loglik(model, pseudo), axis=1)))
        return f1, f2, f3

    def elbo(self, model: GenerativeModel, table: np.ndarray) -> float:
        f1, f2, f3 = self.terms(model, table)
        return f1 - f2 - f3

    def entropy_sum(self, model: GenerativeModel, table: np.ndarray, pseudo: bool = False):
        entropy = fam.pseudo_entropy if pseudo else _natural_entropy
        etas = self.tables(model)[0]
        prior_entropy = entropy(model.prior.family, model.prior.zeta(model.prior.params))
        noise_entropies = entropy(model.noise.family, etas)
        qbar = table.mean(axis=0)
        return (
            float(np.mean(_entropy_rows(table)))
            - prior_entropy
            - float(qbar @ noise_entropies)
        )

    def report(self, model: GenerativeModel, table: np.ndarray, pseudo: bool = False):
        f1, f2, f3 = self.terms(model, table, pseudo)
        return _objective_report(f1, f2, f3, self.entropy_sum(model, table, pseudo), pseudo)

    def kl_form(self, model: GenerativeModel, table: np.ndarray) -> float:
        """Expected log-likelihood minus the mean KL(q_n || prior)."""
        expected_ll = float(np.mean(np.sum(table * self.loglik(model), axis=1)))
        kl_rows = -_entropy_rows(table) - table @ self.tables(model)[2]
        return expected_ll - float(np.mean(kl_rows))

    def marginal_loglik(self, model: GenerativeModel) -> float:
        scores = self.loglik(model, pseudo=True) + self.tables(model)[2] + self.log_h[:, None]
        return float(np.mean(logsumexp(scores, axis=1)))

    def grad_norm(self, model: GenerativeModel, table: np.ndarray) -> float:
        """Finite-difference ELBO gradient norm over all parameters, q fixed."""

        def value(psi, theta):
            # Looked up on the module, where the benchmark's tracer counts it.
            return self.elbo(mdl.replace_params(model, psi, theta), table)

        return _fd_grad_norm(value, model.prior.params, model.noise.params)


# ---------------------------------------------------------------------------
# Gaussian-moments path (linear-Gaussian models).


def _gaussian_model_parts(model: GenerativeModel):
    """Returns (W, mu, noise_variances (D,), tau) for ppca / simple_fa."""
    if model.model_kind == "ppca":
        w, mu, s2, tau = ppca_components(model)
        return w, mu, np.full(w.shape[0], s2), tau
    if model.model_kind == "simple_fa":
        wv, s2s, tau = fa_components(model)
        return wv[:, None], np.zeros(wv.size), s2s, tau
    raise IncompatibilityError(
        f"Gaussian variational moments require a linear-Gaussian model, got {model.model_kind}"
    )


def _gaussian_terms(model: GenerativeModel, data: np.ndarray, q: GaussianMoments):
    w, mu, s2s, tau = _gaussian_model_parts(model)
    n, h = q.means.shape
    if h != w.shape[1]:
        raise IncompatibilityError("latent dimension mismatch")
    if len(data) != n:
        raise ValueError("data and variational state disagree on N")
    sign, logdet = np.linalg.slogdet(q.cov)
    if sign <= 0:
        raise ValueError("covariance must be positive definite")
    f1 = 0.5 * h * math.log(2.0 * math.pi * math.e) + 0.5 * logdet
    tr_s = float(np.trace(q.cov))
    mean_sq = float(np.mean(np.sum(q.means**2, axis=1)))
    f2 = 0.5 * (tr_s + mean_sq) / tau + 0.5 * h * math.log(2.0 * math.pi * tau)
    resid = data - q.means @ w.T - mu
    quad_per_dim = np.mean(resid**2, axis=0) + np.einsum("dh,hk,dk->d", w, q.cov, w)
    f3 = float(
        np.sum(0.5 * np.log(2.0 * math.pi * s2s) + 0.5 * quad_per_dim / s2s)
    )
    return f1, f2, f3


def _gaussian_entropy_sum(model: GenerativeModel, q: GaussianMoments) -> float:
    w, _, s2s, tau = _gaussian_model_parts(model)
    h = q.means.shape[1]
    _, logdet = np.linalg.slogdet(q.cov)
    avg_q_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e) + 0.5 * logdet
    prior_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e * tau)
    noise_entropy = float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * s2s)))
    return avg_q_entropy - prior_entropy - noise_entropy


# ---------------------------------------------------------------------------
# Public operations.


def exact_posterior(model: GenerativeModel, data) -> VariationalState:
    """The model's exact per-point posterior in the matching representation."""
    if isinstance(model.latent_support, FiniteStates):
        table = FiniteObjective(model, data).posterior(model)
        if model.model_kind == "ef_mixture":
            return CategoricalTable(table)
        return EnumeratedTable(table)
    data = _check_data(model, data)
    w, mu, s2s, tau = _gaussian_model_parts(model)
    h = w.shape[1]
    precision = (w.T / s2s) @ w + np.eye(h) / tau
    cov = np.linalg.inv(precision)
    cov = 0.5 * (cov + cov.T)
    means = ((data - mu) / s2s) @ w @ cov
    return GaussianMoments(means, cov)


def _rhs(model: GenerativeModel, q: VariationalState, pseudo: bool) -> float:
    if isinstance(q, GaussianMoments):
        return _gaussian_entropy_sum(model, q)
    # The entropy sum reads no data, so the evaluator gets an empty dataset.
    ev = FiniteObjective(model, np.empty((0, model.noise.family.data_dim)))
    return ev.entropy_sum(model, _as_state_table(model, q), pseudo)


def entropy_sum_rhs(model: GenerativeModel, q: VariationalState) -> float:
    """Average variational entropy minus prior entropy minus expected noise entropy."""
    return _rhs(model, q, pseudo=False)


def pseudo_entropy_sum_rhs(model: GenerativeModel, q: VariationalState) -> float:
    """Entropy-sum expression with base-measure-reweighted entropies.

    The latent-side families here all carry unit base measures, so the
    variational term is the plain entropy; only the noise term changes.
    """
    return _rhs(model, q, pseudo=True)


def _report(model, data, q, pseudo: bool) -> ObjectiveReport:
    if isinstance(q, GaussianMoments):
        f1, f2, f3 = _gaussian_terms(model, _check_data(model, data), q)
        return _objective_report(f1, f2, f3, _gaussian_entropy_sum(model, q), pseudo)
    ev = FiniteObjective(model, data)
    return ev.report(model, ev.state_table(model, q), pseudo)


def elbo_terms(model: GenerativeModel, data, q: VariationalState) -> ObjectiveReport:
    """Exact three-term ELBO evaluation with the entropy-sum comparison."""
    return _report(model, data, q, pseudo=False)


def pseudo_elbo_terms(model: GenerativeModel, data, q: VariationalState) -> ObjectiveReport:
    """ELBO under the reweighted observation measure (base measure dropped)."""
    return _report(model, data, q, pseudo=True)


def elbo_kl_form(model: GenerativeModel, data, q: VariationalState) -> float:
    """Expected log-likelihood minus KL(q || prior); equals elbo_terms().elbo."""
    if isinstance(q, GaussianMoments):
        data = _check_data(model, data)
        w, mu, s2s, tau = _gaussian_model_parts(model)
        h = q.means.shape[1]
        _, logdet = np.linalg.slogdet(q.cov)
        tr_s = float(np.trace(q.cov))
        mean_sq = float(np.mean(np.sum(q.means**2, axis=1)))
        kl = 0.5 * ((tr_s + mean_sq) / tau - h + h * math.log(tau) - logdet)
        f1, f2, f3 = _gaussian_terms(model, data, q)
        return -f3 - kl
    ev = FiniteObjective(model, data)
    return ev.kl_form(model, ev.state_table(model, q))


def mean_log_base_measure(model: GenerativeModel, data) -> float:
    """(1/N) sum_n log h(x_n) under the model's observation family."""
    data = _check_data(model, data)
    if len(data) == 0:
        return 0.0
    return float(np.mean(fam.batch_log_base_measure(model.noise.family, data)))


def marginal_loglik(model: GenerativeModel, data) -> float:
    """(1/N) sum_n log p(x_n) by exact marginalization.

    Finite sums for finite-latent models, the Gaussian marginal for the
    linear-Gaussian ones; anything else is unsupported.
    """
    data = _check_data(model, data)
    if len(data) == 0:
        raise ValueError("marginal log-likelihood of an empty dataset")
    if isinstance(model.latent_support, FiniteStates):
        return FiniteObjective(model, data).marginal_loglik(model)
    if model.model_kind in ("ppca", "simple_fa"):
        w, mu, s2s, tau = _gaussian_model_parts(model)
        d = w.shape[0]
        cov = tau * (w @ w.T) + np.diag(s2s)
        chol = np.linalg.cholesky(cov)
        centered = data - mu
        solved = np.linalg.solve(chol, centered.T)
        quad = np.mean(np.sum(solved**2, axis=0))
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return float(-0.5 * (d * math.log(2.0 * math.pi) + logdet + quad))
    raise UnsupportedModelError(
        f"{model.model_kind} admits no exact marginal likelihood here"
    )


def pseudo_loglik(model: GenerativeModel, data) -> float:
    """Marginal log-likelihood under the reweighted observation measure.

    Differs from the standard one by the parameter-free constant
    (1/N) sum_n log h(x_n).
    """
    return marginal_loglik(model, data) - mean_log_base_measure(model, data)

