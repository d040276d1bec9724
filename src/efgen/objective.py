"""ELBO evaluation, entropy-sum right-hand sides, and their gap.

evaluator(model, data) is the one way in: it returns the model's exact
evaluator, whose methods give every quantity below. The variational
distribution q enters as per-point probabilities: for finite states the
(N, S) row-stochastic table that posterior() returns or a caller supplies,
for the linear-Gaussian models GaussianMoments.

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
exactly the data's mean log base measure, the evaluator's mean_log_h.

For finite states the noise term reads q only through each state's mass
w_s = sum_n q_ns and statistics B_s = sum_n q_ns t(x_n):
N f3 = -sum_s [B_s . eta_s - w_s A(eta_s)] - sum_n log h(x_n), without the
last sum in the pseudo variant. noise_expectation() computes the bracket and
its eta-gradient G_s = B_s - w_s grad A(eta_s).

Two evaluators share one interface (posterior, state_table, terms, elbo,
entropy_sum, report, marginal_loglik, mean_log_h, gradient, grad_norm):
FiniteObjective sums over the enumerated states of mixtures and sigmoid
belief nets, and GaussianObjective does the moment algebra of the
linear-Gaussian models.
evaluator() picks one from the model's latent support. The training loop,
the reports and verify all go through them, so verify recomputes a trained
model's ELBO, entropy sum and stationarity gradient with the arithmetic
training recorded them with. exact_posterior, elbo_terms and
pseudo_elbo_terms remain only as names the benchmark's tracer wraps.

The stationarity gradient is exact, with q held fixed. For finite states it
is the moment-matching identity of exponential families (Wainwright and
Jordan 2008): G_s above, and the prior's expected statistics minus its
log-partition gradient, pulled back through the natural-parameter maps. For
the linear-Gaussian models it is the derivative of the closed-form terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import families as fam
from . import models as mdl
from .errors import IncompatibilityError, UnsupportedModelError
from .models import FiniteStates, GenerativeModel, fa_components, ppca_components

__all__ = [
    "GaussianMoments",
    "ObjectiveReport",
    "FiniteObjective",
    "GaussianObjective",
    "evaluator",
    "noise_expectation",
    "exact_posterior",
    "elbo_terms",
    "pseudo_elbo_terms",
]

_ROW_NORM_TOL = 1e-9


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
# The evaluators: finite-state summation and Gaussian moment algebra.


def _check_data(model: GenerativeModel, data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != model.noise.family.data_dim:
        raise ValueError(
            f"data must be (N, {model.noise.family.data_dim}), got {data.shape}"
        )
    return data


def noise_expectation(family, etas: np.ndarray, mass: np.ndarray, stats: np.ndarray):
    """sum_s [B_s . eta_s - w_s A(eta_s)] and G_s = B_s - w_s grad A(eta_s).

    With mass w_s = sum_n q_ns and stats rows B_s = sum_n q_ns t(x_n), the
    value is sum_n E_q[log p(x_n|z) - log h(x_n)] at the naturals etas (S, L).
    """
    value = np.sum(stats * etas) - mass @ fam.log_partition(family, etas)
    return value, stats - mass[:, None] * fam.grad_log_partition(family, etas)


def _entropy_rows(table: np.ndarray) -> np.ndarray:
    """Per-row entropies -sum_s q log q, counting 0 log 0 as 0."""
    terms = np.log(table, out=np.zeros_like(table), where=table > 0.0)
    terms *= table
    return -terms.sum(axis=1)


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


class _Objective:
    """What both evaluators derive from their (f1, f2, f3) and entropy sum.

    Each evaluator holds one dataset (or none, for entropy sums alone) and
    takes the model and q per call; q is in the evaluator's own form, as
    returned by posterior() or state_table().
    """

    def elbo(self, model: GenerativeModel, q) -> float:
        f1, f2, f3 = self.terms(model, q)
        return f1 - f2 - f3

    def report(self, model: GenerativeModel, q, pseudo: bool = False) -> ObjectiveReport:
        f1, f2, f3 = self.terms(model, q, pseudo)
        rhs = self.entropy_sum(model, q, pseudo)
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

    def grad_norm(self, model: GenerativeModel, q) -> float:
        """Norm of the exact ELBO gradient over (psi, theta), q fixed."""
        return float(np.linalg.norm(self.gradient(model, q)))

    def _check_n(self, n: int):
        if self.n is not None and n != self.n:
            raise ValueError("data and variational state disagree on N")


class FiniteObjective(_Objective):
    """Every finite-state ELBO quantity of one dataset, from one set of tables.

    The data are checked and their sufficient statistics and log base
    measures computed once, and so are the prior's statistics of the latent
    states. The per-state tables (noise naturals, log partitions, log prior
    masses) are built once per model, each by one batched call over all
    states, and kept for the latest model. Training, the objective reports
    and verify all evaluate through this class, so they share one
    arithmetic: the posterior subtracts each point's maximum before
    exponentiating, and 0 log 0 is 0.

    Per-point tables are states-major: loglik, posterior and state_table
    return (N, S) transposes of C-ordered (S, N) arrays. With few states and
    many points, every reduction over the points then runs over contiguous
    memory, and terms, gradient and entropy_sum read one layout.

    f3 and the gradient read q through noise_expectation(); only posterior
    and marginal_loglik build the (N, S) log-likelihood table.
    """

    def __init__(self, model: GenerativeModel, data=None):
        if not isinstance(model.latent_support, FiniteStates):
            raise IncompatibilityError(f"{model.model_kind} has no finite latent states")
        self.states = model.latent_support.states
        prior = model.prior.family
        self.prior_t = fam.batch_sufficient_stats(prior, self.states)
        self.prior_log_h = fam.batch_log_base_measure(prior, self.states)
        noise = model.noise.family
        self.n = None
        self.t, self.log_h = np.zeros((0, noise.natural_dim)), np.zeros(0)
        if data is not None:
            data = _check_data(model, data)
            self.n = len(data)
            if self.n:
                self.t = fam.batch_sufficient_stats(noise, data)
                self.log_h = fam.batch_log_base_measure(noise, data)
        self.mean_log_h = float(np.mean(self.log_h)) if self.n else 0.0
        self._model = None
        self._tables = None

    def tables(self, model: GenerativeModel):
        """(noise naturals (S, L), log partitions (S,), log prior masses (S,))."""
        if model is not self._model:
            etas = model.noise.eta(self.states, model.noise.params)
            log_parts = fam.log_partition(model.noise.family, etas)
            zeta = model.prior.zeta(model.prior.params)
            # fam.log_density's arithmetic, on the statistics computed once.
            log_prior = (
                self.prior_log_h
                + fam._dot(zeta, self.prior_t)
                - fam.log_partition(model.prior.family, zeta)
            )
            self._model, self._tables = model, (etas, log_parts, log_prior)
        return self._tables

    def state_table(self, model: GenerativeModel, q) -> np.ndarray:
        """q checked as an (N, S) table over the states, entries in [0, 1] and
        rows summing to 1, and returned states-major."""
        table = np.asarray(q, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(self.states):
            raise IncompatibilityError(f"q must be (N, {len(self.states)}), got {table.shape}")
        self._check_n(len(table))
        if not np.all((table >= 0.0) & (table <= 1.0)):  # NaN fails too
            raise ValueError("q's entries must lie in [0, 1]")
        if len(table) and np.max(np.abs(table.sum(axis=1) - 1.0)) > _ROW_NORM_TOL:
            raise ValueError("q's rows must sum to 1")
        return np.asfortranarray(table)

    def loglik(self, model: GenerativeModel) -> np.ndarray:
        """(N, S) log p(x_n | s) - log h(x_n), states-major."""
        etas, log_parts, _ = self.tables(model)
        ll = etas @ self.t.T
        ll -= log_parts[:, None]
        return ll.T

    def posterior(self, model: GenerativeModel) -> np.ndarray:
        """The exact posterior over the states, shape (N, S) states-major."""
        scores = self.loglik(model).T
        scores += self.tables(model)[2][:, None]
        scores -= scores.max(axis=0)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=0)
        return scores.T

    def _noise_expectation(self, model: GenerativeModel, table: np.ndarray):
        """noise_expectation() at the model's noise naturals and q's statistics."""
        etas = self.tables(model)[0]
        return noise_expectation(model.noise.family, etas, table.sum(axis=0), table.T @ self.t)

    def terms(self, model: GenerativeModel, table: np.ndarray, pseudo: bool = False):
        """(f1, f2, f3) of the module docstring."""
        log_prior = self.tables(model)[2]
        f1 = float(np.mean(_entropy_rows(table)))
        f2 = float(-np.mean(table @ log_prior))
        f3 = float(-self._noise_expectation(model, table)[0] / self.n)
        return f1, f2, f3 if pseudo else f3 - self.mean_log_h

    def gradient(self, model: GenerativeModel, table: np.ndarray) -> np.ndarray:
        """The exact ELBO gradient over (psi, theta) with q held fixed.

        Moment matching: with qbar the mean state probabilities, the prior
        part is J_zeta^T (E_qbar[T(z)] - grad A(zeta)), and the noise part is
        (1/N) sum_s J_eta(z_s)^T G_s with G from noise_expectation(). Both
        variants share it: log h(x) is constant.
        """
        qbar = table.mean(axis=0)
        zeta = model.prior.zeta(model.prior.params)
        g_zeta = qbar @ self.prior_t - fam.grad_log_partition(model.prior.family, zeta)
        g_eta = self._noise_expectation(model, table)[1] / self.n
        return np.concatenate(
            [mdl.jacobian_zeta(model).T @ g_zeta, mdl.vjp_eta(model, self.states, g_eta)]
        )

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

    def marginal_loglik(self, model: GenerativeModel) -> float:
        """(1/N) sum_n log p(x_n), the states summed out."""
        if not self.n:
            raise ValueError("marginal log-likelihood of an empty dataset")
        scores = self.loglik(model) + self.tables(model)[2] + self.log_h[:, None]
        return float(np.mean(fam.logsumexp(scores, axis=1)))


def _gaussian_model_parts(model: GenerativeModel):
    """Returns (W, mu, noise_variances (D,), tau) for ppca / simple_fa."""
    if model.model_kind == "ppca":
        w, mu, s2, tau = ppca_components(model)
        return w, mu, np.full(w.shape[0], s2), tau
    wv, s2s, tau = fa_components(model)
    return wv[:, None], np.zeros(wv.size), s2s, tau


def _second_moment(q: GaussianMoments) -> float:
    """tr S + mean ||m_n||^2, the mean of E_q[||z||^2] over the rows."""
    return float(np.trace(q.cov)) + float(np.mean(np.sum(q.means**2, axis=1)))


def _q_entropy(q: GaussianMoments) -> float:
    """Entropy of each N(means[n], cov), shared by every row."""
    sign, logdet = np.linalg.slogdet(q.cov)
    if sign <= 0:
        raise ValueError("covariance must be positive definite")
    return 0.5 * q.means.shape[1] * math.log(2.0 * math.pi * math.e) + 0.5 * logdet


class GaussianObjective(_Objective):
    """Every linear-Gaussian (ppca, simple_fa) ELBO quantity of one dataset.

    Closed-form Gaussian moment algebra on GaussianMoments. The observation
    families carry unit base measures, so the pseudo variants equal the
    standard ones and `pseudo` only labels the report.
    """

    mean_log_h = 0.0

    def __init__(self, model: GenerativeModel, data=None):
        self.data = None if data is None else _check_data(model, data)
        self.n = None if data is None else len(self.data)

    def posterior(self, model: GenerativeModel) -> GaussianMoments:
        w, mu, s2s, tau = _gaussian_model_parts(model)
        precision = (w.T / s2s) @ w + np.eye(w.shape[1]) / tau
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        return GaussianMoments(((self.data - mu) / s2s) @ w @ cov, cov)

    def state_table(self, model: GenerativeModel, q) -> GaussianMoments:
        """q itself, checked against the model's latent dimension and N."""
        if not isinstance(q, GaussianMoments):
            raise IncompatibilityError(f"unsupported variational state {type(q).__name__}")
        if q.means.shape[1] != model.latent_support.dim:
            raise IncompatibilityError("latent dimension mismatch")
        self._check_n(len(q.means))
        return q

    def terms(self, model: GenerativeModel, q: GaussianMoments, pseudo: bool = False):
        """(f1, f2, f3) of the module docstring."""
        w, mu, s2s, tau = _gaussian_model_parts(model)
        h = q.means.shape[1]
        f1 = _q_entropy(q)
        f2 = 0.5 * _second_moment(q) / tau + 0.5 * h * math.log(2.0 * math.pi * tau)
        _, quad_per_dim = self._residuals(w, mu, q)
        f3 = float(
            np.sum(0.5 * np.log(2.0 * math.pi * s2s) + 0.5 * quad_per_dim / s2s)
        )
        return f1, f2, f3

    def _residuals(self, w, mu, q: GaussianMoments):
        """r = x - m W^T - mu, and per dimension mean r_d^2 + w_d^T S w_d."""
        resid = self.data - q.means @ w.T - mu
        return resid, np.mean(resid**2, axis=0) + np.einsum("dh,hk,dk->d", w, q.cov, w)

    def gradient(self, model: GenerativeModel, q: GaussianMoments) -> np.ndarray:
        """The exact ELBO gradient over (psi, theta) with q held fixed.

        theta is ordered as the model stores it: [W (column-major), mu,
        sigma2] for ppca, whose sigma2 is shared across dimensions, and
        [sigma2s, w] for simple_fa.
        """
        w, mu, s2s, tau = _gaussian_model_parts(model)
        h = q.means.shape[1]
        d_tau = 0.5 * _second_moment(q) / tau**2 - 0.5 * h / tau
        resid, quad_per_dim = self._residuals(w, mu, q)
        d_w = (resid.T @ q.means / self.n - w @ q.cov) / s2s[:, None]
        d_s2 = -0.5 / s2s + 0.5 * quad_per_dim / s2s**2
        if model.model_kind == "ppca":
            d_theta = [d_w.ravel(order="F"), resid.mean(axis=0) / s2s, [d_s2.sum()]]
        else:
            d_theta = [d_s2, d_w[:, 0]]
        return np.concatenate([[d_tau], *d_theta])

    def entropy_sum(self, model: GenerativeModel, q: GaussianMoments, pseudo: bool = False):
        _, _, s2s, tau = _gaussian_model_parts(model)
        h = q.means.shape[1]
        prior_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e * tau)
        noise_entropy = float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * s2s)))
        return _q_entropy(q) - prior_entropy - noise_entropy

    def marginal_loglik(self, model: GenerativeModel) -> float:
        """(1/N) sum_n log p(x_n) under the Gaussian marginal."""
        if not self.n:
            raise ValueError("marginal log-likelihood of an empty dataset")
        w, mu, s2s, tau = _gaussian_model_parts(model)
        d = w.shape[0]
        cov = tau * (w @ w.T) + np.diag(s2s)
        chol = np.linalg.cholesky(cov)
        solved = np.linalg.solve(chol, (self.data - mu).T)
        quad = np.mean(np.sum(solved**2, axis=0))
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return float(-0.5 * (d * math.log(2.0 * math.pi) + logdet + quad))


# ---------------------------------------------------------------------------
# Public operations.


def evaluator(model: GenerativeModel, data=None) -> Union[FiniteObjective, GaussianObjective]:
    """The model's exact evaluator, picked from its latent support.

    Without data it serves only the entropy sums, which read none.
    """
    if isinstance(model.latent_support, FiniteStates):
        return FiniteObjective(model, data)
    if model.model_kind in ("ppca", "simple_fa"):
        return GaussianObjective(model, data)
    raise UnsupportedModelError(f"{model.model_kind} admits no exact ELBO here")


# exact_posterior, elbo_terms and pseudo_elbo_terms are not called by the
# library: the benchmark's tracer (perfbench/tracer.py) looks each one up by
# name, and they go when its targets are moved to the evaluators.


def exact_posterior(model: GenerativeModel, data):
    """The model's exact per-point posterior, as its evaluator returns it."""
    return evaluator(model, data).posterior(model)


def elbo_terms(model: GenerativeModel, data, q) -> ObjectiveReport:
    """Exact three-term ELBO evaluation with the entropy-sum comparison."""
    ev = evaluator(model, data)
    return ev.report(model, ev.state_table(model, q))


def pseudo_elbo_terms(model: GenerativeModel, data, q) -> ObjectiveReport:
    """ELBO under the reweighted observation measure (base measure dropped)."""
    ev = evaluator(model, data)
    return ev.report(model, ev.state_table(model, q), pseudo=True)
