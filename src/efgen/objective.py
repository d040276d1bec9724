"""ELBO evaluation, entropy-sum right-hand sides, and their gap.

evaluator(model, data) is the one way in: it returns the model's exact
evaluator, whose methods give every quantity below. The variational
distribution q enters as per-point probabilities: for finite states a
row-stochastic table over the evaluator's distinct data rows, as posterior()
returns it, or a caller's table with one row per data point; for the
linear-Gaussian models GaussianMoments.

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

Every term is an average over data points, and a point enters only through
x_n, so equal rows of integer-valued data (Bernoulli, Poisson, categorical)
have the same exact posterior. FiniteObjective keeps each distinct row once,
in order of first occurrence, with the count of points it stands for, and
every sum over the points above becomes a count-weighted sum over the U
distinct rows. Real-valued data, and data with no repeated row, are kept as
they are (U = N), and no sum is weighted. A caller's table with one row per
point still evaluates exactly: f1 and f2 sum over its rows, and its masses
and statistics are summed per distinct row.

For finite states the noise term reads q only through each state's mass
w_s = sum_n q_ns and statistics B_s = sum_n q_ns t(x_n) (state_sums()):
N f3 = -sum_s [B_s . eta_s - w_s A(eta_s)] - sum_n log h(x_n), without the
last sum in the pseudo variant. noise_expectation() computes the bracket,
its eta-gradient G_s = B_s - w_s grad A(eta_s), and grad A(eta_s) itself.
On grouped rows, w and B are products of q's (U, S) table with the counts
and with the count-weighted statistics, which are formed once per dataset.

Two evaluators share one interface (the methods e_step, posterior,
marginal_loglik, state_table, terms, elbo, report, gradient and grad_norm,
and the attribute mean_log_h): FiniteObjective sums over the enumerated
states of mixtures and sigmoid belief nets, and GaussianObjective does the
moment algebra of the linear-Gaussian models.
evaluator() picks one from the model's latent support. The training loop,
the reports and verify all go through them, so verify recomputes a trained
model's ELBO, entropy sum and stationarity gradient with the arithmetic
training recorded them with. At the exact posterior the ELBO equals the mean
log marginal likelihood (1/N) sum_n log p(x_n): each evaluator defines only
e_step(), which returns both, and posterior() and marginal_loglik() are its
halves. Only the training loop's plateau test reads that ELBO: its records,
the reports and verify evaluate f1 - f2 - f3, and report() alone gives the
entropy sum. exact_posterior, elbo_terms and pseudo_elbo_terms remain only
as names the benchmark's tracer wraps.

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
from .models import FiniteStates, GenerativeModel, constructor_args

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

# Rows are grouped through a dense table indexed by their keys while the keys
# span at most this many values (an 8 MB table), else by a lexsort. Measured
# on 3 columns of counts, the table is 3-4 times faster from 10,000 rows, at
# most 0.5 ms slower below, and slower past 2**22 values. poisson-bulk's keys
# span 3.2e4 to 4.1e4 values, sbn-enumerate's 2**12.
_DENSE_KEYS = 2**20


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
    if not len(data):
        raise ValueError("empty dataset: data must hold at least one row")
    return data


def noise_expectation(family, etas: np.ndarray, mass: np.ndarray, stats: np.ndarray):
    """sum_s [B_s . eta_s - w_s A(eta_s)], G_s = B_s - w_s grad A(eta_s), and
    the expected statistics grad A(eta_s) (S, L) that G_s was formed from.

    With mass w_s = sum_n q_ns and stats rows B_s = sum_n q_ns t(x_n), the
    value is sum_n E_q[log p(x_n|z) - log h(x_n)] at the naturals etas (S, L).
    """
    value = np.sum(stats * etas) - mass @ fam.log_partition(family, etas)
    mean = fam.grad_log_partition(family, etas)
    return value, stats - mass[:, None] * mean, mean


def _group_rows(data: np.ndarray):
    """(first, inverse, counts) of the distinct rows of non-negative integer
    data, in order of first occurrence: data[first] holds the distinct rows,
    data[first][inverse] is data, and counts[u] rows equal row u.

    While the rows' keys, their indices in an array shaped by the columns'
    ranges (np.ravel_multi_index's, built a column at a time so that no
    integer copy of data exists), span at most _DENSE_KEYS values, each key's
    first row is scattered into a table of that size; otherwise the rows are
    compared by a lexicographic sort.
    """
    n = len(data)
    dims = [int(top) + 1 for top in data.max(axis=0)]
    size = math.prod(dims)
    if size <= _DENSE_KEYS:
        key = np.zeros(n, dtype=np.int64)
        for column, dim in zip(data.T, dims):
            key *= dim
            key += column.astype(np.int64)
        index = np.arange(n)
        label = np.full(size, n)  # each key's first row, then its group
        np.minimum.at(label, key, index)
        first = np.flatnonzero(label[key] == index)
        label[key[first]] = np.arange(len(first))
        inverse = label[key]
        return first, inverse, np.bincount(inverse)
    order = np.lexsort(data.T)
    new = np.concatenate([[True], np.any(np.diff(data[order], axis=0) != 0, axis=1)])
    first = np.minimum.reduceat(order, np.flatnonzero(new))  # each group's first row
    rank = np.argsort(first)
    label = np.empty_like(rank)
    label[rank] = np.arange(len(rank))
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = label[np.cumsum(new) - 1]
    return first[rank], inverse, np.bincount(inverse)


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
    """What both evaluators derive from their e_step, terms and entropy sum.

    Each evaluator holds one non-empty dataset and takes the model and q
    per call; q is in the evaluator's own form, as returned by posterior()
    or state_table().
    """

    def posterior(self, model: GenerativeModel):
        """e_step's exact posterior, in the evaluator's form of q."""
        return self.e_step(model)[0]

    def marginal_loglik(self, model: GenerativeModel) -> float:
        """(1/N) sum_n log p(x_n), e_step's ELBO at the exact posterior."""
        return self.e_step(model)[1]

    def elbo(self, model: GenerativeModel, q) -> float:
        f1, f2, f3 = self.terms(model, q)
        return f1 - f2 - f3

    def report(self, model: GenerativeModel, q, pseudo: bool = False) -> ObjectiveReport:
        """The terms and the entropy sum, which share one f1."""
        f1, f2, f3 = self.terms(model, q, pseudo)
        rhs = self._entropy_sum(model, q, f1, pseudo)
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
        """Norm of the exact ELBO gradient over (psi, theta), q fixed; a plain
        norm that overflows is retaken on g scaled by its largest |entry|."""
        g = self.gradient(model, q)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(g))
        if math.isinf(norm) and np.all(np.isfinite(g)):
            scale = float(np.max(np.abs(g)))
            norm = scale * float(np.linalg.norm(g / scale))
        return norm


class FiniteObjective(_Objective):
    """Every finite-state ELBO quantity of one dataset, from one set of tables.

    The data are checked on every row, then integer-valued rows are grouped:
    rows (U, D) holds each distinct row once, in order of first occurrence,
    counts (U,) how many data points it stands for, and inverse (N,) each
    point's distinct row, so rows[inverse] is the data. Real-valued rows, and
    rows none of which repeats, are kept as they are, with counts None, and
    no sum is weighted. The distinct rows' sufficient statistics t (U, L),
    their count-weighted copy for grouped rows, and their log base measures
    log_h (U,) are computed once, and so are the prior's statistics of the
    latent states; n stays the number of data points.
    The per-state tables (noise naturals, log partitions, log prior masses)
    are built once per model, each by one batched call over all states, and
    kept for the latest model. Training, the objective reports and verify
    all evaluate through this class, so they share one arithmetic: the
    posterior subtracts each row's maximum before exponentiating, and
    0 log 0 is 0.

    q is a (U, S) table over the distinct rows, as posterior() returns it,
    or a caller's (N, S) table with one row per data point; every mean over
    the points weights a distinct row of grouped data by its count. With no
    repeated rows the two coincide, and every table is the one each point
    would give.
    Per-row tables are states-major: loglik, posterior and state_table
    return (U, S) or (N, S) transposes of C-ordered arrays. With few states
    and many rows, every reduction over the rows then runs over contiguous
    memory, and terms, gradient and report read one layout.

    f3 and the gradient read q through state_sums() and noise_expectation();
    only e_step builds the (U, S) log-likelihood table.
    """

    def __init__(self, model: GenerativeModel, data):
        if not isinstance(model.latent_support, FiniteStates):
            raise IncompatibilityError(f"{model.model_kind} has no finite latent states")
        self.states = model.latent_support.states
        prior = model.prior.family
        self.prior_t = fam.batch_sufficient_stats(prior, self.states)
        self.prior_log_h = fam.batch_log_base_measure(prior, self.states)
        noise = model.noise.family
        data = _check_data(model, data)
        self.n = len(data)
        self.rows, self.inverse, self.counts = data, np.arange(self.n), None
        self.t = fam.batch_sufficient_stats(noise, data)  # checks every row
        # Real-valued rows rarely repeat: looking for repeats would only cost.
        if noise.integer_valued:
            first, inverse, counts = _group_rows(data)
            if len(first) < self.n:
                self.rows, self.t = data[first], self.t[first]
                self.counts, self.inverse = counts.astype(float), inverse
        # Each distinct row's statistics weighted by its count, so that state
        # sums over a (U, S) table are two products.
        self._ct = None if self.counts is None else self.counts[:, None] * self.t
        self.log_h = fam.batch_log_base_measure(noise, self.rows)
        self.mean_log_h = float(self._mean(self.log_h))
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
        """q checked as a (U, S) table over the distinct rows or an (N, S)
        table over the data points, entries in [0, 1] and rows summing to 1,
        and returned states-major."""
        table = np.asarray(q, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(self.states):
            raise IncompatibilityError(
                f"q must be (N, {len(self.states)}) over the data points or "
                f"(U, {len(self.states)}) over the distinct rows, got {table.shape}"
            )
        if len(table) not in (self.n, len(self.rows)):
            raise ValueError("data and variational state disagree on N")
        if not np.all((table >= 0.0) & (table <= 1.0)):  # NaN fails too
            raise ValueError("q's entries must lie in [0, 1]")
        if np.max(np.abs(table.sum(axis=1) - 1.0)) > _ROW_NORM_TOL:
            raise ValueError("q's rows must sum to 1")
        return np.asfortranarray(table)

    def _over_rows(self, table: np.ndarray) -> bool:
        """Whether table has one row per distinct row of grouped data (else
        one per point)."""
        return self.counts is not None and len(table) == len(self.counts)

    def _mean(self, values: np.ndarray):
        """The mean over the data points of values given per row of a q table,
        along its first axis: a distinct row counts as many points as it
        stands for. A (U, S) table's mean is state_sums' mass over n; a
        vector keeps the count-weighted sum that e_step's ELBO reads."""
        if self._over_rows(values):
            if values.ndim == 2:
                return values.T @ self.counts / self.n
            values = values * self.counts
        return np.sum(values, axis=0) / self.n

    def state_sums(self, table: np.ndarray):
        """Each state's mass w_s = sum_n q_ns (S,) and statistics
        B_s = sum_n q_ns t(x_n) (S, L).

        A (U, S) table over grouped rows gives both as products with the
        counts and the count-weighted statistics, built once; a caller's
        (N, S) table over grouped rows is first summed per distinct row."""
        if self._over_rows(table):
            return table.T @ self.counts, table.T @ self._ct
        if self.counts is not None:  # a caller's row per data point
            summed = np.zeros((len(self.counts), table.shape[1]), order="F")
            np.add.at(summed, self.inverse, table)
            table = summed
        return table.sum(axis=0), table.T @ self.t

    def loglik(self, model: GenerativeModel) -> np.ndarray:
        """(U, S) log p(x_u | s) - log h(x_u) of the distinct rows, states-major."""
        etas, log_parts, _ = self.tables(model)
        ll = etas @ self.t.T
        ll -= log_parts[:, None]
        return ll.T

    def e_step(self, model: GenerativeModel):
        """(q, elbo) from one normalisation: q is the exact posterior over the
        states of each distinct row, shape (U, S) states-major (data point n's
        is row inverse[n]), and elbo the ELBO at q, the mean over the points of
        each row's log normaliser plus mean_log_h."""
        scores = self.loglik(model).T
        scores += self.tables(model)[2][:, None]
        top = scores.max(axis=0)
        scores -= top
        np.exp(scores, out=scores)
        total = scores.sum(axis=0)
        scores /= total
        return scores.T, float(self._mean(top + np.log(total))) + self.mean_log_h

    def _noise_expectation(self, model: GenerativeModel, mass, stats):
        """noise_expectation() at the model's noise naturals."""
        return noise_expectation(model.noise.family, self.tables(model)[0], mass, stats)

    def terms(self, model: GenerativeModel, table: np.ndarray, pseudo: bool = False):
        """(f1, f2, f3) of the module docstring."""
        log_prior = self.tables(model)[2]
        f1 = float(self._mean(_entropy_rows(table)))
        f2 = float(-self._mean(table @ log_prior))
        f3 = float(-self._noise_expectation(model, *self.state_sums(table))[0] / self.n)
        return f1, f2, f3 if pseudo else f3 - self.mean_log_h

    def gradient(self, model: GenerativeModel, table: np.ndarray) -> np.ndarray:
        """The exact ELBO gradient over (psi, theta) with q held fixed.

        Moment matching: with qbar the mean state probabilities, the prior
        part is J_zeta^T (E_qbar[T(z)] - grad A(zeta)), and the noise part is
        (1/N) sum_s J_eta(z_s)^T G_s with G from noise_expectation(). Both
        variants share it: log h(x) is constant.
        """
        mass, stats = self.state_sums(table)
        qbar = mass / self.n
        zeta = model.prior.zeta(model.prior.params)
        g_zeta = qbar @ self.prior_t - fam.grad_log_partition(model.prior.family, zeta)
        g_eta = self._noise_expectation(model, mass, stats)[1] / self.n
        return np.concatenate(
            [mdl.jacobian_zeta(model).T @ g_zeta, mdl.vjp_eta(model, self.states, g_eta)]
        )

    def _entropy_sum(self, model: GenerativeModel, table: np.ndarray, f1: float, pseudo: bool):
        entropy = fam.pseudo_entropy if pseudo else _natural_entropy
        etas = self.tables(model)[0]
        prior_entropy = entropy(model.prior.family, model.prior.zeta(model.prior.params))
        noise_entropies = entropy(model.noise.family, etas)
        return f1 - prior_entropy - float(self._mean(table) @ noise_entropies)


def _gaussian_model_parts(model: GenerativeModel):
    """Returns (W, mu, noise_variances (D,), tau) for ppca / simple_fa."""
    args = constructor_args(model)
    w, tau = args["w"], args["tau"]
    if model.model_kind == "ppca":
        return w, args["mu"], np.full(w.shape[0], args["sigma2"]), tau
    return w[:, None], np.zeros(w.size), args["sigma2s"], tau


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

    def __init__(self, model: GenerativeModel, data):
        self.data = _check_data(model, data)
        self.n = len(self.data)

    def e_step(self, model: GenerativeModel):
        """(q, elbo): q the exact posterior, and elbo the ELBO at q, the mean
        log marginal likelihood under the Gaussian marginal
        N(mu, tau W W^T + diag(noise variances)), from its Cholesky factor."""
        w, mu, s2s, tau = _gaussian_model_parts(model)
        precision = (w.T / s2s) @ w + np.eye(w.shape[1]) / tau
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        q = GaussianMoments(((self.data - mu) / s2s) @ w @ cov, cov)
        chol = np.linalg.cholesky(tau * (w @ w.T) + np.diag(s2s))
        solved = np.linalg.solve(chol, (self.data - mu).T)
        quad = np.mean(np.sum(solved**2, axis=0))
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        return q, float(-0.5 * (w.shape[0] * math.log(2.0 * math.pi) + logdet + quad))

    def state_table(self, model: GenerativeModel, q) -> GaussianMoments:
        """q itself, checked against the model's latent dimension and N."""
        if not isinstance(q, GaussianMoments):
            raise IncompatibilityError(f"unsupported variational state {type(q).__name__}")
        if q.means.shape[1] != model.latent_support.dim:
            raise IncompatibilityError("latent dimension mismatch")
        if len(q.means) != self.n:
            raise ValueError("data and variational state disagree on N")
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

    def _entropy_sum(self, model: GenerativeModel, q: GaussianMoments, f1: float, pseudo: bool):
        _, _, s2s, tau = _gaussian_model_parts(model)
        h = q.means.shape[1]
        prior_entropy = 0.5 * h * math.log(2.0 * math.pi * math.e * tau)
        noise_entropy = float(np.sum(0.5 * np.log(2.0 * math.pi * math.e * s2s)))
        return f1 - prior_entropy - noise_entropy


# ---------------------------------------------------------------------------
# Public operations.


def evaluator(model: GenerativeModel, data) -> Union[FiniteObjective, GaussianObjective]:
    """The model's exact evaluator of data, a non-empty (N, D) array, picked
    from its latent support; empty data raise ValueError."""
    if isinstance(model.latent_support, FiniteStates):
        return FiniteObjective(model, data)
    if model.model_kind in ("ppca", "simple_fa"):
        return GaussianObjective(model, data)
    raise UnsupportedModelError(f"{model.model_kind} admits no exact ELBO here")


# exact_posterior, elbo_terms and pseudo_elbo_terms are not called by the
# library: the benchmark's tracer (perfbench/tracer.py) looks each one up by
# name, and they go when its targets are moved to the evaluators.


def exact_posterior(model: GenerativeModel, data):
    """The model's exact posterior, as its evaluator returns it: for finite
    states per distinct data row (row inverse[n] is point n's)."""
    return evaluator(model, data).posterior(model)


def elbo_terms(model: GenerativeModel, data, q) -> ObjectiveReport:
    """Exact three-term ELBO evaluation with the entropy-sum comparison."""
    ev = evaluator(model, data)
    return ev.report(model, ev.state_table(model, q))


def pseudo_elbo_terms(model: GenerativeModel, data, q) -> ObjectiveReport:
    """ELBO under the reweighted observation measure (base measure dropped)."""
    ev = evaluator(model, data)
    return ev.report(model, ev.state_table(model, q), pseudo=True)
