"""ELBO evaluation, entropy-sum right-hand sides, and their gap.

evaluator(model, data) is the one way in: it returns the model's exact
evaluator, whose methods give every quantity below. The variational
distribution q enters as per-point probabilities: for finite states a
row-stochastic table over the evaluator's distinct data rows, as posterior()
returns it, or a caller's table with one row per data point, each reduced
once to a QRecord; for the linear-Gaussian models GaussianMoments.

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
they are (U = N), each with count 1. A caller's table with one row per point
still evaluates exactly: each of its rows weighs 1.

For finite states the noise term reads q only through each state's mass
w_s = sum_n q_ns and statistics B_s = sum_n q_ns t(x_n) (QRecord):
N f3 = -sum_s [B_s . eta_s - w_s A(eta_s)] - sum_n log h(x_n), without the
last sum in the pseudo variant. noise_expectation() computes the bracket and
its eta-gradient G_s = B_s - w_s grad A(eta_s), from A and grad A of one
families.partition() call per model (StateTables). A QRecord is q's table
and its rows' weights [c | c t]^T: each row's count c and its count-weighted
statistics, formed once per dataset for the kept rows, or [1 | t(x_n)]^T
for a caller's table with one row per point of grouped data. w and B are
one product of the weights with the table, f1 weights the row entropies by
the same counts and is kept once a report has computed it, and the mean
state probabilities w / N and f2 = -w . log p(z) / N are read from the
sums, so every quantity of one q reads one reduction.

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
entropy sum.

The stationarity gradient is exact, with q held fixed. For finite states it
is the moment-matching identity of exponential families (Wainwright and
Jordan 2008): G_s above, and the prior's expected statistics minus its
log-partition gradient, pulled back through the natural-parameter maps. For
the linear-Gaussian models it is the derivative of the closed-form terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from . import families as fam
from . import models as mdl
from .errors import DegenerateDataError, IncompatibilityError, UnsupportedModelError
from .models import FiniteStates, GenerativeModel, constructor_args

__all__ = [
    "GaussianMoments",
    "ObjectiveReport",
    "QRecord",
    "FiniteObjective",
    "GaussianObjective",
    "evaluator",
    "noise_expectation",
    "exact_posterior",
    "elbo_terms",
    "pseudo_elbo_terms",
]

_ROW_NORM_TOL = 1e-9

# Most values a finite-state evaluator's (U, S) tables may hold, checked before
# any is allocated: 10^8 float64 values are 0.8 GB, as many as
# harness.MAX_SYNTHETIC_VALUES allows a dataset.
MAX_TABLE_VALUES = 10**8

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


class StateTables(NamedTuple):
    """One model's per-state quantities: the noise naturals etas (S, L) with
    their families.partition(), A (S,) and grad A (S, L), as noise_expectation()
    takes them; the log prior masses (S,); the prior's grad A and entropy."""

    etas: np.ndarray
    log_parts: np.ndarray
    means: np.ndarray
    log_prior: np.ndarray
    prior_mean: np.ndarray
    prior_entropy: float


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


def noise_expectation(etas, log_parts, means, mass, stats):
    """sum_s [B_s . eta_s - w_s A(eta_s)], G_s = B_s - w_s grad A(eta_s), and
    means, at the naturals etas (S, L) with their families.partition(),
    log_parts A(eta_s) (S,) and means grad A(eta_s) (S, L). With mass w_s =
    sum_n q_ns and stats rows B_s = sum_n q_ns t(x_n), the value is
    sum_n E_q[log p(x_n|z) - log h(x_n)]."""
    return np.sum(stats * etas) - mass @ log_parts, stats - mass[:, None] * means, means


def _column_tops(data: np.ndarray):
    """Each column's largest value if every value of data is finite,
    non-negative and integral, as _group_rows' keys need; else None.

    Checked a column at a time (data.T), so no (N, D) temporary exists; on
    C-ordered rows of a few columns, each column's max is also far faster
    than data.max(axis=0).
    """
    tops = []
    for column in data.T:
        top = column.max()
        if not (np.isfinite(top) and column.min() >= 0.0 and np.all(np.floor(column) == column)):
            return None
        tops.append(top)
    return tops


def _group_rows(data: np.ndarray, tops):
    """(first, inverse, counts) of the distinct rows of non-negative integer
    data, whose columns' largest values are tops, in order of first
    occurrence: data[first] holds the distinct rows, data[first][inverse] is
    data, and counts[u] rows equal row u.

    While the rows' keys, their indices in an array shaped by the columns'
    ranges (np.ravel_multi_index's, built a column at a time so that no
    integer copy of data exists), span at most _DENSE_KEYS values, each key's
    first row is scattered into a table of that size; otherwise the rows are
    compared by a lexicographic sort.
    """
    n = len(data)
    dims = [int(top) + 1 for top in tops]
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


class QRecord:
    """Finite-state q reduced once: what FiniteObjective.e_step returns as
    its posterior, and state_table as a caller's q.

    A record is built from q's states-major table, (U, S) over the
    evaluator's distinct rows or (N, S) over the data points, made
    read-only, and its rows' weights (1 + L, rows): W = [c | c t]^T for a
    table over the distinct rows, each row's count c and its count-weighted
    statistics, or [1 | t(x_n)]^T for a table with one row per point. Its
    state sums, each state's mass w_s = sum_n q_ns (S,) and statistics
    B_s = sum_n q_ns t(x_n) (S, L), are one product (W table)^T (S, 1 + L),
    whose column 0 is w and the rest B. W is the left factor: OpenBLAS is
    slow with its few rows as the right one (on a (426, 256) table, one
    thread, table^T W^T took 138 us against 89 us). n is the number of data
    points. The state means and f2 are read from the sums; f1 weights the
    row entropies by row 0 of the weights on first use, and is then kept.
    """

    def __init__(self, table: np.ndarray, weights: np.ndarray, n: int):
        table.flags.writeable = False
        sums = (weights @ table).T
        self.table, self.mass, self.stats, self.n = table, sums[:, 0], sums[:, 1:], n
        self._counts = weights[0]

    @cached_property
    def f1(self) -> float:
        """-(1/N) sum_n E_q[log q], the mean entropy of q's rows."""
        return float(np.sum(_entropy_rows(self.table) * self._counts) / self.n)

    @property
    def state_means(self) -> np.ndarray:
        """(S,) the mean of q's rows over the points, qbar = w / N."""
        return self.mass / self.n

    def f2(self, log_prior: np.ndarray) -> float:
        """-(1/N) sum_n E_q[log p(z)] = -w . log p(z) / N, from a model's log
        prior masses (S,)."""
        return float(-(self.mass @ log_prior) / self.n)


class _Objective:
    """What both evaluators derive from their e_step, terms and entropy sum.

    Each evaluator holds one non-empty dataset and takes the model and q
    per call; q is in the evaluator's own form, as returned by posterior()
    or state_table(): a QRecord for finite states, GaussianMoments for the
    linear-Gaussian models.
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
        """The terms and the entropy sum, which share one f1. A finite-state
        record keeps its f1, f2 and state means, so the standard and pseudo
        reports of one q compute each once."""
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
        """Norm of the exact ELBO gradient over (psi, theta), q fixed, by
        math.hypot, which does not overflow while the norm is a finite float."""
        return math.hypot(*self.gradient(model, q).tolist())


class FiniteObjective(_Objective):
    """Every finite-state ELBO quantity of one dataset, from one set of tables.

    Integer-valued rows are grouped before any statistic is computed: rows
    (U, D) holds each distinct row once, in order of first occurrence, counts
    (U,) how many data points it stands for, and inverse (N,) each point's
    distinct row, so rows[inverse] is the data. Grouping first checks that
    every value is finite, non-negative and integral, a column at a time with
    no (N, D) copy; data that fail are not grouped. Real-valued rows, rows
    that fail that check, and rows none of which repeats are kept as they
    are, each with count 1: the rows are grouped iff len(rows) < n. The
    sufficient statistics t (U, L) and log base measures log_h (U,) are then
    computed on the kept rows only, once; every value sits in one of them,
    so the family checks every value against its support and refuses one
    outside it with its own SupportError. The weights W = [c | c t]^T
    (1 + L, U), each kept row's count c and its count-weighted statistics,
    and the prior's statistics of the latent states, are computed once too;
    n stays the number of data points.
    The per-state tables are built once per model by tables(), and kept for
    the latest model. Training, the objective reports and verify all
    evaluate through this class, so they share one arithmetic: the posterior
    subtracts each row's maximum before exponentiating, and 0 log 0 is 0.

    q is a QRecord, which record() builds from a table and its rows'
    weights: W for a table over the kept rows, each point's [1 | t(x_n)]^T
    for an (N, S) table over grouped rows. e_step returns the posterior as
    one, over the distinct rows (U, S); state_table checks a caller's
    (U, S) or (N, S) table and records it. With no repeated rows the two
    coincide, and every table is the one each point would give. terms,
    gradient, report and both M-steps read the record, so one q is reduced
    once however many of them read it.
    Per-row tables are states-major: loglik and the records' tables are
    (U, S) or (N, S) transposes of C-ordered arrays. With few states and
    many rows, every reduction over the rows then runs over contiguous
    memory.

    f3 and the gradient read q through its state sums and
    noise_expectation(); only e_step builds the (U, S) log-likelihood table.
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
        # Real-valued rows rarely repeat: looking for repeats would only cost.
        # Integer rows are grouped first; rows that cannot be keys are left
        # whole, for the family to refuse with its own message.
        tops = _column_tops(data) if noise.integer_valued else None
        grouped = None if tops is None else _group_rows(data, tops)
        if grouped is not None and len(grouped[0]) < self.n:
            first, self.inverse, counts = grouped
            self.rows, self.counts = data[first], counts.astype(float)
        else:
            self.rows, self.inverse, self.counts = data, np.arange(self.n), np.ones(self.n)
        # Every value sits in some row, so this checks every value's support.
        self.t = fam.batch_sufficient_stats(noise, self.rows)
        size = len(self.rows) * len(self.states)
        if size > MAX_TABLE_VALUES:
            raise DegenerateDataError(
                f"{len(self.rows)} distinct rows times {len(self.states)} latent states make "
                f"{size} values per table, more than {MAX_TABLE_VALUES}; use fewer rows or latents"
            )
        # W = [c | c t]^T (1 + L, U), each row's count and its count-weighted
        # statistics: the weights of every record of a table over the kept
        # rows, and e_step's ELBO is one dot with W[0].
        self._weights = np.empty((1 + self.t.shape[1], len(self.rows)))
        self._weights[0] = self.counts
        np.multiply(self.t.T, self.counts, out=self._weights[1:])
        self.log_h = fam.batch_log_base_measure(noise, self.rows)
        self.mean_log_h = float(np.sum(self.log_h * self.counts) / self.n)
        self._model = self._tables = None

    def tables(self, model: GenerativeModel) -> StateTables:
        """The model's StateTables, from one families.partition() call per natural array."""
        if model is not self._model:
            etas = model.noise.eta(self.states, model.noise.params)
            log_parts, means = fam.partition(model.noise.family, etas)
            zeta = model.prior.zeta(model.prior.params)
            prior_log_part, prior_mean = fam.partition(model.prior.family, zeta)
            # fam.log_density's arithmetic, on the statistics computed once.
            log_prior = self.prior_log_h + fam._dot(zeta, self.prior_t) - prior_log_part
            # Finite-state priors have unit base measures: pseudo-entropy is entropy.
            prior_entropy = float(fam._pseudo_entropy(zeta, prior_log_part, prior_mean))
            self._model = model
            self._tables = StateTables(etas, log_parts, means, log_prior, prior_mean, prior_entropy)
        return self._tables

    def state_table(self, model: GenerativeModel, q) -> QRecord:
        """q checked as a (U, S) table over the distinct rows or an (N, S)
        table over the data points, entries in [0, 1] and rows summing to 1,
        and reduced to a record over a states-major copy."""
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
        return self.record(np.array(table, order="F"))

    def record(self, table: np.ndarray) -> QRecord:
        """table's QRecord, made read-only. A table over the kept rows is
        weighted by W; a caller's (N, S) table over grouped rows by each
        point's [1 | t(x_n)]^T, built per call."""
        if len(table) == len(self.rows):
            return QRecord(table, self._weights, self.n)
        return QRecord(table, np.vstack([np.ones(self.n), self.t[self.inverse].T]), self.n)

    def loglik(self, model: GenerativeModel) -> np.ndarray:
        """(U, S) log p(x_u | s) - log h(x_u) of the distinct rows, states-major."""
        tables = self.tables(model)
        ll = tables.etas @ self.t.T
        ll -= tables.log_parts[:, None]
        return ll.T

    def e_step(self, model: GenerativeModel):
        """(q, elbo) from one normalisation: q is the record of the exact
        posterior over the states of each distinct row, a (U, S) states-major
        table (data point n's is row inverse[n]) with its state sums, and
        elbo the ELBO at q, the mean over the points of each row's log
        normaliser, one dot with the counts W[0], plus mean_log_h. Only the
        table is (U, S): neither the sums nor the ELBO form a second one."""
        scores = self.loglik(model).T
        scores += self.tables(model).log_prior[:, None]
        top = scores.max(axis=0)
        scores -= top
        np.exp(scores, out=scores)
        total = scores.sum(axis=0)
        scores /= total
        top += np.log(total)
        return self.record(scores.T), float(top @ self._weights[0]) / self.n + self.mean_log_h

    def terms(self, model: GenerativeModel, q: QRecord, pseudo: bool = False):
        """(f1, f2, f3) of the module docstring; f1 is q's kept one, and f2
        and f3 read its state sums."""
        tables = self.tables(model)
        f3 = float(-noise_expectation(*tables[:3], q.mass, q.stats)[0] / self.n)
        return q.f1, q.f2(tables.log_prior), f3 if pseudo else f3 - self.mean_log_h

    def gradient(self, model: GenerativeModel, q: QRecord) -> np.ndarray:
        """The exact ELBO gradient over (psi, theta) with q held fixed.

        Moment matching: with qbar the mean state probabilities, the prior
        part is J_zeta^T (E_qbar[T(z)] - grad A(zeta)), and the noise part is
        (1/N) sum_s J_eta(z_s)^T G_s with G from noise_expectation(). Both
        variants share it: log h(x) is constant.
        """
        tables = self.tables(model)
        g_zeta = q.state_means @ self.prior_t - tables.prior_mean
        g_eta = noise_expectation(*tables[:3], q.mass, q.stats)[1] / self.n
        return np.concatenate(
            [mdl.jacobian_zeta(model).T @ g_zeta, mdl.vjp_eta(model, self.states, g_eta)]
        )

    def _entropy_sum(self, model: GenerativeModel, q: QRecord, f1: float, pseudo: bool):
        # -eta.grad A + A is the entropy of a unit base measure, and unlike a
        # from_natural round trip it cannot saturate (a Bernoulli's at |eta| > 37).
        tables = self.tables(model)
        if pseudo or model.noise.family.base_measure_kind == "unit_constant":
            noise_entropies = fam._pseudo_entropy(*tables[:3])
        else:  # Poisson: its truncated-series entropy at the rates, grad A(eta)
            noise_entropies = fam.entropy(model.noise.family, tables.means)
        return f1 - tables.prior_entropy - float(q.state_means @ noise_entropies)


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
