"""Training to stationary points: mixture EM, linear-Gaussian fits, SBN ascent.

Every trainer has one shape, trainer(model, data, config) -> Fit, and one
loop, _train, runs them all: it alternates the trainer's M-step with an exact
E-step from the model's evaluator (objective.FiniteObjective or
objective.GaussianObjective). Exact E-steps make the reached fixed points
true stationary points of the ELBO in all parameters (variational-side
stationarity is implied by exact-posterior optimality). Stopping demands
both an ELBO plateau and a small exact gradient norm (the evaluator's
closed form, q held fixed); a plateau alone is not accepted.

Both finite-state M-steps read q only through each state's mass w_s and
statistics B_s, which the E-step's record (objective.QRecord) holds. The
mixture M-step is moment matching: grad A(eta_s) = B_s / w_s zeroes the
noise gradient G_s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import objective as obj
from .errors import DegenerateDataError, EmptyClusterError, NewtonConvergenceError
from .families import digamma, partition, polygamma
from .models import GenerativeModel, collapsed_component, constructor_args, make_ppca
from .models import replace_params, vjp_eta

__all__ = [
    "ELBO_REL_TOL",
    "TrainingConfig",
    "TraceRecord",
    "TrainingTrace",
    "Fit",
    "em_mixture",
    "mixture_m_step",
    "fit_ppca",
    "ppca_closed_form",
    "fit_sbn",
    "grad_norm_all_params",
    "gamma_shape_newton",
]

_EMPTY_CLUSTER_MASS = 1e-12

ELBO_REL_TOL = 1e-12  # a plateau: successive ELBOs differ by < this * max(1, |elbo|)


@dataclass(frozen=True)
class TrainingConfig:
    max_iters: int = 500
    grad_norm_tol: float = 1e-7
    seed: int = 0
    record_every: int = 1
    init: str = "auto"  # "auto": the trainer's own start; "model": the model passed

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_norm_tol > 0:
            raise ValueError("grad_norm_tol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.init not in ("auto", "model"):
            raise ValueError("init must be 'auto' or 'model'")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    elbo: float
    entropy_sum: float
    gap: float  # relative: |elbo - entropy_sum| / max(1, |elbo|)
    grad_norm: float
    wall_time: float


@dataclass
class TrainingTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""

    def last(self) -> TraceRecord:
        return self.records[-1]


@dataclass(frozen=True)
class Fit:
    """The trained model, its exact posterior, the training trace, and the
    evaluator that trained it.

    q is in the evaluator's form: for finite states the record of a (U, S)
    table over its distinct data rows (row evaluator.inverse[n] is data
    point n's), else GaussianMoments.
    """

    model: GenerativeModel
    q: obj.QRecord | obj.GaussianMoments
    trace: TrainingTrace
    evaluator: obj.FiniteObjective | obj.GaussianObjective


# Not called by the library: the benchmark's tracer (perfbench/tracer.py)
# looks this name up in learning and harness, so it stays until the tracer's
# targets move to the evaluators.
def grad_norm_all_params(model: GenerativeModel, data, q) -> float:
    """Norm of the exact ELBO gradient over every model parameter.

    The variational state is held fixed; at an exact-posterior fixed point
    this is the full stationarity check.
    """
    ev = obj.evaluator(model, data)
    return ev.grad_norm(model, ev.state_table(model, q))


def _train(ev, model: GenerativeModel, config: TrainingConfig, step) -> Fit:
    """Alternate model = step(model, q) with exact E-steps q, elbo =
    ev.e_step(model) from the evaluator ev.

    Stops at an ELBO plateau with a gradient norm below tolerance, or at the
    iteration cap; either way the last record is the final iteration's.
    Gradient checks on a plateau back off exponentially: EM tails can hold an
    ELBO plateau for thousands of iterations before the gradient drops below
    tolerance, and checking each of them would cost an entropy sum and a
    gradient per iteration. Only the plateau test reads the E-step's ELBO, the
    mean log marginal likelihood from the posterior's normalisers; a record
    takes its ELBO and entropy sum from one report, in the f1 - f2 - f3 form
    that the reports and verify evaluate, so an iteration that records nothing
    evaluates no terms. The step, the report and the gradient all read the
    E-step's record of q, reduced once.
    """
    trace = TrainingTrace()
    t0 = time.perf_counter()
    prev_elbo = None
    q = ev.posterior(model)
    check_interval, next_check = 1, 0
    for it in range(1, config.max_iters + 1):
        model = step(model, q)
        q, elbo = ev.e_step(model)
        plateau = (
            prev_elbo is not None
            and abs(elbo - prev_elbo) < ELBO_REL_TOL * max(1.0, abs(elbo))
        )
        if not plateau:
            check_interval, next_check = 1, it
        check_now = plateau and it >= next_check
        if check_now or it % config.record_every == 0 or it == config.max_iters:
            report = ev.report(model, q)
            grad = ev.grad_norm(model, q)
            trace.records.append(
                TraceRecord(
                    iteration=it,
                    elbo=report.elbo,
                    entropy_sum=report.entropy_sum,
                    gap=report.gap / max(1.0, abs(report.elbo)),
                    grad_norm=grad,
                    wall_time=time.perf_counter() - t0,
                )
            )
            if plateau and grad < config.grad_norm_tol:
                trace.converged = True
                trace.stop_reason = "elbo plateau with vanishing gradient"
                break
        if check_now:
            check_interval = min(2 * check_interval, 256)
            next_check = it + check_interval
        prev_elbo = elbo
    else:
        trace.stop_reason = (
            f"iteration cap {config.max_iters} reached "
            f"(grad_norm {grad:.3e}, tol {config.grad_norm_tol:.1e})"
        )
    return Fit(model, q, trace, ev)


# ---------------------------------------------------------------------------
# Mixture EM.


# The gamma shape's Newton iteration stops once a step moves the shape by less
# than _SHAPE_TOL * max(1, a), or no less than the step before it (rounding
# then drives the steps), and fails after _SHAPE_MAX_ITERS steps.
_SHAPE_MAX_ITERS = 100
_SHAPE_TOL = 1e-12


def gamma_shape_newton(s: float) -> float:
    """Solve log(a) - digamma(a) = s for the shape a > 0 by Newton iteration."""
    if not (s > 0.0) or not math.isfinite(s):
        raise NewtonConvergenceError(
            f"shape equation needs s > 0 (got {s!r}); data may be degenerate"
        )
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    last = math.inf
    for _ in range(_SHAPE_MAX_ITERS):
        f = math.log(a) - digamma(a) - s
        fprime = 1.0 / a - polygamma(1, a)
        if not fprime < 0.0:  # s at rounding level: the slope rounds to flat
            raise NewtonConvergenceError(f"shape equation flat at a={a:.3g}: degenerate data")
        step = f / fprime
        new = a - step
        while new <= 0.0:
            step *= 0.5
            new = a - step
        if abs(new - a) < _SHAPE_TOL * max(1.0, a) or abs(new - a) >= last:
            return new
        a, last = new, abs(new - a)
    raise NewtonConvergenceError(f"shape update failed to converge (s={s})")


def _moment_match(family, means: np.ndarray) -> np.ndarray:
    """Standard parameter rows whose expected statistics are the rows of
    means; a gaussian_scalar_var's variance averages the dimensions'."""
    name, d = family.name, family.data_dim
    if name in ("bernoulli_product", "poisson_product"):
        return means
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        mu = means[:, :d]
        var = means[:, d:] - mu * mu
        if name == "gaussian_scalar_var":
            var = var.mean(axis=1, keepdims=True)
        return np.hstack([mu, var])
    if name == "gamma":  # statistics (log x, x)
        alpha = np.array([gamma_shape_newton(math.log(x) - log_x) for log_x, x in means])
        return np.stack([alpha, alpha / means[:, 1]], axis=1)
    raise ValueError(f"no M-step for component family {name}")


def mixture_m_step(model: GenerativeModel, mass, stats) -> GenerativeModel:
    """Closed-form moment matching from each component's responsibility mass
    w_c (C,) and statistics B_c (C, L), as a QRecord holds them: weights
    w / sum(w), and components whose expected statistics are B_c / w_c.
    Raises on an empty cluster, and on a component that
    models.collapsed_component flags: a non-finite coordinate, or one at or
    within rounding of its domain's edge. That test is the only domain check:
    a component it passes lies in the family's standard domain.
    """
    if np.any(mass < _EMPTY_CLUSTER_MASS):
        dead = int(np.argmin(mass))
        raise EmptyClusterError(
            f"component {dead} received ~zero responsibility mass; "
            "restart with a different seed or fewer components"
        )
    weights = mass / mass.sum()
    family = model.noise.family
    rows = _moment_match(family, stats / mass[:, None])
    c = collapsed_component(family, rows, weights)
    if c is not None:
        raise DegenerateDataError(f"component {c} collapsed to the edge of its domain")
    return replace_params(model, psi=weights[:-1], theta=rows.ravel())


def _kmeanspp_init(model: GenerativeModel, ev: obj.FiniteObjective, rng) -> np.ndarray:
    """Soft responsibilities (U, C) over the evaluator ev's distinct rows
    from k-means++ seeding on the data themselves, as a Gaussian's x^2
    statistic would outweigh x.

    Distances are computed once per distinct row. Each draw picks a data
    point, from the distances repeated to one per point, so the draws and
    the sums over the points are those of seeding on every point.
    """
    c = model.latent_support.n_states
    rows, n = ev.rows, ev.n
    if c == 1:
        return np.ones((len(rows), 1))
    bound = 0.5 * math.sqrt(np.finfo(float).max / (n * rows.shape[1]))  # keeps every d2 sum finite
    if np.max(np.abs(rows)) > bound:
        raise DegenerateDataError("observations too large for k-means++ seeding; rescale them")
    centers = [rows[ev.inverse[rng.integers(n)]]]
    for _ in range(c - 1):
        d2 = np.min(np.stack([np.sum((rows - ctr) ** 2, axis=1) for ctr in centers]), axis=0)
        d2 = d2[ev.inverse]
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(rows[ev.inverse[rng.choice(n, p=probs)]])
    d2 = np.stack([np.sum((rows - ctr) ** 2, axis=1) for ctr in centers], axis=1)
    assign = np.argmin(d2, axis=1)
    resp = np.full((len(rows), c), 0.05 / max(c - 1, 1))
    resp[np.arange(len(rows)), assign] = 0.95
    return resp / resp.sum(axis=1, keepdims=True)


def em_mixture(model: GenerativeModel, data, config: TrainingConfig) -> Fit:
    """Exact-posterior EM for exponential-family mixtures.

    config.init "auto" seeds responsibilities k-means++-style on the data;
    "model" starts from the passed model's parameters. Both steps, and the
    seeding's first M-step, read q through the evaluator's state sums over
    its distinct rows; the seeding draws from every data point, so its
    draws do not depend on the grouping.
    """
    if model.model_kind != "ef_mixture":
        raise ValueError("em_mixture expects an ef_mixture model")
    ev = obj.FiniteObjective(model, data)
    if config.init == "auto":
        rng = np.random.default_rng(config.seed)
        q = ev.record(_kmeanspp_init(model, ev, rng))
        model = mixture_m_step(model, q.mass, q.stats)
    return _train(ev, model, config, lambda m, q: mixture_m_step(m, q.mass, q.stats))


# ---------------------------------------------------------------------------
# Probabilistic PCA.


def _ppca_ml_solution(data, h: int):
    """(W, mean, sigma2) of the eigen solution for (N, D) data, 1 <= h < D < N,
    and the data's covariance."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be (N, D)")
    n, d = data.shape
    if h < 1:
        raise ValueError("h must be at least 1")
    if h >= d:
        raise DegenerateDataError(
            "h must be strictly below the data dimension (noise variance would vanish)"
        )
    if n <= d:
        raise DegenerateDataError("need more data points than dimensions")
    # Keeps the mean's sums and every entry of centered.T @ centered finite.
    if np.max(np.abs(data)) > 0.5 * math.sqrt(np.finfo(float).max / n):
        raise DegenerateDataError("observations too large: their covariance would overflow")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = (centered.T @ centered) / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    sigma2 = float(np.mean(evals[h:]))
    # Rank h leaves sigma2 at rounding level, where EM can take it below zero.
    if sigma2 <= 0.0 or np.linalg.matrix_rank(cov) <= h:
        raise DegenerateDataError("data covariance rank too low for the requested h")
    if evals[h - 1] <= sigma2:
        raise DegenerateDataError("leading eigenvalues do not separate from the noise floor")
    w = evecs[:, :h] * np.sqrt(evals[:h] - sigma2)
    return w, mean, sigma2, cov


def ppca_closed_form(data, h: int) -> GenerativeModel:
    """The maximum-likelihood PPCA with h latents, by eigendecomposition."""
    w, mean, sigma2, _ = _ppca_ml_solution(data, h)
    return make_ppca(w, mean, sigma2, tau=1.0)


def fit_ppca(model: GenerativeModel, data, config: TrainingConfig) -> Fit:
    """EM with exact posteriors for a PPCA with the model's number of latents.

    Starts from a seeded perturbation of the closed-form solution
    (ppca_closed_form), so the agreement between the two is informative;
    config.init "model" is refused, as the passed parameters are not read.
    """
    if model.model_kind != "ppca":
        raise ValueError("fit_ppca expects a ppca model")
    if config.init == "model":
        raise ValueError("fit_ppca starts from the closed-form solution, not the model")
    w_ml, mean, sigma2_ml, cov = _ppca_ml_solution(data, model.latent_support.dim)

    def step(model, q):
        # Tipping & Bishop's EM update folds the posterior moments into the
        # sample covariance, so it reads the model and not q.
        args = constructor_args(model)
        w, sigma2 = args["w"], args["sigma2"]
        hdim = w.shape[1]
        minv = np.linalg.inv(w.T @ w + sigma2 * np.eye(hdim))
        sw = cov @ w
        w_new = sw @ np.linalg.inv(sigma2 * np.eye(hdim) + minv @ w.T @ sw)
        sigma2_new = float(np.trace(cov - sw @ minv @ w_new.T)) / len(cov)
        return make_ppca(w_new, mean, sigma2_new, tau=1.0)

    rng = np.random.default_rng(config.seed)
    model0 = make_ppca(w_ml + 0.05 * rng.normal(size=w_ml.shape), mean, sigma2_ml * 1.2, tau=1.0)
    return _train(obj.GaussianObjective(model0, data), model0, config, step)


# ---------------------------------------------------------------------------
# Sigmoid belief nets.


def _sbn_outer(states, offsets_free):
    """(S, K, K) outer products u_s u_s^T of the latent states, u_s = z_s with
    a 1 appended for a free offset: the Newton Hessians' fixed factor."""
    u = np.hstack([states, np.ones((len(states), 1))]) if offsets_free else states
    return u[:, :, None] * u[:, None, :]


def _sbn_newton_direction(grad, outer, curv):
    """Newton ascent direction; the M-step objective separates across observables.

    Each observable d owns an independent concave problem in (W_[d,:], mu_d)
    whose negated Hessian sum_s curv_sd u_s u_s^T, from _sbn_outer's table,
    is a small positive-definite matrix; solving those exactly, in one
    stacked solve, sidesteps the ill-conditioning that stalls plain gradient
    steps. Falls back to the gradient when the solve fails. theta is [W | mu]
    flattened column-major, so row d of grad.reshape(K, D).T is observable d's.
    """
    d, k = curv.shape[1], outer.shape[1]
    hess = (curv.T @ outer.reshape(len(outer), k * k)).reshape(d, k, k) + 1e-12 * np.eye(k)
    try:
        sol = np.linalg.solve(hess, grad.reshape(k, d).T[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return grad
    return sol.T.ravel()


def _armijo_step(evaluate, theta, direction, cur, slope):
    """(cand, *evaluate(cand)) for the first cand = theta + t direction,
    t = 1, 1/2, ... (60 halvings), whose gain is strictly positive and at
    least 1e-4 t slope; None if there is none.

    A strictly positive gain stops the walk once gains fall below float
    granularity (boundary suprema). A candidate that rounds to theta ends the
    search: every smaller t rounds to theta too, and theta gains nothing.
    """
    t = 1.0
    for _ in range(60):
        cand = theta + t * direction
        if np.array_equal(cand, theta):
            return None
        new, *rest = evaluate(cand)
        if new > cur and new - cur >= 1e-4 * t * slope:
            return (cand, new, *rest)
        t *= 0.5
    return None


def fit_sbn(model: GenerativeModel, data, config: TrainingConfig) -> Fit:
    """Exact enumerated E-steps alternated with closed-form latent-probability
    updates and damped Newton ascent on weights and offsets. config.init
    "auto" starts from seeded small weights, "model" from the model passed.

    The weights-and-offsets step maximizes the q-expected noise term,
    objective.noise_expectation() at the model's own eta, with its gradient
    pulled back through models.vjp_eta. Its Newton direction solves the D
    per-observable Hessians at once; an Armijo backtracking line search
    accepts only strict gains. The Newton loop decides its own end: once the
    squared Newton decrement g.H^-1 g (Boyd and Vandenberghe 2004, 9.5) is
    at most 4 eps max(sum_s |B_s . eta_s| + sum_s w_s |A(eta_s)|, N), from
    the model's tables at the start of the M-step, the step's predicted gain
    is below the rounding of the objective, a difference of those terms.
    config.grad_norm_tol is read only by the outer stopping test.
    The states' outer products are formed once per fit, and each evaluation
    of the noise term gives the expected statistics that the next Newton
    direction's curvature reads.

    Terminates only when the exact ELBO gradient over all parameters
    drops below config.grad_norm_tol alongside an ELBO plateau; hitting the
    iteration cap yields converged=False with diagnostics in stop_reason.
    """
    if model.model_kind != "sbn":
        raise ValueError("fit_sbn expects an sbn model")
    args = constructor_args(model)
    d, h = args["w"].shape
    offsets_free = args["offsets_free"]
    if config.init == "auto":
        rng = np.random.default_rng(config.seed)
        pi0 = 1.0 / (1.0 + np.exp(-rng.uniform(-1.0, 1.0, size=h)))
        w0 = 0.1 * rng.normal(size=(d, h))
        theta0 = w0.ravel(order="F")
        if offsets_free:
            theta0 = np.concatenate([theta0, np.zeros(d)])
        model = replace_params(model, psi=pi0, theta=theta0)

    ev = obj.FiniteObjective(model, data)
    states = ev.states
    outer = _sbn_outer(states, offsets_free)

    def step(model, q):
        # Contiguous copies of the record's views: every evaluation reads both.
        mass, stats = np.ascontiguousarray(q.mass), np.ascontiguousarray(q.stats)
        # Latent probabilities: exact coordinate maximizer given q.
        pi = np.clip(q.state_means @ states, 1e-12, 1.0 - 1e-12)

        # Weights and offsets: ascend the q-expected noise term. An evaluation
        # gives (value, G, grad A(eta)); the first reads the model's tables.
        def evaluate(theta):
            etas = model.noise.eta(states, theta)
            return obj.noise_expectation(etas, *partition(model.noise.family, etas), mass, stats)

        tables = ev.tables(model)
        cur, g_eta, mean = obj.noise_expectation(*tables[:3], mass, stats)
        # The objective's rounding: it is a difference of terms far larger
        # than itself. N bounds it below, as the objective shrinks toward an
        # optimum at infinity (a constant observable).
        scale = np.abs(np.sum(stats * tables.etas, axis=1)).sum() + mass @ np.abs(tables.log_parts)
        floor = 4.0 * np.finfo(float).eps * max(float(scale), ev.n)
        for _ in range(200):
            g = vjp_eta(model, states, g_eta)
            # Bernoulli observables: grad^2 A(eta_s) = diag(mean (1 - mean)).
            curv = mass[:, None] * mean * (1.0 - mean)
            direction = _sbn_newton_direction(g, outer, curv)
            # The squared Newton decrement, twice the full step's predicted gain.
            slope = float(g @ direction)
            if not slope > floor:
                break
            accepted = _armijo_step(evaluate, model.noise.params, direction, cur, slope)
            if accepted is None:
                break
            theta, cur, g_eta, mean = accepted
            model = replace_params(model, theta=theta)
        return replace_params(model, psi=pi)

    return _train(ev, model, config, step)
