"""Training to stationary points: mixture EM, linear-Gaussian fits, SBN ascent.

One loop, _train, runs every trainer: it alternates the trainer's M-step
with an exact E-step from the model's evaluator (objective.FiniteObjective
or objective.GaussianObjective). Exact E-steps make the reached fixed points
true stationary points of the ELBO in all parameters (variational-side
stationarity is implied by exact-posterior optimality). Stopping demands
both an ELBO plateau and a small exact gradient norm (the evaluator's
closed form, q held fixed); a plateau alone is not accepted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from . import objective as obj
from .errors import (
    DegenerateDataError,
    DomainError,
    EmptyClusterError,
    NewtonConvergenceError,
)
from .families import digamma, polygamma
from .models import GenerativeModel, collapsed_component, make_ppca, ppca_components
from .models import replace_params, vjp_eta

__all__ = [
    "ELBO_REL_TOL",
    "TrainingConfig",
    "TraceRecord",
    "TrainingTrace",
    "Fit",
    "PpcaFit",
    "em_mixture",
    "mixture_m_step",
    "fit_ppca",
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

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_norm_tol > 0:
            raise ValueError("grad_norm_tol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


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
    """The trained model, its exact posterior and the training trace.

    q is the evaluator's: an (N, S) state table or GaussianMoments.
    """

    model: GenerativeModel
    q: np.ndarray | obj.GaussianMoments
    trace: TrainingTrace


@dataclass(frozen=True)
class PpcaFit:
    """Eigendecomposition maximum-likelihood solution plus the EM-refined one."""

    model: GenerativeModel  # closed-form eigen solution
    q: obj.GaussianMoments
    trace: TrainingTrace  # from the EM refinement
    em_model: GenerativeModel
    em_q: obj.GaussianMoments


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


def _train(
    ev: obj.FiniteObjective | obj.GaussianObjective,
    model: GenerativeModel,
    config: TrainingConfig,
    step,
) -> Fit:
    """Alternate model = step(model, q) with exact E-steps q = ev.posterior(model).

    Stops at an ELBO plateau with a gradient norm below tolerance, or at the
    iteration cap. Gradient checks on a plateau back off exponentially: EM
    tails can hold an ELBO plateau for thousands of iterations before the
    gradient drops below tolerance, and checking each of them would cost an
    entropy sum and a gradient per iteration. A record reuses the
    iteration's ELBO, so each iteration evaluates terms once.
    """
    trace = TrainingTrace()
    t0 = time.perf_counter()
    prev_elbo = None
    q = ev.posterior(model)
    check_interval, next_check = 1, 0
    for it in range(1, config.max_iters + 1):
        model = step(model, q)
        q = ev.posterior(model)
        elbo = ev.elbo(model, q)
        plateau = (
            prev_elbo is not None
            and abs(elbo - prev_elbo) < ELBO_REL_TOL * max(1.0, abs(elbo))
        )
        if not plateau:
            check_interval, next_check = 1, it
        check_now = plateau and it >= next_check
        if check_now or it % config.record_every == 0 or it == config.max_iters:
            rhs = ev.entropy_sum(model, q)
            grad = ev.grad_norm(model, q)
            trace.records.append(
                TraceRecord(
                    iteration=it,
                    elbo=elbo,
                    entropy_sum=rhs,
                    gap=abs(elbo - rhs) / max(1.0, abs(elbo)),
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
    return Fit(model, q, trace)


# ---------------------------------------------------------------------------
# Mixture EM.


def gamma_shape_newton(s: float, max_iters: int = 100, tol: float = 1e-12) -> float:
    """Solve log(a) - digamma(a) = s for the shape a > 0 by Newton iteration."""
    if not (s > 0.0) or not math.isfinite(s):
        raise NewtonConvergenceError(
            f"shape equation needs s > 0 (got {s!r}); data may be degenerate"
        )
    a = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(max_iters):
        f = math.log(a) - digamma(a) - s
        fprime = 1.0 / a - polygamma(1, a)
        if not fprime < 0.0:  # s at rounding level: the slope rounds to flat
            raise NewtonConvergenceError(f"shape equation flat at a={a:.3g}: degenerate data")
        step = f / fprime
        new = a - step
        while new <= 0.0:
            step *= 0.5
            new = a - step
        if abs(new - a) < tol * max(1.0, a):
            return new
        a = new
    raise NewtonConvergenceError(f"shape update failed to converge (s={s})")


def _weighted_component_update(family, data, resp_c, mass_c):
    """Weighted maximum-likelihood parameters of one mixture component."""
    w = resp_c / mass_c
    name = family.name
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        mu = w @ data
        sq = w @ (data - mu) ** 2
        if name == "gaussian_scalar_var":
            return np.concatenate([mu, [float(np.mean(sq))]])
        return np.concatenate([mu, sq])
    if name == "poisson_product":
        return w @ data
    if name == "bernoulli_product":
        return w @ data
    if name == "gamma":
        x = data[:, 0]
        mean = float(w @ x)
        mean_log = float(w @ np.log(x))
        s = math.log(mean) - mean_log
        alpha = gamma_shape_newton(s)
        return np.array([alpha, alpha / mean])
    raise ValueError(f"no M-step for component family {name}")


def mixture_m_step(model: GenerativeModel, data: np.ndarray, resp: np.ndarray) -> GenerativeModel:
    """Closed-form weighted moment matching; raises on an empty cluster and
    on a component whose new parameters leave the family's domain or come
    within rounding of its edge."""
    info = model.info
    n = len(data)
    mass = resp.sum(axis=0)
    if np.any(mass < _EMPTY_CLUSTER_MASS):
        dead = int(np.argmin(mass))
        raise EmptyClusterError(
            f"component {dead} received ~zero responsibility mass; "
            "restart with a different seed or fewer components"
        )
    weights = mass / n
    family = info.component_family
    rows = np.array(
        [
            _weighted_component_update(family, data, resp[:, c], mass[c])
            for c in range(info.n_components)
        ]
    )
    c = collapsed_component(family, rows, weights)
    if c is not None:
        raise DegenerateDataError(f"component {c} collapsed to the edge of its domain")
    try:
        fam.check_standard(family, rows)  # one call: this runs every iteration
    except DomainError:
        for c, row in enumerate(rows):  # name the first component that left
            try:
                fam.check_standard(family, row)
            except DomainError as exc:
                raise DegenerateDataError(f"component {c} collapsed: {exc}") from exc
        raise
    return replace_params(model, psi=weights[:-1], theta=rows.ravel())


def _kmeanspp_init(model: GenerativeModel, data: np.ndarray, rng) -> np.ndarray:
    """Soft responsibilities from k-means++ seeding on sufficient statistics."""
    info = model.info
    c = info.n_components
    n = len(data)
    if c == 1:
        return np.ones((n, 1))
    stats = fam.batch_sufficient_stats(info.component_family, data)
    bound = 0.5 * math.sqrt(np.finfo(float).max / stats.size)  # keeps every d2 sum finite
    if np.max(np.abs(stats)) > bound:
        raise DegenerateDataError("observations too large for k-means++ seeding; rescale them")
    centers = [stats[rng.integers(n)]]
    for _ in range(c - 1):
        d2 = np.min(
            np.stack([np.sum((stats - ctr) ** 2, axis=1) for ctr in centers]), axis=0
        )
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(stats[rng.choice(n, p=probs)])
    d2 = np.stack([np.sum((stats - ctr) ** 2, axis=1) for ctr in centers], axis=1)
    assign = np.argmin(d2, axis=1)
    resp = np.full((n, c), 0.05 / max(c - 1, 1))
    resp[np.arange(n), assign] = 0.95
    return resp / resp.sum(axis=1, keepdims=True)


def em_mixture(
    model: GenerativeModel,
    data,
    config: TrainingConfig,
    init: str = "auto",
) -> Fit:
    """Exact-posterior EM for exponential-family mixtures.

    init="auto" seeds responsibilities k-means++-style on sufficient
    statistics; init="model" starts from the passed model's parameters.
    """
    if model.model_kind != "ef_mixture":
        raise ValueError("em_mixture expects an ef_mixture model")
    data = np.asarray(data, dtype=float)
    ev = obj.FiniteObjective(model, data)
    rng = np.random.default_rng(config.seed)
    if init == "auto":
        model = mixture_m_step(model, data, _kmeanspp_init(model, data, rng))
    elif init != "model":
        raise ValueError("init must be 'auto' or 'model'")
    return _train(ev, model, config, lambda m, resp: mixture_m_step(m, data, resp))


# ---------------------------------------------------------------------------
# Probabilistic PCA.


def _ppca_ml_solution(data: np.ndarray, h: int):
    n, d = data.shape
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
        raise DegenerateDataError(
            "leading eigenvalues do not separate from the noise floor"
        )
    w = evecs[:, :h] * np.sqrt(evals[:h] - sigma2)
    return w, mean, sigma2, cov


def fit_ppca(data, h: int, config: TrainingConfig) -> PpcaFit:
    """Closed-form eigen solution plus an EM-refined fit with exact posteriors.

    Requires 1 <= h < D < N; the mean is fitted jointly as the sample mean.
    The EM refinement starts from a seeded perturbation of the closed-form
    solution, so the agreement between the two is informative.
    """
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

    w_ml, mean, sigma2_ml, cov = _ppca_ml_solution(data, h)
    model_ml = make_ppca(w_ml, mean, sigma2_ml, tau=1.0)

    def step(model, q):
        # Tipping & Bishop's EM update folds the posterior moments into the
        # sample covariance, so it reads the model and not q.
        w, _, sigma2, _ = ppca_components(model)
        hdim = w.shape[1]
        minv = np.linalg.inv(w.T @ w + sigma2 * np.eye(hdim))
        sw = cov @ w
        w_new = sw @ np.linalg.inv(sigma2 * np.eye(hdim) + minv @ w.T @ sw)
        sigma2_new = float(np.trace(cov - sw @ minv @ w_new.T)) / d
        return make_ppca(w_new, mean, sigma2_new, tau=1.0)

    rng = np.random.default_rng(config.seed)
    model0 = make_ppca(w_ml + 0.05 * rng.normal(size=w_ml.shape), mean, sigma2_ml * 1.2, tau=1.0)
    ev = obj.GaussianObjective(model_ml, data)
    fit = _train(ev, model0, config, step)
    return PpcaFit(model_ml, ev.posterior(model_ml), fit.trace, fit.model, fit.q)


# ---------------------------------------------------------------------------
# Sigmoid belief nets.


def _sbn_newton_direction(grad, states, curv, offsets_free):
    """Newton ascent direction; the M-step objective separates across observables.

    Each observable d owns an independent concave problem in (W_[d,:], mu_d)
    whose negated Hessian sum_s curv_sd u_s u_s^T (u_s = z_s, with a 1
    appended for a free offset) is a small positive-definite matrix; solving
    those exactly, in one stacked solve, sidesteps the ill-conditioning that
    stalls plain gradient steps. Falls back to the gradient when the solve
    fails.
    """
    d, h = curv.shape[1], states.shape[1]
    u = np.hstack([states, np.ones((len(states), 1))]) if offsets_free else states
    k = u.shape[1]
    outer = (u[:, :, None] * u[:, None, :]).reshape(len(u), k * k)
    hess = (curv.T @ outer).reshape(d, k, k) + 1e-12 * np.eye(k)
    g = grad[: d * h].reshape(d, h, order="F")
    if offsets_free:
        g = np.hstack([g, grad[d * h :, None]])
    try:
        sol = np.linalg.solve(hess, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return grad
    direction = sol[:, :h].ravel(order="F")
    return np.concatenate([direction, sol[:, h]]) if offsets_free else direction


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


def fit_sbn(
    model: GenerativeModel,
    data,
    config: TrainingConfig,
    init: str = "auto",
) -> Fit:
    """Exact enumerated E-steps alternated with closed-form latent-probability
    updates and damped Newton ascent on weights and offsets.

    The weights-and-offsets step maximizes the q-expected noise term,
    objective.noise_expectation() at the model's own eta, with its gradient
    pulled back through models.vjp_eta. Its Newton direction solves the D
    per-observable Hessians at once; an Armijo backtracking line search
    accepts only strict gains.

    Terminates only when the exact ELBO gradient over all parameters
    drops below config.grad_norm_tol alongside an ELBO plateau; hitting the
    iteration cap yields converged=False with diagnostics in stop_reason.
    """
    if model.model_kind != "sbn":
        raise ValueError("fit_sbn expects an sbn model")
    data = np.asarray(data, dtype=float)
    info = model.info
    d, h = info.data_dim, info.n_latents
    rng = np.random.default_rng(config.seed)
    if init == "auto":
        pi0 = 1.0 / (1.0 + np.exp(-rng.uniform(-1.0, 1.0, size=h)))
        w0 = 0.1 * rng.normal(size=(d, h))
        theta0 = w0.ravel(order="F")
        if info.offsets_free:
            theta0 = np.concatenate([theta0, np.zeros(d)])
        model = replace_params(model, psi=pi0, theta=theta0)
    elif init != "model":
        raise ValueError("init must be 'auto' or 'model'")

    ev = obj.FiniteObjective(model, data)
    states = ev.states
    inner_tol = max(0.1 * config.grad_norm_tol, 1e-11)

    def step(model, table):
        # Latent probabilities: exact coordinate maximizer given q.
        marginals = table.mean(axis=0) @ states
        pi = np.clip(marginals, 1e-12, 1.0 - 1e-12)

        # Weights and offsets: ascend the q-expected noise term.
        mass, stats = table.sum(axis=0), table.T @ ev.t

        def evaluate(theta):
            etas = model.noise.eta(states, theta)
            value, g_eta = obj.noise_expectation(model.noise.family, etas, mass, stats)
            return value, etas, g_eta

        cur, etas, g_eta = evaluate(model.noise.params)
        for _ in range(200):
            g = vjp_eta(model, states, g_eta)
            if math.sqrt(float(g @ g)) < inner_tol * ev.n:
                break
            # Bernoulli observables: grad^2 A(eta_s) = diag(mean (1 - mean)).
            mean = fam.grad_log_partition(model.noise.family, etas)
            curv = mass[:, None] * mean * (1.0 - mean)
            direction = _sbn_newton_direction(g, states, curv, info.offsets_free)
            slope = float(g @ direction)
            if slope <= 0.0:  # fall back to plain ascent
                direction, slope = g, float(g @ g)
            accepted = _armijo_step(evaluate, model.noise.params, direction, cur, slope)
            if accepted is None:
                break
            theta, cur, etas, g_eta = accepted
            model = replace_params(model, theta=theta)
        return replace_params(model, psi=pi)

    return _train(ev, model, config, step)
