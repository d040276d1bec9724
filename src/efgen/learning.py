"""Training to stationary points: mixture EM, linear-Gaussian fits, SBN ascent.

Every E-step uses the exact posterior, so the reached fixed points are true
stationary points of the ELBO in all parameters (variational-side
stationarity is implied by exact-posterior optimality). Stopping demands
both an ELBO plateau and a small finite-difference gradient norm; a plateau
alone is not accepted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, polygamma

from . import families as fam
from . import objective as obj
from .errors import (
    DegenerateDataError,
    EmptyClusterError,
    NewtonConvergenceError,
)
from .models import GenerativeModel, make_ppca, replace_params

__all__ = [
    "TrainingConfig",
    "TraceRecord",
    "TrainingTrace",
    "MixtureFit",
    "PpcaFit",
    "SbnFit",
    "em_mixture",
    "mixture_m_step",
    "fit_ppca",
    "fit_sbn",
    "grad_norm_all_params",
    "gamma_shape_newton",
]

_EMPTY_CLUSTER_MASS = 1e-12


@dataclass(frozen=True)
class TrainingConfig:
    max_iters: int = 500
    elbo_rel_tol: float = 1e-12
    grad_norm_tol: float = 1e-7
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.elbo_rel_tol > 0 and self.grad_norm_tol > 0):
            raise ValueError("tolerances must be positive")
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
class MixtureFit:
    model: GenerativeModel
    q: obj.CategoricalTable
    trace: TrainingTrace


@dataclass(frozen=True)
class PpcaFit:
    """Eigendecomposition maximum-likelihood solution plus the EM-refined one."""

    model: GenerativeModel  # closed-form eigen solution
    q: obj.GaussianMoments
    trace: TrainingTrace  # from the EM refinement
    em_model: GenerativeModel
    em_q: obj.GaussianMoments


@dataclass(frozen=True)
class SbnFit:
    model: GenerativeModel
    q: obj.EnumeratedTable
    trace: TrainingTrace


def grad_norm_all_params(model: GenerativeModel, data, q) -> float:
    """Norm of the finite-difference ELBO gradient over every model parameter.

    The variational state is held fixed; at an exact-posterior fixed point
    this is the full stationarity check.
    """
    if isinstance(q, obj.GaussianMoments):
        data = np.asarray(data, dtype=float)

        def value(psi, theta):
            m = replace_params(model, psi, theta)
            f1, f2, f3 = obj._gaussian_terms(m, data, q)
            return f1 - f2 - f3

        return obj._fd_grad_norm(value, model.prior.params, model.noise.params)

    cache = obj.FiniteObjective(model, data)
    return cache.grad_norm(model, cache.state_table(model, q))


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
    """Closed-form weighted moment matching; raises on an empty cluster."""
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
    rows = [
        _weighted_component_update(info.component_family, data, resp[:, c], mass[c])
        for c in range(info.n_components)
    ]
    new_theta = np.concatenate(rows) if rows else np.zeros(0)
    return replace_params(model, psi=weights[:-1], theta=new_theta)


def _kmeanspp_init(model: GenerativeModel, data: np.ndarray, rng) -> np.ndarray:
    """Soft responsibilities from k-means++ seeding on sufficient statistics."""
    info = model.info
    c = info.n_components
    n = len(data)
    if c == 1:
        return np.ones((n, 1))
    stats = fam.batch_sufficient_stats(info.component_family, data)
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


def _record(
    trace: TrainingTrace,
    iteration: int,
    report: obj.ObjectiveReport,
    grad: float,
    t0: float,
) -> float:
    trace.records.append(
        TraceRecord(
            iteration=iteration,
            elbo=report.elbo,
            entropy_sum=report.entropy_sum,
            gap=report.gap / max(1.0, abs(report.elbo)),
            grad_norm=grad,
            wall_time=time.perf_counter() - t0,
        )
    )
    return grad


def em_mixture(
    model: GenerativeModel,
    data,
    config: TrainingConfig,
    init: str = "auto",
) -> MixtureFit:
    """Exact-posterior EM for exponential-family mixtures.

    init="auto" seeds responsibilities k-means++-style on sufficient
    statistics; init="model" starts from the passed model's parameters.
    """
    if model.model_kind != "ef_mixture":
        raise ValueError("em_mixture expects an ef_mixture model")
    data = np.asarray(data, dtype=float)
    cache = obj.FiniteObjective(model, data)
    rng = np.random.default_rng(config.seed)
    if init == "auto":
        model = mixture_m_step(model, data, _kmeanspp_init(model, data, rng))
    elif init != "model":
        raise ValueError("init must be 'auto' or 'model'")

    trace = TrainingTrace()
    t0 = time.perf_counter()
    prev_elbo = None
    table = cache.posterior(model)
    # Gradient checks on a plateau back off exponentially: EM tails can hold
    # an ELBO plateau for thousands of iterations before the gradient drops
    # below tolerance, and a finite-difference gradient per iteration would
    # dominate the run.
    check_interval, next_check = 1, 0
    for it in range(1, config.max_iters + 1):
        model = mixture_m_step(model, data, table)
        table = cache.posterior(model)
        elbo = cache.elbo(model, table)
        plateau = (
            prev_elbo is not None
            and abs(elbo - prev_elbo) < config.elbo_rel_tol * max(1.0, abs(elbo))
        )
        if not plateau:
            check_interval, next_check = 1, it
        check_now = plateau and it >= next_check
        grad = None
        if check_now or it % config.record_every == 0 or it == config.max_iters:
            grad = _record(
                trace, it, cache.report(model, table), cache.grad_norm(model, table), t0
            )
        if plateau and grad is not None and grad < config.grad_norm_tol:
            trace.converged = True
            trace.stop_reason = "elbo plateau with vanishing gradient"
            break
        if check_now:
            check_interval = min(2 * check_interval, 256)
            next_check = it + check_interval
        prev_elbo = elbo
    else:
        trace.stop_reason = f"iteration cap {config.max_iters} reached"
    return MixtureFit(model, obj.CategoricalTable(table), trace)


# ---------------------------------------------------------------------------
# Probabilistic PCA.


def _ppca_ml_solution(data: np.ndarray, h: int):
    n, d = data.shape
    mean = data.mean(axis=0)
    centered = data - mean
    cov = (centered.T @ centered) / n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    sigma2 = float(np.mean(evals[h:]))
    if sigma2 <= 0.0 or np.linalg.matrix_rank(cov) < h:
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
        raise ValueError("need more data points than dimensions")

    w_ml, mean, sigma2_ml, cov = _ppca_ml_solution(data, h)
    model_ml = make_ppca(w_ml, mean, sigma2_ml, tau=1.0)

    rng = np.random.default_rng(config.seed)
    w0 = w_ml + 0.05 * rng.normal(size=w_ml.shape)
    sigma20 = sigma2_ml * 1.2

    trace = TrainingTrace()
    t0 = time.perf_counter()
    w, sigma2 = w0, sigma20
    prev_elbo = None
    model_em = make_ppca(w, mean, sigma2, tau=1.0)
    for it in range(1, config.max_iters + 1):
        hdim = w.shape[1]
        m = w.T @ w + sigma2 * np.eye(hdim)
        minv = np.linalg.inv(m)
        sw = cov @ w
        w_new = sw @ np.linalg.inv(sigma2 * np.eye(hdim) + minv @ w.T @ sw)
        sigma2 = float(np.trace(cov - sw @ minv @ w_new.T)) / d
        w = w_new
        model_em = make_ppca(w, mean, sigma2, tau=1.0)
        q = obj.exact_posterior(model_em, data)
        elbo = obj.marginal_loglik(model_em, data)  # tight at the exact posterior
        plateau = (
            prev_elbo is not None
            and abs(elbo - prev_elbo) < config.elbo_rel_tol * max(1.0, abs(elbo))
        )
        if it % config.record_every == 0 or plateau or it == config.max_iters:
            report = obj.elbo_terms(model_em, data, q)
            grad = _record(trace, it, report, grad_norm_all_params(model_em, data, q), t0)
            if plateau and grad < config.grad_norm_tol:
                trace.converged = True
                trace.stop_reason = "elbo plateau with vanishing gradient"
                break
        prev_elbo = elbo
    else:
        trace.stop_reason = f"iteration cap {config.max_iters} reached"

    return PpcaFit(
        model=model_ml,
        q=obj.exact_posterior(model_ml, data),
        trace=trace,
        em_model=model_em,
        em_q=obj.exact_posterior(model_em, data),
    )


# ---------------------------------------------------------------------------
# Sigmoid belief nets.


def _sbn_m_objective(w_flat, mu, z_states, b, w_s, d, h):
    e = z_states @ w_flat.reshape(d, h, order="F").T + mu
    return float(np.sum(b * e) - w_s @ np.logaddexp(0.0, e).sum(axis=1))


def _sbn_m_gradient(w_flat, mu, z_states, b, w_s, d, h):
    e = z_states @ w_flat.reshape(d, h, order="F").T + mu
    r = b - w_s[:, None] / (1.0 + np.exp(-e))
    grad_w = r.T @ z_states  # (D, H)
    return np.concatenate([grad_w.ravel(order="F"), r.sum(axis=0)])


def _sbn_newton_direction(grad, w_flat, mu, z_states, b, w_s, d, h, offsets_free):
    """Newton ascent direction; the objective separates across observables.

    Each observable d owns an independent concave problem in (W_[d,:], mu_d)
    whose Hessian is a small negative-definite matrix; solving those exactly
    sidesteps the ill-conditioning that stalls plain gradient steps. Falls
    back to the gradient when a solve fails.
    """
    e = z_states @ w_flat.reshape(d, h, order="F").T + mu
    sig = 1.0 / (1.0 + np.exp(-e))
    curv = w_s[:, None] * sig * (1.0 - sig)  # (S, D)
    u = np.hstack([z_states, np.ones((len(z_states), 1))]) if offsets_free else z_states
    k = u.shape[1]
    grad_w = grad[: d * h].reshape(d, h, order="F")
    direction = np.empty_like(grad)
    dir_w = np.empty((d, h))
    dir_mu = np.empty(d)
    for di in range(d):
        hess = (u * curv[:, di][:, None]).T @ u
        g_d = np.concatenate([grad_w[di], [grad[d * h + di]]]) if offsets_free else grad_w[di]
        try:
            sol = np.linalg.solve(hess + 1e-12 * np.eye(k), g_d)
        except np.linalg.LinAlgError:
            sol = g_d
        dir_w[di] = sol[:h]
        dir_mu[di] = sol[h] if offsets_free else 0.0
    direction[: d * h] = dir_w.ravel(order="F")
    if offsets_free:
        direction[d * h :] = dir_mu
    return direction


def fit_sbn(
    model: GenerativeModel,
    data,
    config: TrainingConfig,
    init: str = "auto",
) -> SbnFit:
    """Exact enumerated E-steps alternated with closed-form latent-probability
    updates and Armijo backtracking gradient ascent on weights and offsets.

    Terminates only when the finite-difference gradient over all parameters
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

    cache = obj.FiniteObjective(model, data)
    z_states = np.asarray(model.latent_support.states, dtype=float)
    n_w = d * h
    x = data

    trace = TrainingTrace()
    t0 = time.perf_counter()
    prev_elbo = None
    inner_tol = max(0.1 * config.grad_norm_tol, 1e-11)
    table = cache.posterior(model)
    check_interval, next_check = 1, 0  # plateau-check backoff, as in em_mixture
    for it in range(1, config.max_iters + 1):
        # Latent probabilities: exact coordinate maximizer given q.
        marginals = table.mean(axis=0) @ z_states
        pi = np.clip(marginals, 1e-12, 1.0 - 1e-12)

        # Weights and offsets: ascend the q-expected complete-data term.
        b = table.T @ x  # (S, D)
        w_s = table.sum(axis=0)  # (S,)
        theta = model.noise.params.copy()
        mu_fixed = None if info.offsets_free else info.fixed_offsets

        def split(vec):
            wf = vec[:n_w]
            mu = vec[n_w:] if info.offsets_free else mu_fixed
            return wf, mu

        def value(vec):
            wf, mu = split(vec)
            return _sbn_m_objective(wf, mu, z_states, b, w_s, d, h)

        def gradient(vec):
            wf, mu = split(vec)
            g = _sbn_m_gradient(wf, mu, z_states, b, w_s, d, h)
            return g if info.offsets_free else g[:n_w]

        cur = value(theta)
        for _ in range(200):
            g = gradient(theta)
            if math.sqrt(float(g @ g)) < inner_tol * len(x):
                break
            direction = _sbn_newton_direction(
                g, *split(theta), z_states, b, w_s, d, h, info.offsets_free
            )
            slope = float(g @ direction)
            if slope <= 0.0:  # fall back to plain ascent
                direction, slope = g, float(g @ g)
            # Unit initial step (damped Newton); requiring a strictly
            # positive gain stops the walk once improvements fall below
            # float granularity (boundary suprema), instead of treading
            # water on zero-gain accepts.
            t = 1.0
            accepted = False
            for _ in range(60):
                cand = theta + t * direction
                new = value(cand)
                if new > cur and new - cur >= 1e-4 * t * slope:
                    theta, cur = cand, new
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break

        model = replace_params(model, psi=pi, theta=theta)
        table = cache.posterior(model)
        elbo = cache.elbo(model, table)
        plateau = (
            prev_elbo is not None
            and abs(elbo - prev_elbo) < config.elbo_rel_tol * max(1.0, abs(elbo))
        )
        if not plateau:
            check_interval, next_check = 1, it
        check_now = plateau and it >= next_check
        if check_now or it % config.record_every == 0 or it == config.max_iters:
            grad = _record(
                trace, it, cache.report(model, table), cache.grad_norm(model, table), t0
            )
            if plateau and grad < config.grad_norm_tol:
                trace.converged = True
                trace.stop_reason = "elbo plateau with vanishing gradient"
                break
            if it == config.max_iters:
                trace.stop_reason = (
                    f"iteration cap {config.max_iters} reached "
                    f"(grad_norm {grad:.3e}, tol {config.grad_norm_tol:.1e})"
                )
        if check_now:
            check_interval = min(2 * check_interval, 256)
            next_check = it + check_interval
        prev_elbo = elbo
    return SbnFit(model, obj.EnumeratedTable(table), trace)
