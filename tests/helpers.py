"""Shared oracles for the exponential-family calculus checks.

The four checks here (gradient vs finite differences, normalization, entropy
vs quadrature/summation, pseudo-entropy relation) are used both by the unit
tests and by the acceptance suite. Each returns the worst absolute error over
the supplied grid so callers can assert their own tolerance. The ELBO
gradient oracle checks the evaluators' exact gradients the same way,
kl_form is the reference for their three-term ELBO,
log_partition_oracle and grad_log_partition_oracle the per-quantity chains
that families.partition replaced (with pseudo_entropy_oracle and
natural_entropy_oracle, the evaluator's former entropies from naturals),
weighted_component_update the two-pass reference for the mixture M-step,
state_sums_per_point the per-point reference for FiniteObjective.state_sums,
statistics_then_grouped the reference for the evaluator's grouping order,
kmeanspp_init_per_point the per-point reference for the k-means++ seeding,
write_dataset_per_cell the byte reference for harness.write_dataset,
read_dataset_as_floats the bit reference for harness.read_dataset,
write_trace_per_field the byte reference for harness.write_trace, and
eta_jacobian_reference the noise Jacobian of each zoo kind, written out
as the constructors wrote it, against which assert_jvp_is_the_jacobian_product
checks the models' eta_jvp hooks, with_reference_jvp the model whose eta_jvp
contracts that Jacobian, and criterion_with_jvp_bound the criterion report
with the most that jvp_eta's rounding (JVP_EPS) may move its noise residual.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import digamma, gammaln, logsumexp

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj
from efgen.errors import DegenerateDataError

# pyproject.toml's filterwarnings reach only the pytest process; Python
# subprocesses that tests start get the same filters as interpreter flags.
WARNINGS_AS_ERRORS = (
    "-W",
    "error::RuntimeWarning",
    "-W",
    "error::DeprecationWarning",
    "-W",
    "error::FutureWarning",
)

# Deterministic parameter grid: (family, standard params) pairs covering every
# family at a few interior points of its domain.
FAMILY_GRID = [
    (fam.bernoulli_product(3), np.array([0.2, 0.5, 0.9])),
    (fam.bernoulli_product(3), np.array([0.05, 0.6, 0.45])),
    (fam.categorical(4), np.array([0.1, 0.2, 0.3])),
    (fam.categorical(3), np.array([0.25, 0.25])),
    (fam.gaussian_scalar_var(2), np.array([0.5, -1.2, 0.7])),
    (fam.gaussian_scalar_var(1), np.array([0.0, 1.0])),
    (fam.gaussian_diag_cov(2), np.array([1.0, -0.5, 0.5, 2.0])),
    (fam.gamma_family(), np.array([2.0, 3.0])),
    (fam.gamma_family(), np.array([0.7, 1.3])),
    (fam.gamma_family(), np.array([5.5, 0.4])),
    (fam.poisson_product(2), np.array([1.0, math.e])),
    (fam.poisson_product(2), np.array([0.3, 4.0])),
]

_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)


def finite_difference_gradient(f, x, rel_step=1e-6):
    """Central-difference gradient with a relative step."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def elbo_gradient_oracle(ev, model, q):
    """Central finite differences of ev.elbo over (psi, theta), q held fixed."""
    full = np.concatenate([model.prior.params, model.noise.params])
    r = model.prior.params.size

    def value(params):
        return ev.elbo(mdl.replace_params(model, params[:r], params[r:]), q)

    return finite_difference_gradient(value, full)


def _categorical_log_partition_oracle(n):
    # log(1 + sum exp(n_i)) per row, stable for large positive entries.
    m = np.max(n, axis=-1, initial=0.0)
    return m + np.log(np.exp(-m) + np.exp(n - m[..., None]).sum(axis=-1))


def log_partition_oracle(family, n):
    """A(n) of natural parameter rows, as families computed it before
    partition(): one if-chain for A, apart from the one for grad A below.
    The Bernoulli term is the softplus max(n, 0) + log1p(e^-|n|)."""
    n = fam.check_natural(family, n)
    name = family.name
    if name == "bernoulli_product":
        out = (np.maximum(n, 0.0) + np.log1p(np.exp(-np.abs(n)))).sum(axis=-1)
    elif name == "categorical":
        out = _categorical_log_partition_oracle(n)
    elif name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        a, b = n[..., :d], n[..., d:]
        out = np.sum(
            -0.25 * a * a / b + 0.5 * math.log(2.0 * math.pi) - 0.5 * np.log(-2.0 * b),
            axis=-1,
        )
    elif name == "gamma":
        out = gammaln(n[..., 0] + 1.0) - (n[..., 0] + 1.0) * np.log(-n[..., 1])
    elif name == "poisson_product":
        out = np.exp(n).sum(axis=-1)
    else:
        raise AssertionError(name)
    return float(out) if np.ndim(out) == 0 else out


def grad_log_partition_oracle(family, n):
    """grad A(n) of natural parameter rows, by its own if-chain, as families
    computed it before partition(). The Bernoulli logistic is 1 / (1 + e^-n),
    which overflows (and warns) below n = -709.78."""
    n = fam.check_natural(family, n)
    name = family.name
    if name == "bernoulli_product":
        return 1.0 / (1.0 + np.exp(-n))
    if name == "categorical":
        return np.exp(n - _categorical_log_partition_oracle(n)[..., None])
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        a, b = n[..., :d], n[..., d:]
        mean = -0.5 * a / b
        second_moment = 0.25 * a * a / (b * b) - 0.5 / b
        return np.concatenate([mean, second_moment], axis=-1)
    if name == "gamma":
        shape, rate = n[..., 0] + 1.0, -n[..., 1]
        return np.stack([digamma(shape) - np.log(rate), shape / rate], axis=-1)
    if name == "poisson_product":
        return np.exp(n)
    raise AssertionError(name)


def pseudo_entropy_oracle(family, n):
    """-n.grad A(n) + A(n) from the two oracle chains."""
    n = fam.check_natural(family, n)
    grad = grad_log_partition_oracle(family, n)
    out = -(n[..., None, :] @ grad[..., :, None])[..., 0, 0] + log_partition_oracle(family, n)
    return float(out) if np.ndim(out) == 0 else out


def natural_entropy_oracle(family, n):
    """Standard entropies from rows of natural parameters, as the evaluator
    computed them before its tables: the pseudo-entropy for unit base
    measures, and Poisson's truncated-series entropy at from_natural's rates."""
    if family.base_measure_kind == "unit_constant":
        return pseudo_entropy_oracle(family, n)
    return fam.entropy(family, fam.from_natural(family, n))


def gradient_identity_error(family, s):
    """max |grad_log_partition - finite_difference(log_partition)|."""
    n = fam.to_natural(family, s)
    fd = finite_difference_gradient(lambda v: fam.log_partition(family, v), n)
    return float(np.max(np.abs(fam.grad_log_partition(family, n) - fd)))


def _gaussian_marginals(family, s):
    d = family.data_dim
    if family.name == "gaussian_scalar_var":
        return s[:-1], np.full(d, s[-1])
    return s[:d], s[d:]


def _scalar_densities(family, s):
    """Per-coordinate density factors (callable, support) for 1-D quadrature.

    Valid because every continuous family here factorizes over coordinates.
    """
    if family.name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        mus, sig2s = _gaussian_marginals(family, s)
        out = []
        for mu, s2 in zip(mus, sig2s):
            norm = 1.0 / math.sqrt(2.0 * math.pi * s2)

            def pdf(x, mu=mu, s2=s2, norm=norm):
                return norm * math.exp(-0.5 * (x - mu) ** 2 / s2)

            out.append((pdf, (mu - 14.0 * math.sqrt(s2), mu + 14.0 * math.sqrt(s2))))
        return out
    if family.name == "gamma":
        alpha, beta = s
        log_norm = alpha * math.log(beta) - math.lgamma(alpha)

        def pdf(x, a=alpha, b=beta, ln=log_norm):
            return math.exp(ln + (a - 1.0) * math.log(x) - b * x)

        return [(pdf, (0.0, np.inf))]
    raise ValueError(family.name)


def _discrete_support(family, s):
    """Full or truncated support enumeration with tail mass below 1e-12, one
    point per row (state indices for categorical)."""
    if family.name == "bernoulli_product":
        d = family.data_dim
        return np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    if family.name == "categorical":
        return np.arange(family.n_states)
    if family.name == "poisson_product":
        caps = [int(lam + 20.0 * math.sqrt(lam) + 40) for lam in s]
        return np.array(list(np.ndindex(*(c + 1 for c in caps))), dtype=float)
    raise ValueError(family.name)


def is_discrete(family):
    return family.name in ("bernoulli_product", "categorical", "poisson_product")


def normalization_error(family, s):
    """|total probability - 1| by exhaustive/truncated sum or 1-D quadrature."""
    n = fam.to_natural(family, s)
    if is_discrete(family):
        total = np.exp(fam.log_density(family, n, _discrete_support(family, s))).sum()
        return abs(total - 1.0)
    worst = 0.0
    for pdf, (lo, hi) in _scalar_densities(family, s):
        total, _ = integrate.quad(pdf, lo, hi, **_QUAD_OPTS)
        worst = max(worst, abs(total - 1.0))
    return worst


def moment_identity_error(family, s):
    """max |grad_log_partition - E[T(x)]| with the expectation by sum/quadrature."""
    n = fam.to_natural(family, s)
    grad = fam.grad_log_partition(family, n)
    if is_discrete(family):
        support = _discrete_support(family, s)
        probs = np.exp(fam.log_density(family, n, support))
        expected = probs @ fam.batch_sufficient_stats(family, support)
        return float(np.max(np.abs(grad - expected)))
    # Continuous families factorize: E[x_d] and E[x_d^2] per coordinate.
    factors = _scalar_densities(family, s)
    if family.name == "gamma":
        pdf, (lo, hi) = factors[0]
        e_logx, _ = integrate.quad(lambda x: pdf(x) * math.log(x), lo, hi, **_QUAD_OPTS)
        e_x, _ = integrate.quad(lambda x: pdf(x) * x, lo, hi, **_QUAD_OPTS)
        return float(np.max(np.abs(grad - np.array([e_logx, e_x]))))
    d = family.data_dim
    expected = np.empty(2 * d)
    for i, (pdf, (lo, hi)) in enumerate(factors):
        expected[i], _ = integrate.quad(lambda x: pdf(x) * x, lo, hi, **_QUAD_OPTS)
        expected[d + i], _ = integrate.quad(lambda x: pdf(x) * x * x, lo, hi, **_QUAD_OPTS)
    return float(np.max(np.abs(grad - expected)))


def entropy_consistency_error(family, s):
    """|entropy - (-E[log density])| with the expectation by sum/quadrature."""
    n = fam.to_natural(family, s)
    if is_discrete(family):
        log_p = fam.log_density(family, n, _discrete_support(family, s))
        return abs(fam.entropy(family, s) + np.exp(log_p) @ log_p)
    # -E[log p] = A - n.E[T] - E[log h]; with h == 1 here, reuse the moment
    # oracle pieces via direct quadrature of -p log p per coordinate factor.
    factors = _scalar_densities(family, s)
    acc = 0.0
    for pdf, (lo, hi) in factors:

        def neg_plogp(x, pdf=pdf):
            p = pdf(x)
            return -p * math.log(p) if p > 0.0 else 0.0

        val, _ = integrate.quad(neg_plogp, lo, hi, **_QUAD_OPTS)
        acc += val
    return abs(fam.entropy(family, s) - acc)


def pseudo_entropy_relation_error(family, s):
    """|pseudo_entropy - (entropy + E[log h])|; E[log h] is 0 unless Poisson."""
    n = fam.to_natural(family, s)
    lhs = fam.pseudo_entropy(family, n)
    rhs = fam.entropy(family, s) + fam.expected_log_base_measure(family, s)
    return abs(lhs - rhs)


def sbn_newton_direction_oracle(grad, states, curv, offsets_free):
    """The SBN M-step's Newton direction, one observable at a time.

    Solves each observable's (K, K) system on its own and falls back to that
    observable's gradient block when its solve fails.
    """
    d, h = curv.shape[1], states.shape[1]
    u = np.hstack([states, np.ones((len(states), 1))]) if offsets_free else states
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


def weighted_component_update(family, data, resp_c, mass_c):
    """Weighted maximum-likelihood parameters of one mixture component, read
    off the data rows: the Gaussian variances are weighted mean squares of
    the rows less their weighted mean (two passes)."""
    w = resp_c / mass_c
    name = family.name
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        mu = w @ data
        sq = w @ (data - mu) ** 2
        if name == "gaussian_scalar_var":
            return np.concatenate([mu, [float(np.mean(sq))]])
        return np.concatenate([mu, sq])
    if name in ("poisson_product", "bernoulli_product"):
        return w @ data
    if name == "gamma":
        x = data[:, 0]
        mean = float(w @ x)
        mean_log = float(w @ np.log(x))
        alpha = lrn.gamma_shape_newton(math.log(mean) - mean_log)
        return np.array([alpha, alpha / mean])
    raise ValueError(f"no M-step for component family {name}")


def state_sums_per_point(ev, table):
    """A FiniteObjective's state sums (mass (S,), statistics (S, L)) from q
    repeated to one row per data point and summed back per distinct row by
    np.add.at, as state_sums sums a caller's (N, S) table."""
    points = table[ev.inverse] if len(table) < ev.n else table
    summed = np.zeros((len(ev.rows), table.shape[1]))
    np.add.at(summed, ev.inverse, points)
    return summed.sum(axis=0), summed.T @ ev.t


def kmeanspp_init_per_point(model, ev, rng):
    """Soft responsibilities (N, C) from k-means++ seeding on every data
    point, as learning seeded mixtures before it computed distances once
    per distinct row."""
    c = model.latent_support.n_states
    n = ev.n
    if c == 1:
        return np.ones((n, 1))
    points = ev.rows[ev.inverse]
    bound = 0.5 * math.sqrt(np.finfo(float).max / points.size)
    if np.max(np.abs(points)) > bound:
        raise DegenerateDataError("observations too large for k-means++ seeding; rescale them")
    centers = [points[rng.integers(n)]]
    for _ in range(c - 1):
        d2 = np.min(
            np.stack([np.sum((points - ctr) ** 2, axis=1) for ctr in centers]), axis=0
        )
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(points[rng.choice(n, p=probs)])
    d2 = np.stack([np.sum((points - ctr) ** 2, axis=1) for ctr in centers], axis=1)
    assign = np.argmin(d2, axis=1)
    resp = np.full((n, c), 0.05 / max(c - 1, 1))
    resp[np.arange(n), assign] = 0.95
    return resp / resp.sum(axis=1, keepdims=True)


def rowwise_posterior(ev, model):
    """A FiniteObjective's posterior in points-major (N, S) arithmetic.

    The max, exp and normalising sum run along each point's row of a
    C-ordered table, as the evaluator did before its tables went
    states-major.
    """
    tables = ev.tables(model)
    scores = ev.t @ tables.etas.T - tables.log_parts + tables.log_prior
    scores -= scores.max(axis=1, keepdims=True)
    table = np.exp(scores)
    table /= table.sum(axis=1, keepdims=True)
    return table


def repeated_rows(model, data, q):
    """A FiniteObjective's quantities summed over every data row, none grouped.

    The arithmetic the evaluator used before it kept each distinct row once:
    every mean runs over the N rows of data and of the (N, S) table q, and
    every per-state quantity comes from the family oracles below, not from
    the evaluator's tables. Returns the posterior (N, S), the terms and
    entropy sums of both variants, the gradient, marginal_loglik and
    mean_log_h.
    """
    family, prior = model.noise.family, model.prior.family
    states = model.latent_support.states
    t = fam.batch_sufficient_stats(family, data)
    log_h = fam.batch_log_base_measure(family, data)
    etas = model.noise.eta(states, model.noise.params)
    log_parts = log_partition_oracle(family, etas)
    zeta = model.prior.zeta(model.prior.params)
    log_prior = fam.log_density(prior, zeta, states)
    n = len(data)
    mass, stats = q.sum(axis=0), q.T @ t
    value = np.sum(stats * etas) - mass @ log_parts
    g_eta = stats - mass[:, None] * grad_log_partition_oracle(family, etas)
    f1 = float(np.mean(entropy_rows_reference(q)))
    f2 = float(-np.mean(q @ log_prior))
    qbar = q.mean(axis=0)
    g_zeta = qbar @ fam.batch_sufficient_stats(prior, states) - grad_log_partition_oracle(
        prior, zeta
    )
    scores = t @ etas.T - log_parts + log_prior
    posterior = np.exp(scores - logsumexp(scores, axis=1)[:, None])
    out = {
        "posterior": posterior,
        "terms": (f1, f2, float(-value / n - np.mean(log_h))),
        "pseudo_terms": (f1, f2, float(-value / n)),
        "gradient": np.concatenate(
            [mdl.jacobian_zeta(model).T @ g_zeta, mdl.vjp_eta(model, states, g_eta / n)]
        ),
        "marginal_loglik": float(np.mean(logsumexp(scores + log_h[:, None], axis=1))),
        "mean_log_h": float(np.mean(log_h)),
    }
    for key, entropy in (
        ("entropy_sum", natural_entropy_oracle),
        ("pseudo_entropy_sum", pseudo_entropy_oracle),
    ):
        out[key] = f1 - entropy(prior, zeta) - float(qbar @ entropy(family, etas))
    return out


def statistics_then_grouped(model, data):
    """A FiniteObjective's grouped rows in the order it took before it
    grouped first: the statistics t and log h of every row of data, then
    gathered at each distinct row's first occurrence, found by np.unique.
    Returns rows, counts (as floats), inverse, t, log_h and mean_log_h, for
    data in which some row repeats."""
    family = model.noise.family
    t, log_h = fam.batch_sufficient_stats(family, data), fam.batch_log_base_measure(family, data)
    _, first, inverse, counts = np.unique(
        data, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)  # first-occurrence order
    label = np.empty_like(order)
    label[order] = np.arange(len(order))
    first, counts = first[order], counts[order].astype(float)
    return {
        "rows": data[first],
        "counts": counts,
        "inverse": label[inverse.ravel()],
        "t": t[first],
        "log_h": log_h[first],
        "mean_log_h": float(np.sum(log_h[first] * counts) / len(data)),
    }


def kl_form(ev, model, q):
    """The ELBO as expected log-likelihood minus the mean KL(q_n || prior).

    A second route to ev.elbo: finite states read the log-likelihood table,
    which terms never builds, repeated to one row per data point (as is a q
    over the distinct rows), and the linear-Gaussian models take the KL in
    closed form.
    """
    if isinstance(ev, obj.FiniteObjective):
        if len(q) < ev.n:
            q = q[ev.inverse]
        loglik = (ev.loglik(model) + ev.log_h[:, None])[ev.inverse]
        expected_ll = float(np.mean(np.sum(q * loglik, axis=1)))
        kl_rows = -entropy_rows_reference(q) - q @ ev.tables(model).log_prior
        return expected_ll - float(np.mean(kl_rows))
    tau = model.prior.params[0]
    h = q.means.shape[1]
    second_moment = np.trace(q.cov) + np.mean(np.sum(q.means**2, axis=1))
    kl = 0.5 * (second_moment / tau - h + h * math.log(tau) - np.linalg.slogdet(q.cov)[1])
    return -ev.terms(model, q)[2] - kl


def dense_lstsq(a, b):
    """(||a x - b||, rank of a) from one dense np.linalg.lstsq over all of a.

    The criterion check solved its stacked systems this way before it split
    them into independent column blocks.
    """
    coeff, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ coeff - b)), int(rank)


# models.jvp_eta against eta_jacobian_reference(model, z, theta) @ v: each
# entry of J_eta(z) v within JVP_EPS times sum_p |J_lp| |v_p|. Over 3000
# random SBNs and mixtures of every component family the hooks came within
# 1.8 eps.
JVP_EPS = 4 * np.finfo(float).eps


def assert_jvp_is_the_jacobian_product(model, zs, theta, rng):
    """jvp_eta equals eta_jacobian_reference(model, zs, theta) @ v within
    JVP_EPS, at a v whose entries span orders of magnitude."""
    p = model.noise.theta_subset.size
    v = rng.normal(size=p) * rng.lognormal(0.0, 2.0, size=p)
    jac = eta_jacobian_reference(model, zs, theta)
    got = mdl.jvp_eta(model, zs, v, theta)
    assert got.shape == jac.shape[:2]
    assert np.all(np.abs(got - jac @ v) <= JVP_EPS * (np.abs(jac) @ np.abs(v)))


def entropy_rows_reference(table):
    """Per-row entropies -sum_s q log q in the np.where form, 0 log 0 as 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(table > 0.0, table * np.log(table), 0.0).sum(axis=1)


# The sbn-enumerate benchmark model: H = 8 latents, D = 12 observables.
SBN8_PI = [0.3, 0.5, 0.7, 0.4, 0.6, 0.35, 0.55, 0.45]
SBN8_W = [
    [1.7, -1.5, 0.5, -2.0, -3.1, 1.1, -1.0, 0.2],
    [1.7, -1.6, -1.4, 1.1, -0.4, -0.9, -0.5, -1.0],
    [1.4, 1.0, 1.2, 0.7, 1.8, -2.0, -0.4, 0.8],
    [1.7, 0.9, 0.1, -0.5, 0.7, -2.2, 2.5, -1.1],
    [-1.1, 0.2, 1.3, 2.0, 2.2, -1.5, 2.6, 1.2],
    [-1.5, -0.3, -0.8, 0.9, 2.2, 2.2, 1.9, -2.3],
    [1.4, 0.4, 0.9, -2.3, 0.5, -0.5, -0.7, 1.2],
    [1.7, -1.0, 0.4, -0.3, -0.3, 0.4, -1.2, 4.0],
    [-0.5, 1.0, 0.2, 2.6, -0.6, 0.5, -2.4, 0.3],
    [-0.5, -0.7, -2.2, -1.0, -0.4, -0.2, 1.3, 0.4],
    [0.2, -3.2, 2.2, 0.8, -0.8, 1.9, 2.9, -1.5],
    [0.0, -0.6, -1.3, -3.6, 1.8, 0.2, 0.8, -2.2],
]
SBN8_MU = [-0.6, -0.4, -0.6, 0.6, 0.1, -0.5, 0.0, -0.1, -0.4, 0.2, -0.3, 0.0]


def sbn_eta_jacobian_reference(z, d, offsets_free):
    """The SBN noise Jacobian at an (S, H) stack z, built in two parts.

    The weight columns come from an (S, D, H, D) product with the identity,
    reshaped to theta's order (k major); free offsets append an identity
    block by concatenation. make_sbn built its Jacobian this way before it
    wrote z into one zeros array.
    """
    jac = z[:, None, :, None] * np.eye(d)[None, :, None, :]
    jac = jac.reshape(len(z), d, d * z.shape[1])
    if not offsets_free:
        return jac
    return np.concatenate([jac, np.broadcast_to(np.eye(d), (len(z), d, d))], axis=2)


def mixture_eta_jacobian_reference(z, theta, family, c):
    """A mixture's noise Jacobian at an (S,) stack of component indices:
    each state's component block scattered into a zeros (S, L, C ldim)
    array."""
    z, ldim = np.asarray(z, dtype=int), family.standard_dim
    blocks = mdl._component_natural_jacobian(family, theta.reshape(c, ldim))
    jac = np.zeros((z.size, family.natural_dim, c, ldim))
    jac[np.arange(z.size), :, z, :] = blocks[z]
    return jac.reshape(z.size, family.natural_dim, c * ldim)


def eta_jacobian_reference(model, z, theta):
    """The (S, L, P) noise Jacobian of a zoo model over its criterion subset
    at theta, written out per kind as the constructors built it before they
    stated eta_jvp: the mixture's block scatter, PPCA's one column
    -eta / sigma2, the factor analyzer's diagonals (-w z / sigma2^2 on the
    mean naturals, 0.5 / sigma2^2 on the precisions), the SBN's two parts
    and the tied SBN's column z repeated for both naturals."""
    kind, z, d = model.model_kind, np.asarray(z), model.noise.family.data_dim
    if kind == "ef_mixture":
        c = model.latent_support.n_states
        return mixture_eta_jacobian_reference(z, theta, model.noise.family, c)
    if kind == "ppca":
        return (-1.0 / theta[-1]) * model.noise.eta(z, theta)[:, :, None]
    if kind == "simple_fa":
        s2, wv = theta[:d], theta[d:]
        jac = np.zeros((len(z), 2 * d, d))
        jac[:, :d, :] = np.eye(d) * (-wv * z[:, :1] / s2**2)[:, None, :]
        jac[:, d:, :] = np.diag(0.5 / s2**2)
        return jac
    if kind == "sbn":
        return sbn_eta_jacobian_reference(z, d, theta.size > d * z.shape[1])
    assert kind == "rigid_sbn", kind
    return np.repeat(z[:, None, :1], 2, axis=1)


def with_reference_jvp(model):
    """The model with an eta_jvp that contracts eta_jacobian_reference, the
    dense path against which the hooks' criterion reports are compared."""

    def dense_jvp(z, theta, v):
        return eta_jacobian_reference(model, z, theta) @ v

    return replace(model, noise=replace(model.noise, eta_jvp=dense_jvp))


def criterion_with_jvp_bound(model, seed):
    """check_criterion(model, seed) and the most its noise residual may move
    when every J_eta(z) beta it computes moves by JVP_EPS times
    sum_p |J_lp| |beta_p|: the largest JVP_EPS || |J| |beta| || /
    max(1, ||eta||) over the grid points, with J from eta_jacobian_reference."""
    bounds = []
    jvp_eta = mdl.jvp_eta

    def bounded(model, z, v, theta):
        jac = eta_jacobian_reference(model, z, theta)
        scale = np.linalg.norm(np.abs(jac) @ np.abs(v))
        bounds.append(JVP_EPS * scale / max(1.0, np.linalg.norm(model.noise.eta(z, theta))))
        return jvp_eta(model, z, v, theta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mdl, "jvp_eta", bounded)
        report = mdl.check_criterion(model, seed)
    return report, max(bounds)


def bernoulli_prior_reference(psi):
    """(zeta, J_zeta) of independent Bernoulli latents trained as
    probabilities, as the SBN constructors' own closures computed them."""
    return np.log(psi) - np.log1p(-psi), np.diag(1.0 / (psi * (1.0 - psi)))


def categorical_prior_jacobian_reference(psi):
    """J_zeta of a mixture's categorical prior over its first C - 1 weights,
    as make_ef_mixture's own closure computed it."""
    pi_last = 1.0 - psi.sum()
    return np.diag(1.0 / psi) + 1.0 / pi_last



def write_dataset_per_cell(path, data, family):
    """dataset.csv formatted one cell at a time: str of each int64 cell of an
    integer-valued family, format(v, ".17g") of each real one."""
    if family.integer_valued:
        rows, cell = np.asarray(data).astype(np.int64).tolist(), str
    else:
        rows, cell = np.asarray(data).tolist(), lambda v: format(v, ".17g")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(family.data_dim)) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def read_dataset_as_floats(path):
    """The rows of a well-formed dataset CSV after its header, parsed by one
    float np.loadtxt, with no int64 pass: (0, D) for a header-only file."""
    with open(path, encoding="utf-8") as fh:
        d = len(fh.readline().strip().split(","))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file
        out = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8")
    return out if out.size else np.empty((0, d))


def write_trace_per_field(path, trace):
    """trace.csv formatted one field at a time, each row's fields joined by
    commas and the lines by line ends."""
    lines = ["iteration,elbo,entropy_sum,gap,grad_norm,wall_time"]
    for r in trace.records:
        reals = (r.elbo, r.entropy_sum, r.gap, r.grad_norm)
        row = (str(r.iteration), *(format(v, ".17g") for v in reals), format(r.wall_time, ".6f"))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
