"""Shared oracles for the exponential-family calculus checks.

The four checks here (gradient vs finite differences, normalization, entropy
vs quadrature/summation, pseudo-entropy relation) are used both by the unit
tests and by the acceptance suite. Each returns the worst absolute error over
the supplied grid so callers can assert their own tolerance. The ELBO
gradient oracle checks the evaluators' exact gradients the same way,
kl_form is the reference for their three-term ELBO,
weighted_component_update the two-pass reference for the mixture M-step,
state_sums_per_point the per-point reference for FiniteObjective.state_sums,
kmeanspp_init_per_point the per-point reference for the k-means++ seeding,
and write_dataset_per_cell the byte reference for harness.write_dataset.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

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
    etas, log_parts, log_prior = ev.tables(model)
    scores = ev.t @ etas.T - log_parts + log_prior
    scores -= scores.max(axis=1, keepdims=True)
    table = np.exp(scores)
    table /= table.sum(axis=1, keepdims=True)
    return table


def repeated_rows(model, data, q):
    """A FiniteObjective's quantities summed over every data row, none grouped.

    The arithmetic the evaluator used before it kept each distinct row once:
    every mean runs over the N rows of data and of the (N, S) table q. Returns
    the posterior (N, S), the terms and entropy sums of both variants, the
    gradient, marginal_loglik and mean_log_h.
    """
    family, prior = model.noise.family, model.prior.family
    states = model.latent_support.states
    t = fam.batch_sufficient_stats(family, data)
    log_h = fam.batch_log_base_measure(family, data)
    etas, log_parts, log_prior = obj.FiniteObjective(model, data).tables(model)
    n = len(data)
    value, g_eta, _ = obj.noise_expectation(family, etas, q.sum(axis=0), q.T @ t)
    f1 = float(np.mean(entropy_rows_reference(q)))
    f2 = float(-np.mean(q @ log_prior))
    qbar = q.mean(axis=0)
    zeta = model.prior.zeta(model.prior.params)
    g_zeta = qbar @ fam.batch_sufficient_stats(prior, states) - fam.grad_log_partition(prior, zeta)
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
        ("entropy_sum", obj._natural_entropy),
        ("pseudo_entropy_sum", fam.pseudo_entropy),
    ):
        out[key] = f1 - entropy(prior, zeta) - float(qbar @ entropy(family, etas))
    return out


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
        kl_rows = -entropy_rows_reference(q) - q @ ev.tables(model)[2]
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
