"""Exponential-family distributions in natural-parameter form.

Each family is a :class:`FamilyDescriptor`, built from its name and size
alone; DIMENSIONS gives its natural and standard dimensions. Parameters are
float arrays of shape (..., dim): a 1-D vector is one parameter point, and
leading axes stack rows. Every function works row by row and reduces over the
last axis only, so a vector gives a scalar and an (S, dim) stack gives S
values from one call, validated once. Standard parameters use the
conventional layouts:

====================  =======================================  ===========
family                standard parameters                      natural dim
====================  =======================================  ===========
bernoulli_product     success probabilities pi (D,)            D
categorical           pi_1..pi_{C-1} (last state implicit)     C - 1
gaussian_scalar_var   (mu_1..mu_D, sigma2)                     2 D
gaussian_diag_cov     (mu_1..mu_D, sigma2_1..sigma2_D)         2 D
gamma                 (shape alpha, rate beta)                 2
poisson_product       rates lambda (D,)                        D
====================  =======================================  ===========

Every family except poisson_product carries the unit base measure h == 1: all
constant normalizers (including the Gaussian (2*pi)^(-D/2)) are folded into
the log-partition, so entropy and pseudo-entropy coincide there and the
Poisson factorial base measure is the only nontrivial h.

Categorical data points are integer states 0..C-1; the sufficient statistics
are the one-hot encoding of the first C-1 states, so the last state maps to
the zero vector. Gaussian sufficient statistics pair each coordinate with its
square: T(x) = (x_1..x_D, x_1^2..x_D^2).

Data points are handled in rows too: batch_sufficient_stats and
batch_log_base_measure take an (N, data_dim) array (N state indices for
categorical). Log-gamma, digamma and trigamma come from scipy.special, which
no other efgen module names, and only gamma needs them. It is imported on
first use, so models that need none of these never load it. A gamma
FamilyDescriptor imports it when it is built, so a gamma model loads it while
its config or model file is read, not during training. Poisson needs only
log k! at integers, which log_factorial takes from the standard library: a
table of the logs of the exact integers k! below 256, and math.lgamma above.

A family's log-partition A and its gradient are written once, in partition(),
which log_partition, grad_log_partition and pseudo_entropy read; a row in the
domain whose A or grad A is not finite raises DomainError. Natural-domain
membership checks are strict inequalities with no epsilon slack; callers
clamp if needed. All functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SupportError

__all__ = [
    "FamilyDescriptor",
    "bernoulli_product",
    "categorical",
    "gaussian_scalar_var",
    "gaussian_diag_cov",
    "gamma_family",
    "poisson_product",
    "DIMENSIONS",
    "check_standard",
    "check_natural",
    "to_natural",
    "from_natural",
    "partition",
    "log_partition",
    "grad_log_partition",
    "batch_sufficient_stats",
    "batch_log_base_measure",
    "log_density",
    "entropy",
    "pseudo_entropy",
    "expected_log_base_measure",
    "sample",
]

# Each family's (natural_dim, standard_dim) as a function of its size: the
# number of states for categorical, data_dim for every other family.
DIMENSIONS = {
    "bernoulli_product": lambda d: (d, d),
    "categorical": lambda c: (c - 1, c - 1),
    "gaussian_scalar_var": lambda d: (2 * d, d + 1),
    "gaussian_diag_cov": lambda d: (2 * d, 2 * d),
    "gamma": lambda d: (2, 2),
    "poisson_product": lambda d: (d, d),
}

# Poisson sums run over a window of lam -+ _POISSON_WINDOW_SDS standard
# deviations, plus _POISSON_WINDOW_PAD points on the right. Above
# _POISSON_ASYMPTOTIC_RATE the entropy's large-rate series replaces them.
_POISSON_WINDOW_SDS = 10.0
_POISSON_WINDOW_PAD = 30
_POISSON_ASYMPTOTIC_RATE = 1e4
# The largest |x| whose square, a Gaussian sufficient statistic, is finite.
_GAUSSIAN_DATA_MAX = math.sqrt(np.finfo(float).max)
# The largest Poisson count accepted. Every float past 2**53 is integer-valued,
# so the integer test would check nothing there, and counts near float max
# overflow the E-step's statistics times log rates.
_POISSON_COUNT_MAX = 2.0**53


def gammaln(x):
    """scipy.special.gammaln, importing scipy.special on first use."""
    from scipy.special import gammaln

    return gammaln(x)


def digamma(x):
    """scipy.special.digamma, importing scipy.special on first use."""
    from scipy.special import digamma

    return digamma(x)


def polygamma(n, x):
    """scipy.special.polygamma, importing scipy.special on first use."""
    from scipy.special import polygamma

    return polygamma(n, x)


@dataclass(frozen=True)
class FamilyDescriptor:
    """An exponential family, built from its name and size: data_dim, plus
    n_states for a categorical. Its natural and standard dimensions (see
    DIMENSIONS), its base measure and whether its observations are integers
    follow from these."""

    name: str
    data_dim: int
    n_states: int = 0
    natural_dim: int = field(init=False, repr=False)
    standard_dim: int = field(init=False, repr=False)
    base_measure_kind: str = field(init=False, repr=False)
    integer_valued: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.name not in DIMENSIONS:
            raise ValueError(f"unknown family name {self.name!r}")
        if self.data_dim < 1:
            raise ValueError(f"data_dim must be at least 1, got {self.data_dim}")
        if self.name == "categorical":
            if self.n_states < 1:
                raise ValueError("categorical needs at least 1 state")
        elif self.n_states:
            raise ValueError("n_states is defined for categorical families only")
        if self.name in ("categorical", "gamma") and self.data_dim != 1:
            raise ValueError(f"{self.name} takes data_dim 1, got {self.data_dim}")
        if self.name == "gamma":
            import scipy.special  # noqa: F401  (so that training never pays the import)
        # Derived once here, so the checks on hot paths read plain attributes.
        dims = DIMENSIONS[self.name](self.n_states or self.data_dim)
        object.__setattr__(self, "natural_dim", dims[0])
        object.__setattr__(self, "standard_dim", dims[1])
        base = "poisson_factorial" if self.name == "poisson_product" else "unit_constant"
        object.__setattr__(self, "base_measure_kind", base)
        integer = self.name in ("bernoulli_product", "categorical", "poisson_product")
        object.__setattr__(self, "integer_valued", integer)


def bernoulli_product(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("bernoulli_product", data_dim)


def categorical(n_states: int) -> FamilyDescriptor:
    return FamilyDescriptor("categorical", 1, n_states)


def gaussian_scalar_var(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("gaussian_scalar_var", data_dim)


def gaussian_diag_cov(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("gaussian_diag_cov", data_dim)


def gamma_family() -> FamilyDescriptor:
    return FamilyDescriptor("gamma", 1)


def poisson_product(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("poisson_product", data_dim)


def _as_rows(v, length: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != length:
        raise ValueError(f"{what} must have shape (..., {length}), got {arr.shape}")
    return arr


def _value(a):
    """A one-row result as a Python float; a stack of rows stays an array."""
    return float(a) if np.ndim(a) == 0 else a


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product over the last axis, broadcasting leading axes.

    A stacked matmul rounds every row exactly as a 1-D ``a @ b`` would, which
    a sum of products does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def check_standard(family: FamilyDescriptor, s) -> np.ndarray:
    """Validate standard parameter rows; returns them as a float array."""
    s = _as_rows(s, family.standard_dim, "standard params")
    if not np.isfinite(s).all():
        raise DomainError(f"{family.name}: non-finite standard params")
    name = family.name
    if name == "bernoulli_product":
        if not ((s > 0.0) & (s < 1.0)).all():
            raise DomainError("bernoulli probabilities must lie in the open (0,1)")
    elif name == "categorical":
        if not ((s > 0.0).all() and (s.sum(axis=-1) < 1.0).all()):
            raise DomainError(
                "categorical weights must be positive with sum below 1 "
                "(last state implicit)"
            )
    elif name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        if not (s[..., family.data_dim :] > 0.0).all():
            raise DomainError("gaussian variances must be positive")
    elif name == "gamma":
        if not (s > 0.0).all():
            raise DomainError("gamma shape and rate must be positive")
    elif name == "poisson_product":
        if not (s > 0.0).all():
            raise DomainError("poisson rates must be positive")
    return s


def check_natural(family: FamilyDescriptor, n) -> np.ndarray:
    """Validate natural parameter rows; returns them as a float array."""
    n = _as_rows(n, family.natural_dim, "natural params")
    if not np.isfinite(n).all():
        raise DomainError(f"{family.name}: non-finite natural params")
    name = family.name
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        if not (n[..., family.data_dim :] < 0.0).all():
            raise DomainError("gaussian precision coordinates must be negative")
    elif name == "gamma":
        if not ((n[..., 0] > -1.0).all() and (n[..., 1] < 0.0).all()):
            raise DomainError("gamma natural domain is n1 > -1, n2 < 0")
    return n


def to_natural(family: FamilyDescriptor, s) -> np.ndarray:
    s = check_standard(family, s)
    name = family.name
    if name == "bernoulli_product":
        return np.log(s) - np.log1p(-s)
    if name == "categorical":
        return np.log(s) - np.log(1.0 - s.sum(axis=-1, keepdims=True))
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        mu, sigma2 = s[..., :d], s[..., d:]
        precision = -0.5 / sigma2
        if name == "gaussian_scalar_var":
            precision = np.repeat(precision, d, axis=-1)
        return np.concatenate([mu / sigma2, precision], axis=-1)
    if name == "gamma":
        return np.stack([s[..., 0] - 1.0, -s[..., 1]], axis=-1)
    if name == "poisson_product":
        return np.log(s)
    raise AssertionError(name)


def from_natural(family: FamilyDescriptor, n) -> np.ndarray:
    name = family.name
    if name == "categorical":
        return partition(family, n)[1]  # the softmax needs A
    n = check_natural(family, n)
    if name == "bernoulli_product":
        return _logistic(n)[1]
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        a, b = n[..., :d], n[..., d:]
        if name == "gaussian_scalar_var":
            spread = np.max(np.abs(b - b[..., :1]), axis=-1)
            if np.any(spread > 1e-12 * np.maximum(1.0, np.abs(b[..., 0]))):
                raise DomainError(
                    "scalar-variance natural params need equal precision coordinates"
                )
            b = b[..., :1]
        sigma2 = -0.5 / b
        return np.concatenate([a * sigma2, sigma2], axis=-1)
    if name == "gamma":
        return np.stack([n[..., 0] + 1.0, -n[..., 1]], axis=-1)
    if name == "poisson_product":
        return np.exp(n)  # the inverse of to_natural's log, so no A is summed
    raise AssertionError(name)


def _with_last_state(s: np.ndarray) -> np.ndarray:
    """Categorical weights with the implicit last state's weight appended."""
    return np.concatenate([s, 1.0 - s.sum(axis=-1, keepdims=True)], axis=-1)


def _logistic(n: np.ndarray):
    """(e^-|n|, 1 / (1 + e^-n)), both from e^-|n|, which cannot overflow."""
    e = np.exp(-np.abs(n))
    return e, np.where(n < 0.0, e, 1.0) / (1.0 + e)


def partition(family: FamilyDescriptor, n):
    """(A(n), grad A(n)) of natural parameter rows: the log-partition, a float
    for one row, and its gradient, the expected sufficient statistics."""
    n = check_natural(family, n)
    name = family.name
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if name == "bernoulli_product":
                # log(1 + e^n) as a softplus: within 1 ulp, and a third of
                # np.logaddexp's time on a table of states.
                e, mean = _logistic(n)
                value = (np.maximum(n, 0.0) + np.log1p(e)).sum(axis=-1)
            elif name == "categorical":
                # log(1 + sum exp(n_i)) per row, stable for large positive entries.
                m = np.max(n, axis=-1, initial=0.0)
                value = m + np.log(np.exp(-m) + np.exp(n - m[..., None]).sum(axis=-1))
                mean = np.exp(n - value[..., None])
            elif name in ("gaussian_scalar_var", "gaussian_diag_cov"):
                d = family.data_dim
                a, b = n[..., :d], n[..., d:]
                terms = -0.25 * a * a / b + 0.5 * math.log(2.0 * math.pi) - 0.5 * np.log(-2.0 * b)
                value = terms.sum(axis=-1)
                # E[x^2] from E[x]: no b * b, which underflows below |b| ~ 1e-154.
                mu = -0.5 * a / b
                mean = np.concatenate([mu, mu * mu - 0.5 / b], axis=-1)
            elif name == "gamma":
                shape, rate, log_rate = n[..., 0] + 1.0, -n[..., 1], np.log(-n[..., 1])
                value = gammaln(shape) - shape * log_rate
                mean = np.stack([digamma(shape) - log_rate, shape / rate], axis=-1)
                if not np.isfinite(value).all():  # gammaln overflows without a flag
                    raise FloatingPointError
            elif name == "poisson_product":
                mean = np.exp(n)
                value = mean.sum(axis=-1)
            else:
                raise AssertionError(name)
    except FloatingPointError:  # in the domain, yet not finite (a precision near 0)
        raise DomainError(f"{name}: the log-partition or its gradient is not finite") from None
    return _value(value), mean


def log_partition(family: FamilyDescriptor, n):
    return partition(family, n)[0]


def grad_log_partition(family: FamilyDescriptor, n) -> np.ndarray:
    """Gradient of the log-partition, equal to the expected sufficient stats."""
    return partition(family, n)[1]


# ln 2 split so that e * _LN2_HI is exact for every exponent e below 2**20.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LOG_FACTORIAL_TABLE_SIZE = 256


def _log_integer(n: int) -> float:
    """ln n for a positive integer, also past float max, where math.log's own
    split at the binary exponent loses up to 1.14 ulp (at 171!)."""
    e = n.bit_length()
    if e <= 1000:
        return math.log(n)
    return math.fsum((math.log(n / (1 << e)), e * _LN2_HI, e * _LN2_LO))


@functools.lru_cache(maxsize=None)
def _log_factorial_table() -> np.ndarray:
    table = np.array([_log_integer(math.factorial(k)) for k in range(_LOG_FACTORIAL_TABLE_SIZE)])
    table.flags.writeable = False  # every caller shares it
    return table


def log_factorial(k) -> np.ndarray:
    """ln(k!) elementwise for non-negative integers k, in k's shape.

    Below 256 it is read from a table of the logs of the exact integers k!,
    built on first use: every entry lies within 1 ulp of ln k! (each was
    correctly rounded where measured), and it is exactly 0.0 at k = 0 and 1.
    From 256 on it is math.lgamma(k + 1), called once per distinct value:
    within 2 ulp up to 2**53 (1.68 at most on a log-spaced sample of 3 006
    integers, where scipy's gammaln reached 2.39).
    """
    k = np.asarray(k, dtype=float)
    if k.size and (np.any(k < 0.0) or np.any(k != np.floor(k))):
        raise ValueError("log_factorial requires non-negative integers")
    flat = k.ravel()
    small = flat < _LOG_FACTORIAL_TABLE_SIZE
    out = _log_factorial_table()[np.where(small, flat, 0.0).astype(np.intp)]
    if not small.all():
        big, inverse = np.unique(flat[~small], return_inverse=True)
        out[~small] = np.array([math.lgamma(v + 1.0) for v in big.tolist()])[inverse]
    return out.reshape(k.shape)[()]  # a 0-d k gives a scalar, as a ufunc would


# The benchmark's tracer (perfbench/tracer.py) still wraps these names.
log_factorial_array = log_factorial
log_gamma = gammaln


def log_density(family: FamilyDescriptor, n, x):
    """Log density (continuous) or log mass (discrete) at data points x.

    x is one data point or points stacked along leading axes (categorical
    points are state indices). The rows of n broadcast against the points.
    """
    n = check_natural(family, n)
    x = np.asarray(x)
    if family.name == "categorical":
        points = x.shape
    elif x.ndim and x.shape[-1] == family.data_dim:
        points = x.shape[:-1]
    else:
        raise ValueError(f"data points must have shape (..., {family.data_dim}), got {x.shape}")
    rows = x.reshape((-1,) + x.shape[len(points) :])
    t = batch_sufficient_stats(family, rows).reshape(points + (family.natural_dim,))
    log_h = batch_log_base_measure(family, rows).reshape(points)
    return _value(log_h + _dot(n, t) - log_partition(family, n))


def batch_sufficient_stats(family: FamilyDescriptor, data) -> np.ndarray:
    """Sufficient statistics of a whole dataset at once, shape (N, natural_dim)."""
    name = family.name
    if name == "categorical":
        data = np.asarray(data).reshape(-1)
        if data.size and (
            np.any(data != np.floor(data)) or np.any(data < 0) or np.any(data >= family.n_states)
        ):
            raise SupportError(f"categorical states must be ints in [0, {family.n_states})")
        t = np.zeros((data.size, family.natural_dim))
        idx = data.astype(int)
        hot = idx < family.natural_dim
        t[np.nonzero(hot)[0], idx[hot]] = 1.0
        return t
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != family.data_dim:
        raise ValueError(f"data must be (N, {family.data_dim}), got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise SupportError("observations must be finite")
    if name == "bernoulli_product":
        if data.size and not np.all((data == 0.0) | (data == 1.0)):
            raise SupportError("bernoulli observations must be 0/1")
        return data.copy()
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        if data.size and np.max(np.abs(data)) > _GAUSSIAN_DATA_MAX:
            raise SupportError(f"gaussian observations must lie within +-{_GAUSSIAN_DATA_MAX:.4g}")
        return np.hstack([data, data * data])
    if name == "gamma":
        if data.size and not np.all(data > 0.0):
            raise SupportError("gamma observations must be positive")
        return np.hstack([np.log(data), data])
    if name == "poisson_product":
        if data.size and not np.all(
            (data >= 0.0) & (data <= _POISSON_COUNT_MAX) & (data == np.floor(data))
        ):
            raise SupportError("poisson observations must be non-negative integers up to 2**53")
        return data.copy()
    raise AssertionError(name)


def batch_log_base_measure(family: FamilyDescriptor, data) -> np.ndarray:
    """log h(x) for a whole dataset, shape (N,)."""
    if family.base_measure_kind == "unit_constant":
        n = np.asarray(data).shape[0] if np.ndim(data) else 0
        return np.zeros(n)
    return -log_factorial(data).sum(axis=1)


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


def _poisson_window(lam: float):
    """(pmf, log pmf, log k!) of Pois(lam) over the terms its sums need.

    By Bernstein's inequality the window leaves out less than 1e-19 of the
    mass on each side: P(K >= lam + t) <= exp(-t^2 / (2 (lam + t/3))) <=
    exp(-45) at t = 10 sqrt(lam) + 30, and P(K <= lam - t) <= exp(-t^2 /
    (2 lam)). The sums run over the whole window, so what they leave out is
    below their own rounding.
    """
    half = _POISSON_WINDOW_SDS * math.sqrt(lam)
    k = np.arange(max(0, math.floor(lam - half)), math.ceil(lam + half) + _POISSON_WINDOW_PAD + 1)
    log_fact = log_factorial(k)
    log_p = k * math.log(lam) - lam - log_fact
    return np.exp(log_p), log_p, log_fact


def _poisson_entropy_1d(lam: float) -> float:
    if lam >= _POISSON_ASYMPTOTIC_RATE:
        # H = log(2 pi e lam)/2 - 1/(12 lam) - 1/(24 lam^2) - 19/(360 lam^3) + O(lam^-4),
        # in powers of 1 / lam, which underflow where lam^3 would overflow.
        inv = 1.0 / lam
        return (
            0.5 * math.log(2.0 * math.pi * math.e * lam)
            - inv / 12.0
            - inv**2 / 24.0
            - 19.0 * inv**3 / 360.0
        )
    p, log_p, _ = _poisson_window(lam)
    return float(-(p @ log_p))


def _poisson_mean_log_factorial(lam: float) -> float:
    if lam >= _POISSON_ASYMPTOTIC_RATE:
        # From H = lam - lam log(lam) + E[log K!].
        return _poisson_entropy_1d(lam) + lam * math.log(lam) - lam
    p, _, log_fact = _poisson_window(lam)
    return float(p @ log_fact)


def _per_rate(f, rates: np.ndarray) -> np.ndarray:
    """f at every Poisson rate; each rate's series needs its own window."""
    return np.array([f(lam) for lam in rates.ravel()]).reshape(rates.shape)


def entropy(family: FamilyDescriptor, s):
    """Differential or discrete entropy in nats, from standard parameters.

    Poisson has no closed form; its entropy is a summation over a window
    around the rate that leaves out less than 1e-19 of the mass on each side,
    or a large-rate asymptotic series above rate 1e4.
    """
    s = check_standard(family, s)
    name = family.name
    if name == "bernoulli_product":
        out = _binary_entropy(s).sum(axis=-1)
    elif name == "categorical":
        full = _with_last_state(s)
        out = -(full * np.log(full)).sum(axis=-1)
    elif name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        # Each variance column stands for d // columns dimensions: all d for
        # the scalar variance, one each for the diagonal.
        d = family.data_dim
        per_column = d // (family.standard_dim - d)
        out = 0.5 * per_column * np.log(2.0 * math.pi * math.e * s[..., d:]).sum(axis=-1)
    elif name == "gamma":
        alpha, beta = s[..., 0], s[..., 1]
        out = alpha - np.log(beta) + gammaln(alpha) + (1.0 - alpha) * digamma(alpha)
    elif name == "poisson_product":
        out = _per_rate(_poisson_entropy_1d, s).sum(axis=-1)
    else:
        raise AssertionError(name)
    return _value(out)


def pseudo_entropy(family: FamilyDescriptor, n):
    """Entropy under the base-measure-reweighted density: -n.A'(n) + A(n).

    Coincides with the standard entropy for unit-base-measure families and is
    closed-form even for Poisson.
    """
    value, mean = partition(family, n)
    return _value(_pseudo_entropy(np.asarray(n, dtype=float), value, mean))


def _pseudo_entropy(n: np.ndarray, log_part, mean: np.ndarray):
    """pseudo_entropy() of rows n from their partition()."""
    return -_dot(n, mean) + log_part


def expected_log_base_measure(family: FamilyDescriptor, s):
    """E[log h(x)] under the family; exactly 0 for unit base measures."""
    s = check_standard(family, s)
    if family.base_measure_kind == "unit_constant":
        return _value(np.zeros(s.shape[:-1]))
    return _value(-_per_rate(_poisson_mean_log_factorial, s).sum(axis=-1))


def sample(family: FamilyDescriptor, s, rng: np.random.Generator, count: int):
    """Draw count i.i.d. samples from every parameter row.

    The result has shape (count, *rows, data_dim), or (count, *rows) state
    indices for categorical, so a 1-D s gives (count, data_dim). Draws fill
    that shape in C order: a stack of rows takes the same values from rng
    as one call per row, made row after row.
    """
    s = check_standard(family, s)
    if count < 0:
        raise ValueError("count must be non-negative")
    name = family.name
    d = family.data_dim
    size = (count,) + s.shape[:-1]
    if name == "bernoulli_product":
        return (rng.random(size + (d,)) < s).astype(float)
    if name == "categorical":
        # Inverse-CDF draws, as Generator.choice makes them for one row.
        cdf = np.cumsum(_with_last_state(s), axis=-1)
        cdf /= cdf[..., -1:]
        return (cdf <= rng.random(size)[..., None]).sum(axis=-1)
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        return rng.normal(s[..., :d], np.sqrt(s[..., d:]), size=size + (d,))
    if name == "gamma":
        return rng.gamma(shape=s[..., :1], scale=1.0 / s[..., 1:], size=size + (1,))
    if name == "poisson_product":
        # Rates just under 2**53 draw past it too; numpy refuses rates past
        # about 9.2e18, so larger ones are refused before drawing.
        past = "poisson rates near or above 2**53 draw counts past the support"
        if np.any(s > _POISSON_COUNT_MAX):
            raise DomainError(past)
        counts = rng.poisson(s, size=size + (d,)).astype(np.int64)
        if np.any(counts > int(_POISSON_COUNT_MAX)):
            raise DomainError(past)
        return counts
    raise AssertionError(name)
