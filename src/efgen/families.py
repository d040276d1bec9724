"""Exponential-family distributions in natural-parameter form.

Each family is described by a :class:`FamilyDescriptor`; parameter vectors are
plain 1-D float arrays. Standard parameters use the conventional layouts:

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

Natural-domain membership checks are strict inequalities with no epsilon
slack; callers clamp if needed. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportError
from .special import digamma, log_factorial, log_factorial_array, log_gamma

__all__ = [
    "FamilyDescriptor",
    "bernoulli_product",
    "categorical",
    "gaussian_scalar_var",
    "gaussian_diag_cov",
    "gamma_family",
    "poisson_product",
    "standard_dim",
    "check_standard",
    "check_natural",
    "to_natural",
    "from_natural",
    "log_partition",
    "grad_log_partition",
    "sufficient_stats",
    "log_base_measure",
    "log_density",
    "entropy",
    "pseudo_entropy",
    "expected_log_base_measure",
    "sample",
]

_FAMILY_NAMES = (
    "bernoulli_product",
    "categorical",
    "gaussian_scalar_var",
    "gaussian_diag_cov",
    "gamma",
    "poisson_product",
)

# Poisson sums run over a window of lam -+ _POISSON_WINDOW_SDS standard
# deviations, plus _POISSON_WINDOW_PAD points on the right, and stop early
# once the remaining tail mass drops below _POISSON_TAIL_MASS. Above
# _POISSON_ASYMPTOTIC_RATE the entropy's large-rate series replaces them.
_POISSON_WINDOW_SDS = 10.0
_POISSON_WINDOW_PAD = 30
_POISSON_TAIL_MASS = 1e-13
_POISSON_ASYMPTOTIC_RATE = 1e4


@dataclass(frozen=True)
class FamilyDescriptor:
    """An exponential family: dimensions plus base-measure kind."""

    name: str
    data_dim: int
    natural_dim: int
    base_measure_kind: str = "unit_constant"

    def __post_init__(self):
        if self.name not in _FAMILY_NAMES:
            raise ValueError(f"unknown family name {self.name!r}")
        # natural_dim 0 is the degenerate single-state categorical.
        min_natural = 0 if self.name == "categorical" else 1
        if self.data_dim < 1 or self.natural_dim < min_natural:
            raise ValueError("dimensions must be positive")
        expected_nat = {
            "bernoulli_product": self.data_dim,
            "categorical": self.natural_dim,  # free-standing, see below
            "gaussian_scalar_var": 2 * self.data_dim,
            "gaussian_diag_cov": 2 * self.data_dim,
            "gamma": 2,
            "poisson_product": self.data_dim,
        }[self.name]
        if self.name == "categorical":
            if self.data_dim != 1:
                raise ValueError("categorical data points are single state indices")
        elif self.natural_dim != expected_nat:
            raise ValueError(
                f"{self.name} with data_dim={self.data_dim} needs "
                f"natural_dim={expected_nat}, got {self.natural_dim}"
            )
        expected_base = (
            "poisson_factorial" if self.name == "poisson_product" else "unit_constant"
        )
        if self.base_measure_kind != expected_base:
            raise ValueError(
                f"{self.name} requires base_measure_kind={expected_base!r}"
            )

    @property
    def n_states(self) -> int:
        """Number of categorical states C (categorical families only)."""
        if self.name != "categorical":
            raise ValueError("n_states is defined for categorical families only")
        return self.natural_dim + 1


def bernoulli_product(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("bernoulli_product", data_dim, data_dim)


def categorical(n_states: int) -> FamilyDescriptor:
    if n_states < 1:
        raise ValueError("categorical needs at least 1 state")
    return FamilyDescriptor("categorical", 1, n_states - 1)


def gaussian_scalar_var(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("gaussian_scalar_var", data_dim, 2 * data_dim)


def gaussian_diag_cov(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("gaussian_diag_cov", data_dim, 2 * data_dim)


def gamma_family() -> FamilyDescriptor:
    return FamilyDescriptor("gamma", 1, 2)


def poisson_product(data_dim: int) -> FamilyDescriptor:
    return FamilyDescriptor("poisson_product", data_dim, data_dim, "poisson_factorial")


def standard_dim(family: FamilyDescriptor) -> int:
    """Length of the standard parameter vector."""
    return {
        "bernoulli_product": family.data_dim,
        "categorical": family.natural_dim,
        "gaussian_scalar_var": family.data_dim + 1,
        "gaussian_diag_cov": 2 * family.data_dim,
        "gamma": 2,
        "poisson_product": family.data_dim,
    }[family.name]


def _as_vector(v, length: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{what} must have shape ({length},), got {arr.shape}")
    return arr


def check_standard(family: FamilyDescriptor, s) -> np.ndarray:
    """Validate a standard parameter vector; returns it as a float array."""
    s = _as_vector(s, standard_dim(family), "standard params")
    if not np.all(np.isfinite(s)):
        raise DomainError(f"{family.name}: non-finite standard params")
    name = family.name
    if name == "bernoulli_product":
        if not np.all((s > 0.0) & (s < 1.0)):
            raise DomainError("bernoulli probabilities must lie in the open (0,1)")
    elif name == "categorical":
        if not (np.all(s > 0.0) and s.sum() < 1.0):
            raise DomainError(
                "categorical weights must be positive with sum below 1 "
                "(last state implicit)"
            )
    elif name == "gaussian_scalar_var":
        if not s[-1] > 0.0:
            raise DomainError("gaussian variance must be positive")
    elif name == "gaussian_diag_cov":
        if not np.all(s[family.data_dim :] > 0.0):
            raise DomainError("gaussian variances must be positive")
    elif name == "gamma":
        if not (s[0] > 0.0 and s[1] > 0.0):
            raise DomainError("gamma shape and rate must be positive")
    elif name == "poisson_product":
        if not np.all(s > 0.0):
            raise DomainError("poisson rates must be positive")
    return s


def check_natural(family: FamilyDescriptor, n) -> np.ndarray:
    """Validate a natural parameter vector; returns it as a float array."""
    n = _as_vector(n, family.natural_dim, "natural params")
    if not np.all(np.isfinite(n)):
        raise DomainError(f"{family.name}: non-finite natural params")
    name = family.name
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        if not np.all(n[family.data_dim :] < 0.0):
            raise DomainError("gaussian precision coordinates must be negative")
    elif name == "gamma":
        if not (n[0] > -1.0 and n[1] < 0.0):
            raise DomainError("gamma natural domain is n1 > -1, n2 < 0")
    return n


def to_natural(family: FamilyDescriptor, s) -> np.ndarray:
    s = check_standard(family, s)
    name = family.name
    if name == "bernoulli_product":
        return np.log(s) - np.log1p(-s)
    if name == "categorical":
        pi_last = 1.0 - s.sum()
        return np.log(s) - math.log(pi_last)
    if name == "gaussian_scalar_var":
        mu, sigma2 = s[:-1], s[-1]
        return np.concatenate([mu / sigma2, np.full(family.data_dim, -0.5 / sigma2)])
    if name == "gaussian_diag_cov":
        d = family.data_dim
        mu, sigma2 = s[:d], s[d:]
        return np.concatenate([mu / sigma2, -0.5 / sigma2])
    if name == "gamma":
        alpha, beta = s
        return np.array([alpha - 1.0, -beta])
    if name == "poisson_product":
        return np.log(s)
    raise AssertionError(name)


def from_natural(family: FamilyDescriptor, n) -> np.ndarray:
    n = check_natural(family, n)
    name = family.name
    if name == "bernoulli_product":
        return 1.0 / (1.0 + np.exp(-n))
    if name == "categorical":
        a = _categorical_log_partition(n)
        return np.exp(n - a)
    if name == "gaussian_scalar_var":
        d = family.data_dim
        a, b = n[:d], n[d:]
        spread = np.max(np.abs(b - b[0]))
        if spread > 1e-12 * max(1.0, abs(b[0])):
            raise DomainError(
                "scalar-variance natural params need equal precision coordinates"
            )
        sigma2 = -0.5 / b[0]
        return np.concatenate([a * sigma2, [sigma2]])
    if name == "gaussian_diag_cov":
        d = family.data_dim
        a, b = n[:d], n[d:]
        sigma2 = -0.5 / b
        return np.concatenate([a * sigma2, sigma2])
    if name == "gamma":
        return np.array([n[0] + 1.0, -n[1]])
    if name == "poisson_product":
        return np.exp(n)
    raise AssertionError(name)


def _categorical_log_partition(n: np.ndarray) -> float:
    # log(1 + sum exp(n_i)), stable for large positive entries.
    if n.size == 0:
        return 0.0
    m = max(0.0, float(np.max(n)))
    return m + math.log(math.exp(-m) + np.exp(n - m).sum())


def log_partition(family: FamilyDescriptor, n) -> float:
    n = check_natural(family, n)
    name = family.name
    if name == "bernoulli_product":
        return float(np.logaddexp(0.0, n).sum())
    if name == "categorical":
        return _categorical_log_partition(n)
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        a, b = n[:d], n[d:]
        return float(
            np.sum(-0.25 * a * a / b + 0.5 * math.log(2.0 * math.pi) - 0.5 * np.log(-2.0 * b))
        )
    if name == "gamma":
        return log_gamma(n[0] + 1.0) - (n[0] + 1.0) * math.log(-n[1])
    if name == "poisson_product":
        return float(np.exp(n).sum())
    raise AssertionError(name)


def grad_log_partition(family: FamilyDescriptor, n) -> np.ndarray:
    """Gradient of the log-partition, equal to the expected sufficient stats."""
    n = check_natural(family, n)
    name = family.name
    if name == "bernoulli_product":
        return 1.0 / (1.0 + np.exp(-n))
    if name == "categorical":
        a = _categorical_log_partition(n)
        return np.exp(n - a)
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        d = family.data_dim
        a, b = n[:d], n[d:]
        mean = -0.5 * a / b
        second_moment = 0.25 * a * a / (b * b) - 0.5 / b
        return np.concatenate([mean, second_moment])
    if name == "gamma":
        return np.array(
            [digamma(n[0] + 1.0) - math.log(-n[1]), (n[0] + 1.0) / (-n[1])]
        )
    if name == "poisson_product":
        return np.exp(n)
    raise AssertionError(name)


def _check_support(family: FamilyDescriptor, x):
    name = family.name
    if name == "categorical":
        xi = int(x)
        if xi != x or not (0 <= xi < family.n_states):
            raise SupportError(f"categorical state must be an int in [0, {family.n_states})")
        return xi
    x = _as_vector(x, family.data_dim, "data point")
    if name == "bernoulli_product":
        if not np.all((x == 0.0) | (x == 1.0)):
            raise SupportError("bernoulli observations must be 0/1")
    elif name == "gamma":
        if not np.all(x > 0.0):
            raise SupportError("gamma observations must be positive")
    elif name == "poisson_product":
        if not np.all((x >= 0.0) & (x == np.floor(x))):
            raise SupportError("poisson observations must be non-negative integers")
    elif not np.all(np.isfinite(x)):
        raise SupportError("observations must be finite")
    return x


def sufficient_stats(family: FamilyDescriptor, x) -> np.ndarray:
    x = _check_support(family, x)
    name = family.name
    if name == "bernoulli_product":
        return np.asarray(x, dtype=float)
    if name == "categorical":
        t = np.zeros(family.natural_dim)
        if x < family.natural_dim:
            t[x] = 1.0
        return t
    if name in ("gaussian_scalar_var", "gaussian_diag_cov"):
        return np.concatenate([x, x * x])
    if name == "gamma":
        return np.array([math.log(x[0]), x[0]])
    if name == "poisson_product":
        return np.asarray(x, dtype=float)
    raise AssertionError(name)


def log_base_measure(family: FamilyDescriptor, x) -> float:
    x = _check_support(family, x)
    if family.base_measure_kind == "unit_constant":
        return 0.0
    return -float(sum(log_factorial(int(v)) for v in x))


def log_density(family: FamilyDescriptor, n, x) -> float:
    """Log density (continuous) or log mass (discrete) at x."""
    n = check_natural(family, n)
    t = sufficient_stats(family, x)
    return log_base_measure(family, x) + float(n @ t) - log_partition(family, n)


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
        return np.hstack([data, data * data])
    if name == "gamma":
        if data.size and not np.all(data > 0.0):
            raise SupportError("gamma observations must be positive")
        return np.hstack([np.log(data), data])
    if name == "poisson_product":
        if data.size and not np.all((data >= 0.0) & (data == np.floor(data))):
            raise SupportError("poisson observations must be non-negative integers")
        return data.copy()
    raise AssertionError(name)


def batch_log_base_measure(family: FamilyDescriptor, data) -> np.ndarray:
    """log h(x) for a whole dataset, shape (N,)."""
    if family.base_measure_kind == "unit_constant":
        n = np.asarray(data).shape[0] if np.ndim(data) else 0
        return np.zeros(n)
    data = np.asarray(data, dtype=float)
    return -log_factorial_array(data).sum(axis=1)


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


def _poisson_window(lam: float):
    """(pmf, log pmf, log k!) of Pois(lam) over the terms its sums need.

    By Bernstein's inequality the window leaves out less than 1e-19 of the
    mass on each side: P(K >= lam + t) <= exp(-t^2 / (2 (lam + t/3))) <=
    exp(-45) at t = 10 sqrt(lam) + 30, and P(K <= lam - t) <= exp(-t^2 /
    (2 lam)). The floating-point tail mass 1 - sum(pmf) levels off near
    1e-13 for rates of a few hundred and more, so the early stop alone
    would not end the series there.
    """
    half = _POISSON_WINDOW_SDS * math.sqrt(lam)
    k = np.arange(max(0, math.floor(lam - half)), math.ceil(lam + half) + _POISSON_WINDOW_PAD + 1)
    log_fact = log_factorial_array(k)
    log_p = k * math.log(lam) - lam - log_fact
    p = np.exp(log_p)
    done = (k > lam) & (1.0 - np.cumsum(p) < _POISSON_TAIL_MASS)
    stop = int(np.argmax(done)) + 1 if done.any() else len(k)
    return p[:stop], log_p[:stop], log_fact[:stop]


def _poisson_entropy_1d(lam: float) -> float:
    if lam >= _POISSON_ASYMPTOTIC_RATE:
        # H = log(2 pi e lam)/2 - 1/(12 lam) - 1/(24 lam^2) - 19/(360 lam^3) + O(lam^-4)
        return (
            0.5 * math.log(2.0 * math.pi * math.e * lam)
            - 1.0 / (12.0 * lam)
            - 1.0 / (24.0 * lam**2)
            - 19.0 / (360.0 * lam**3)
        )
    p, log_p, _ = _poisson_window(lam)
    return float(-(p @ log_p))


def _poisson_mean_log_factorial(lam: float) -> float:
    if lam >= _POISSON_ASYMPTOTIC_RATE:
        # From H = lam - lam log(lam) + E[log K!].
        return _poisson_entropy_1d(lam) + lam * math.log(lam) - lam
    p, _, log_fact = _poisson_window(lam)
    return float(p @ log_fact)


def entropy(family: FamilyDescriptor, s) -> float:
    """Differential or discrete entropy in nats, from standard parameters.

    Poisson has no closed form; its entropy is a summation with the tail
    mass cut off below 1e-13 (a window around the rate bounds the terms),
    or a large-rate asymptotic series above rate 1e4.
    """
    s = check_standard(family, s)
    name = family.name
    if name == "bernoulli_product":
        return float(_binary_entropy(s).sum())
    if name == "categorical":
        pi_last = 1.0 - s.sum()
        full = np.concatenate([s, [pi_last]])
        return float(-(full * np.log(full)).sum())
    if name == "gaussian_scalar_var":
        d = family.data_dim
        return 0.5 * d * math.log(2.0 * math.pi * math.e * s[-1])
    if name == "gaussian_diag_cov":
        d = family.data_dim
        return float(0.5 * np.log(2.0 * math.pi * math.e * s[d:]).sum())
    if name == "gamma":
        alpha, beta = s
        return alpha - math.log(beta) + log_gamma(alpha) + (1.0 - alpha) * digamma(alpha)
    if name == "poisson_product":
        return float(sum(_poisson_entropy_1d(lam) for lam in s))
    raise AssertionError(name)


def pseudo_entropy(family: FamilyDescriptor, n) -> float:
    """Entropy under the base-measure-reweighted density: -n.A'(n) + A(n).

    Coincides with the standard entropy for unit-base-measure families and is
    closed-form even for Poisson.
    """
    n = check_natural(family, n)
    return float(-(n @ grad_log_partition(family, n)) + log_partition(family, n))


def expected_log_base_measure(family: FamilyDescriptor, s) -> float:
    """E[log h(x)] under the family; exactly 0 for unit base measures."""
    s = check_standard(family, s)
    if family.base_measure_kind == "unit_constant":
        return 0.0
    return -float(sum(_poisson_mean_log_factorial(lam) for lam in s))


def sample(family: FamilyDescriptor, s, rng: np.random.Generator, count: int):
    """Draw i.i.d. samples; shape (count, data_dim), or (count,) ints for categorical."""
    s = check_standard(family, s)
    if count < 0:
        raise ValueError("count must be non-negative")
    name = family.name
    d = family.data_dim
    if name == "bernoulli_product":
        return (rng.random((count, d)) < s).astype(float)
    if name == "categorical":
        full = np.concatenate([s, [1.0 - s.sum()]])
        return rng.choice(family.n_states, size=count, p=full)
    if name == "gaussian_scalar_var":
        return rng.normal(s[:-1], math.sqrt(s[-1]), size=(count, d))
    if name == "gaussian_diag_cov":
        return rng.normal(s[:d], np.sqrt(s[d:]), size=(count, d))
    if name == "gamma":
        return rng.gamma(shape=s[0], scale=1.0 / s[1], size=(count, 1))
    if name == "poisson_product":
        return rng.poisson(s, size=(count, d)).astype(np.int64)
    raise AssertionError(name)
