"""Exponential-family generative models and ELBO entropy-sum identities.

The package builds generative models from exponential-family priors and
noise distributions, trains them to stationary points (mixture EM,
probabilistic PCA, sigmoid belief nets), and verifies numerically that the
ELBO equals a sum of entropies there. A parameterization checker gates the
identity: models whose natural-parameter maps fail the column-space
condition (see :mod:`efgen.models`) are flagged before any gap is asserted.
"""

__version__ = "0.1.0"

from . import errors, families, learning, models, objective  # noqa: E402,F401

__all__ = [
    "__version__",
    "errors",
    "families",
    "models",
    "objective",
    "learning",
]
