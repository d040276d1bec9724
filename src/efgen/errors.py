"""Exceptions shared across the package."""


class DomainError(ValueError):
    """Parameter vector outside a family's standard or natural domain."""


class SupportError(ValueError):
    """Data point outside a family's support."""


class IncompatibilityError(ValueError):
    """Variational state kind incompatible with the model's latent support."""


class UnsupportedModelError(ValueError):
    """An operation requiring exact marginalization got a model without it."""


class EmptyClusterError(RuntimeError):
    """A mixture component lost all responsibility mass during training."""


class NewtonConvergenceError(RuntimeError):
    """The shape-parameter Newton iteration failed to converge."""


class DegenerateDataError(ValueError):
    """Data covariance rank too low for the requested latent dimension."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries field diagnostics."""
