"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid static configuration (layer sizes, rates, geometry, ...)."""


class ShapeError(ValueError):
    """Array arguments whose shapes do not line up."""


class InputError(ValueError):
    """Runtime inputs that violate a precondition (non-finite action, empty buffer)."""


class NumericalError(RuntimeError):
    """A computation produced or received non-finite / indefinite values."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite failed its factorization."""


class SupervisorError(RuntimeError):
    """The trajectory-optimization supervisor failed for one epoch."""


class SpecError(ConfigurationError):
    """A spec, config, checkpoint or result file failed schema validation."""
