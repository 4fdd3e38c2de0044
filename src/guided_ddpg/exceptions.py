"""Exception types shared across the package.

Each precondition is checked once, where input enters: a setting's range by its
config class (``InsertionEnvConfig``, ``DdpgHyper``, ``TrainConfig``,
``SupervisorConfig``, ``ExperimentSpec``), files and arguments by their readers.
Downstream code raises only on faults it can really meet: non-finite values,
failed factorizations, overflow and ``MemoryError``. The CLI exits with 2 on
:class:`ConfigurationError` (:class:`SpecError` included) and :class:`InputError`,
3 on :class:`NumericalError` and 1 on anything else; training turns a
:class:`SupervisorError` into a degraded epoch. A seed whose training raises
:class:`NumericalError` fails alone: ``train`` records it in ``aggregate.json``
with its reason, finishes the other seeds, writes every artifact and then
exits 3.
"""


class ConfigurationError(ValueError):
    """Invalid static configuration (layer sizes, rates, geometry, ...)."""


class ShapeError(ValueError):
    """A checkpoint's network arrays do not line up."""


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
