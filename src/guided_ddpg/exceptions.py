"""Exception types shared across the package: one root per exit code of the CLI.

Each precondition is checked once, where input enters: a setting's range by its
config class (``InsertionEnvConfig``, ``DdpgHyper``, ``TrainConfig``,
``SupervisorConfig``, ``ExperimentSpec``), files and arguments by their readers.
Downstream code raises only on faults it can really meet: non-finite values,
failed factorizations, overflow and ``MemoryError``. The CLI exits with 2 on
:class:`InputError`, 3 on :class:`NumericalError` and 1 on anything else;
training turns a :class:`SupervisorError` into a degraded epoch. A seed whose
training raises :class:`NumericalError` fails alone: ``train`` records it in
``aggregate.json`` with its reason, finishes the other seeds, writes every
artifact and then exits 3.
"""
from contextlib import contextmanager


class InputError(ValueError):
    """An input that violates a precondition: a setting, a spec, config, checkpoint or result file, a size that
    does not fit in memory, or a runtime value such as a non-finite action."""


class NumericalError(RuntimeError):
    """A computation produced or received non-finite / indefinite values."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite failed its factorization."""


class SupervisorError(NumericalError):
    """The trajectory-optimization supervisor failed for one epoch; it wraps the :class:`NumericalError`."""


@contextmanager
def fits_in_memory(message: str):
    """Raise :class:`InputError` with ``message`` when an allocation inside fails: a ``MemoryError``, or the
    ``ValueError`` numpy raises for a dimension it cannot index."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise InputError(message) from exc
