"""Bounded FIFO replay buffers of packed float rows, with uniform sampling.

Two buffers back the learner: one holds per-step supervision samples from
the trajectory optimizer, the other holds every environment transition.
Distinct item types keep the two training signals from being cross-wired.

Determinism contract: the ``k``-th push (counting from 0) is written to row
``k % capacity``, and :meth:`ReplayBuffer.sample_rows` draws its indices as
``rng.integers(0, len(buffer), size=n)``. Equal pushes and equal generator
states therefore give bitwise-equal batches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .envs import Transition
from .exceptions import InputError, fits_in_memory


@dataclass(frozen=True)
class SupervisionSample:
    """A (state, action, value) triple produced by the trajectory optimizer.

    ``q_value`` is a discounted return in reward units (non-positive for
    cost-based tasks), directly comparable to the critic's output.
    """

    state: np.ndarray
    action: np.ndarray
    q_value: float


class ReplayBuffer:
    """Ring of ``capacity`` packed rows; the oldest row is overwritten first.

    Each pushed item is packed by ``packer`` into a ``row_width`` float row
    and only that row is kept, so the caller may reuse the item's arrays. The
    ``k``-th push lands in row ``k % capacity``; sampling draws row indices
    uniformly with replacement from ``rng.integers(0, len(self))``.
    """

    def __init__(self, capacity: int, packer: Callable[[object], np.ndarray], row_width: int):
        self.capacity = int(capacity)
        self.total_pushed = 0
        self._packer = packer
        with fits_in_memory(f"a replay capacity of {capacity} rows does not fit in memory"):
            self._rows = np.empty((self.capacity, row_width))

    def __len__(self) -> int:
        return min(self.total_pushed, self.capacity)

    def push(self, item) -> None:
        self._rows[self.total_pushed % self.capacity] = self._packer(item)
        self.total_pushed += 1

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.push(item)

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` stored rows uniformly with replacement, as an ``(n, row_width)`` copy."""
        if self.total_pushed == 0:
            raise InputError("cannot sample from an empty replay buffer")
        return self._rows.take(rng.integers(0, len(self), size=int(n)), axis=0)


@dataclass(frozen=True)
class TransitionBatch:
    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray


@dataclass(frozen=True)
class SupervisionBatch:
    states: np.ndarray
    actions: np.ndarray
    q_values: np.ndarray


TRANSITION_ROW_WIDTH = 16  # state(6) + action(2) + next_state(6) + reward + done


def pack_transition(t: Transition) -> np.ndarray:
    return np.concatenate([t.state, t.action, t.next_state, [t.reward, float(t.done)]])


def transition_batch_from_rows(rows: np.ndarray) -> TransitionBatch:
    return TransitionBatch(
        states=rows[:, 0:6],
        actions=rows[:, 6:8],
        next_states=rows[:, 8:14],
        rewards=rows[:, 14],
        dones=rows[:, 15] > 0.5,
    )


def transition_buffer(capacity: int) -> ReplayBuffer:
    """Ring of packed :class:`Transition` rows."""
    return ReplayBuffer(capacity, pack_transition, TRANSITION_ROW_WIDTH)


SUPERVISION_ROW_WIDTH = 9  # state(6) + action(2) + q_value


def pack_supervision(s: SupervisionSample) -> np.ndarray:
    return np.concatenate([s.state, s.action, [s.q_value]])


def supervision_batch_from_rows(rows: np.ndarray) -> SupervisionBatch:
    return SupervisionBatch(states=rows[:, 0:6], actions=rows[:, 6:8], q_values=rows[:, 8])


def supervision_buffer(capacity: int) -> ReplayBuffer:
    """Ring of packed :class:`SupervisionSample` rows."""
    return ReplayBuffer(capacity, pack_supervision, SUPERVISION_ROW_WIDTH)
