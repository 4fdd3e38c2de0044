import numpy as np
import pytest

from guided_ddpg.ddpg import DdpgHyper
from guided_ddpg.envs import InsertionEnvConfig, Transition
from guided_ddpg.exceptions import ConfigurationError, InputError
from guided_ddpg.guided import TrainConfig
from guided_ddpg.replay import (
    SUPERVISION_ROW_WIDTH,
    TRANSITION_ROW_WIDTH,
    ReplayBuffer,
    SupervisionSample,
    pack_supervision,
    pack_transition,
    supervision_batch_from_rows,
    supervision_buffer,
    transition_batch_from_rows,
    transition_buffer,
)


def scalar_buffer(capacity: int) -> ReplayBuffer:
    """A buffer of one-column rows, so each stored row is just the pushed number."""
    return ReplayBuffer(capacity, lambda x: [float(x)], 1)


def stored(buf: ReplayBuffer, rng_seed: int = 0, n: int = 2000) -> set:
    """Every value the buffer holds: with 2000 draws each of a few rows shows up."""
    return set(buf.sample_rows(n, np.random.default_rng(rng_seed))[:, 0].tolist())


def make_transition(i: int) -> Transition:
    return Transition(np.full(6, i, dtype=float), np.full(2, i, dtype=float),
                      np.full(6, i + 1, dtype=float), -float(i), i % 2 == 0)


class TestPush:
    def test_fifo_eviction(self):
        buf = scalar_buffer(2)
        buf.extend([1, 2, 3])
        assert len(buf) == 2
        assert stored(buf) == {2.0, 3.0}

    def test_push_to_empty(self):
        buf = scalar_buffer(10)
        buf.push(1)
        assert len(buf) == 1

    def test_order_preserved_under_capacity(self):
        # below capacity the k-th push sits in row k, so index draws map to pushes in order
        buf = scalar_buffer(10)
        buf.extend(range(7))
        rng = np.random.default_rng(3)
        idx = np.random.default_rng(3).integers(0, 7, size=50)
        assert np.array_equal(buf.sample_rows(50, rng)[:, 0], idx.astype(float))

    def test_holds_exactly_last_capacity_items(self):
        buf = scalar_buffer(5)
        buf.extend(range(23))
        assert len(buf) == 5
        assert stored(buf) == {18.0, 19.0, 20.0, 21.0, 22.0}
        assert buf.total_pushed == 23

    def test_invalid_capacity(self):
        # a capacity below one is rejected where it is set; the ring never sees one
        hyper = DdpgHyper.for_env(InsertionEnvConfig())
        with pytest.raises(ConfigurationError, match="r2_capacity"):
            TrainConfig(hyper=hyper, r2_capacity=-1)
        with pytest.raises(ConfigurationError):  # the whole ring is allocated up front
            transition_buffer(10**13)

    def test_pushed_item_is_not_kept(self):
        # the buffer keeps the packed row, so the caller may reuse its arrays
        buf = transition_buffer(4)
        tr = make_transition(3)
        buf.push(tr)
        tr.state[:] = -99.0
        assert np.array_equal(buf.sample_rows(1, np.random.default_rng(0))[0], pack_transition(make_transition(3)))


class TestSample:
    def test_single_item_repeats(self):
        buf = scalar_buffer(4)
        buf.push(7)
        assert np.array_equal(buf.sample_rows(3, np.random.default_rng(0)), [[7.0], [7.0], [7.0]])

    def test_deterministic_under_fixed_rng(self):
        buf = scalar_buffer(100)
        buf.extend(range(50))
        a = buf.sample_rows(20, np.random.default_rng(7))
        b = buf.sample_rows(20, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_empty_buffer_rejected(self):
        with pytest.raises(InputError):
            scalar_buffer(4).sample_rows(1, np.random.default_rng(0))
        with pytest.raises(InputError):
            supervision_buffer(4).sample_rows(1, np.random.default_rng(0))

    def test_uniformity_binomial_bound(self):
        # 10_000 draws over two rows: the frequency of the first must be a fair coin's
        buf = scalar_buffer(2)
        buf.extend([0, 1])
        draws = buf.sample_rows(10_000, np.random.default_rng(123))[:, 0]
        freq = np.count_nonzero(draws == 0.0) / draws.size
        assert 0.47 <= freq <= 0.53

    def test_samples_are_stored_items(self):
        buf = scalar_buffer(8)
        buf.extend(range(100))  # leaves 92..99
        draws = buf.sample_rows(50, np.random.default_rng(1))
        assert draws.shape == (50, 1)
        assert set(draws[:, 0].tolist()) <= set(map(float, range(92, 100)))


class TestStacking:
    def test_transition_batch_shapes(self):
        rows = np.stack([pack_transition(make_transition(i)) for i in range(5)])
        assert rows.shape == (5, TRANSITION_ROW_WIDTH)
        batch = transition_batch_from_rows(rows)
        assert batch.states.shape == (5, 6)
        assert batch.actions.shape == (5, 2)
        assert batch.next_states.shape == (5, 6)
        assert np.array_equal(batch.states[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(batch.next_states[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(batch.rewards, [-0.0, -1.0, -2.0, -3.0, -4.0])
        assert batch.dones.dtype == bool
        assert batch.dones.tolist() == [True, False, True, False, True]

    def test_supervision_batch_shapes(self):
        rows = np.stack([pack_supervision(SupervisionSample(np.zeros(6), np.ones(2), -0.5)) for _ in range(3)])
        assert rows.shape == (3, SUPERVISION_ROW_WIDTH)
        batch = supervision_batch_from_rows(rows)
        assert batch.states.shape == (3, 6)
        assert np.array_equal(batch.actions, np.ones((3, 2)))
        assert np.array_equal(batch.q_values, [-0.5, -0.5, -0.5])

    def test_factory_buffers_round_trip(self):
        buf = transition_buffer(3)
        buf.extend(make_transition(i) for i in range(5))  # leaves 2, 3, 4
        batch = transition_batch_from_rows(buf.sample_rows(200, np.random.default_rng(4)))
        assert set(batch.rewards.tolist()) == {-2.0, -3.0, -4.0}
        assert np.array_equal(batch.dones, batch.rewards % 2 == 0)
        assert np.array_equal(batch.next_states, batch.states + 1.0)
