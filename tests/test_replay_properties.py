"""Property test for replay: the ring is a FIFO of the last ``capacity`` pushes."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from guided_ddpg.exceptions import InputError  # noqa: E402
from guided_ddpg.replay import ReplayBuffer  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 20),
       values=st.lists(st.floats(allow_nan=False, width=64), max_size=60),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_sample_rows_match_a_list_model(capacity, values, n, seed):
    buf = ReplayBuffer(capacity, lambda v: [v, -v], 2)
    model = []  # plain list; the k-th push overwrites slot k % capacity once full
    for k, v in enumerate(values):
        buf.push(v)
        if k < capacity:
            model.append(v)
        else:
            model[k % capacity] = v
    assert len(buf) == len(model)
    assert buf.total_pushed == len(values)
    if not values:
        with pytest.raises(InputError):
            buf.sample_rows(n, np.random.default_rng(seed))
        return
    got = buf.sample_rows(n, np.random.default_rng(seed))
    idx = np.random.default_rng(seed).integers(0, len(model), size=n)
    want = np.array([[model[i], -model[i]] for i in idx])
    assert got.tobytes() == want.tobytes()
