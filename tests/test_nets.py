import json

import numpy as np
import pytest

from guided_ddpg.exceptions import InputError, NumericalError
from guided_ddpg.nets import (
    ADAM_LEARNING_RATE,
    MlpParams,
    adam_init,
    adam_step,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_from_dict,
    mlp_init,
    mlp_to_dict,
    soft_update,
)

import verbatim_oracles


def forward(params, x):
    return mlp_forward(params, x)[0]


def backward(params, x, output_gradient, **flags):
    """``mlp_backward`` through the activations of a fresh forward pass."""
    return mlp_backward(params, output_gradient, mlp_forward(params, x)[1], **flags)


def finite_difference_grad(params, x, output_gradient, h=1e-5):
    """Independent oracle: central differences of loss = sum(output_gradient * f(x))."""
    g = np.asarray(output_gradient, dtype=np.float64)

    def loss(vec):
        return float(np.sum(forward(MlpParams(params.layer_sizes, vec, params.output_activation), x) * g))

    theta = params.vector
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (loss(plus) - loss(minus)) / (2 * h)
    return grad


def per_layer_adam(params, grads, m, v, step_count, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: the adaptive-moment update applied array by array, on lists of layer arrays."""
    t = step_count + 1
    scale1 = lr / (1.0 - b1**t)
    inv_sqrt_corr2 = 1.0 / np.sqrt(1.0 - b2**t)
    new_p, new_m, new_v = [], [], []
    for p_i, g_i, m_i, v_i in zip(params, grads, m, v):
        m_i = b1 * m_i + (1.0 - b1) * g_i
        v_i = b2 * v_i + (1.0 - b2) * (g_i * g_i)
        new_p.append(p_i - scale1 * m_i / (np.sqrt(v_i) * inv_sqrt_corr2 + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_p, new_m, new_v


def per_layer_soft_update(target, source, rate):
    """Oracle: the target blend applied array by array."""
    return [rate * s + (1.0 - rate) * t for t, s in zip(target, source)]


def layer_arrays(layer_sizes, vector):
    """Copies of the layer arrays of a vector, in checkpoint order: w0, b0, w1, b1, ..."""
    weights, biases = layer_views(layer_sizes, vector)
    return [a.copy() for pair in zip(weights, biases) for a in pair]


def flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestInit:
    def test_two_layer_shapes(self):
        params = mlp_init([2, 1], seed=7)
        assert params.weights[0].shape == (1, 2)
        assert np.array_equal(params.biases[0], np.zeros(1))

    def test_same_seed_bitwise_identical(self):
        a = mlp_init([6, 64, 64, 2], seed=7)
        b = mlp_init([6, 64, 64, 2], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_deep_shapes(self):
        params = mlp_init([6, 64, 64, 2], seed=3)
        assert [w.shape for w in params.weights] == [(64, 6), (64, 64), (2, 64)]

    def test_glorot_bounds(self):
        params = mlp_init([10, 20], seed=0)
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(params.weights[0]) <= limit)

    def test_bad_activation_rejected(self):
        with pytest.raises(InputError):
            mlp_init([2, 2], output_activation="sigmoid", seed=0)


class TestForward:
    def test_identity_network(self):
        params = mlp_init([3, 3], output_activation="identity", seed=0)
        params = MlpParams(params.layer_sizes, np.concatenate([np.eye(3).ravel(), np.zeros(3)]),
                           params.output_activation)
        x = np.array([[0.3, -1.2, 4.0]])
        assert np.allclose(forward(params, x), x)

    def test_hand_affine(self):
        params = mlp_init([2, 2], seed=0)
        params = MlpParams(params.layer_sizes, np.array([2.0, 0.0, 0.0, 3.0, 1.0, -1.0]), params.output_activation)
        assert np.allclose(forward(params, np.array([[1.0, 1.0]])), [[3.0, 2.0]])

    def test_zero_weights_give_output_bias(self):
        params = mlp_init([4, 8, 2], seed=1)
        out_bias = np.array([0.5, -0.25])
        # set final bias only: it closes the parameter vector
        vec = np.zeros(params.vector.size)
        vec[-2:] = out_bias
        params_zero = MlpParams(params.layer_sizes, vec, params.output_activation)
        assert np.array_equal(params_zero.biases[-1], out_bias)
        xs = np.array([np.zeros(4), np.ones(4), [3.0, -2.0, 0.1, 9.0]])
        assert np.allclose(forward(params_zero, xs), np.tile(out_bias, (3, 1)))

    def test_batch_matches_rows(self):
        params = mlp_init([3, 16, 2], seed=5)
        xs = np.random.default_rng(0).normal(size=(7, 3))
        batch = forward(params, xs)
        rows = np.concatenate([forward(params, x[None]) for x in xs])
        # BLAS may accumulate batched and single-row products in different orders
        assert np.allclose(batch, rows, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("output_activation", ["identity", "tanh"])
    @pytest.mark.parametrize("block_rows", [1, 5])
    def test_stack_has_the_bits_of_each_block_alone(self, block_rows, output_activation):
        # one forward pass on a (T, N, d) stack equals T passes on its (N, d) blocks, bit for bit,
        # for C-ordered stacks and for the transposed views the supervisor passes
        rng = np.random.default_rng(block_rows)
        for seed in range(10):
            params = mlp_init([6, 64, 64, 2], output_activation, seed=seed)
            rows = rng.normal(size=(block_rows, 100, 6))
            for stack in (rows.transpose(1, 0, 2), np.ascontiguousarray(rows.transpose(1, 0, 2))):
                got = mlp_forward(params, stack)[0]
                want = np.stack([mlp_forward(params, block)[0] for block in stack])
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBackward:
    def test_linear_net_weight_grad_is_outer_product(self):
        params = mlp_init([3, 2], seed=2)
        x = np.array([[0.5, -1.0, 2.0]])
        g = np.array([[1.0, -2.0]])
        grads, _ = backward(params, x, g)
        weights, biases = layer_views(params.layer_sizes, grads)
        assert np.allclose(weights[0], np.outer(g[0], x[0]))
        assert np.allclose(biases[0], g[0])

    # ids name the hidden and the output activation
    @pytest.mark.parametrize("output_activation", ["identity", "tanh"], ids=["tanh-identity", "tanh-tanh"])
    def test_gradcheck_6_32_2(self, output_activation):
        params = mlp_init([6, 32, 2], output_activation, seed=11)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6))
        g = rng.normal(size=(1, 2))
        analytic = backward(params, x, g)[0]
        numeric = finite_difference_grad(params, x, g)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_input_gradient_matches_finite_difference(self):
        params = mlp_init([4, 16, 3], seed=9)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        g = rng.normal(size=(1, 3))
        _, input_grad = backward(params, x, g)
        h = 1e-6
        numeric = np.zeros((1, 4))
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            numeric[0, i] = (np.sum(forward(params, xp) * g) - np.sum(forward(params, xm) * g)) / (2 * h)
        assert np.allclose(input_grad, numeric, rtol=1e-5, atol=1e-8)

    def test_zero_output_gradient_zero_everywhere(self):
        params = mlp_init([3, 8, 2], seed=4)
        grads, input_grad = backward(params, np.ones((1, 3)), np.zeros((1, 2)))
        assert np.all(grads == 0.0)
        assert np.all(input_grad == 0.0)

    def test_batched_param_grads_sum_over_rows(self):
        params = mlp_init([3, 8, 2], seed=6)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(5, 3))
        gs = rng.normal(size=(5, 2))
        batch_grads, _ = backward(params, xs, gs)
        summed = sum(backward(params, x[None], g[None])[0] for x, g in zip(xs, gs))
        assert np.allclose(batch_grads, summed)


def writable(params):
    """A writable copy of a net's vector, for the in-place updates to write."""
    return params.vector.copy()


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = mlp_init([2, 2], seed=0)
        state = adam_init(params)
        vector = writable(params)
        adam_step(state, vector, np.zeros(params.vector.size))
        assert np.array_equal(vector, params.vector)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = mlp_init([2, 2], seed=0)
        state = adam_init(params)
        grads = np.empty(params.vector.size)
        weights, biases = layer_views(params.layer_sizes, grads)
        for w, b in zip(weights, biases):
            w[...] = 0.5
            b[...] = -0.25
        vector = writable(params)
        adam_step(state, vector, grads)
        delta = vector - params.vector
        assert np.allclose(np.abs(delta), ADAM_LEARNING_RATE, rtol=1e-6)
        # update opposes the gradient sign
        assert np.all(np.sign(delta) == -np.sign(grads))

    def test_determinism(self):
        params = mlp_init([3, 4, 1], seed=8)
        grads, _ = backward(params, np.ones((1, 3)), np.ones((1, 1)))
        a_state, b_state = adam_init(params), adam_init(params)
        a_vector, b_vector = writable(params), writable(params)
        adam_step(a_state, a_vector, grads)
        adam_step(b_state, b_vector, grads)
        assert np.array_equal(a_vector, b_vector)
        assert np.array_equal(a_state.m, b_state.m) and np.array_equal(a_state.v, b_state.v)
        assert a_state.step_count == b_state.step_count == 1

    def test_nonfinite_gradient_rejected(self):
        # the check runs before any write: parameters, moments and step count stay as they were
        rng = np.random.default_rng(3)
        params = mlp_init([2, 1], seed=0)
        state = adam_init(params)
        vector = writable(params)
        adam_step(state, vector, rng.normal(size=vector.size))
        for poison in (np.nan, np.inf, -np.inf):
            for at in range(vector.size):
                bad = rng.normal(size=vector.size)
                bad[at] = poison
                before = [a.copy() for a in (vector, state.m, state.v)]
                with pytest.raises(NumericalError):
                    adam_step(state, vector, bad)
                for a, b in zip(before, (vector, state.m, state.v)):
                    assert np.array_equal(a, b)
                assert state.step_count == 1

    def test_matches_per_layer_oracle_bitwise(self):
        rng = np.random.default_rng(12)
        params = mlp_init([6, 16, 16, 2], seed=4)
        state = adam_init(params)
        vector = writable(params)
        sizes = params.layer_sizes
        p = layer_arrays(sizes, params.vector)
        m = [np.zeros_like(a) for a in p]
        v = [np.zeros_like(a) for a in p]
        for k in range(6):
            grads = rng.normal(scale=10.0 ** (k - 3), size=params.vector.size)
            adam_step(state, vector, grads)
            p, m, v = per_layer_adam(p, layer_arrays(sizes, grads), m, v, k, 1e-3)
            assert state.step_count == k + 1
            assert np.array_equal(vector, flatten(p))
            assert np.array_equal(state.m, flatten(m))
            assert np.array_equal(state.v, flatten(v))

    def test_inputs_unchanged(self):
        # the gradient is the one argument adam_step only reads; the parameters and
        # moments are written where they lie, so every view of them sees the step
        rng = np.random.default_rng(13)
        params = mlp_init([3, 4, 1], seed=8)
        state = adam_init(params)
        vector = writable(params)
        view = MlpParams(params.layer_sizes, vector)
        m, v = state.m, state.v
        grads = rng.normal(size=vector.size)
        before_grads = grads.copy()
        adam_step(state, vector, grads)
        assert np.array_equal(grads, before_grads)
        assert state.m is m and state.v is v
        assert np.shares_memory(view.vector, vector)
        assert not np.array_equal(view.vector, params.vector)
        expected, _, _ = per_layer_adam([params.vector], [grads], [np.zeros(vector.size)],
                                        [np.zeros(vector.size)], 0, 1e-3)
        assert np.array_equal(view.vector, expected[0])


class TestSoftUpdate:
    def test_rate_one_copies_source(self):
        target = writable(mlp_init([3, 2], seed=1))
        source = mlp_init([3, 2], seed=2).vector
        soft_update(target, source, 1.0)
        assert np.array_equal(target, source)

    def test_paper_rate_arithmetic(self):
        target, source = np.zeros(6), np.ones(6)
        soft_update(target, source, 0.001)
        assert np.allclose(target, 0.001)

    def test_geometric_decay_toward_fixed_source(self):
        rng = np.random.default_rng(5)
        target = writable(mlp_init([4, 3], seed=3))
        source = rng.normal(size=target.size)
        rate = 0.05
        gap0 = np.linalg.norm(target - source)
        for k in range(1, 30):
            soft_update(target, source, rate)
            gap = np.linalg.norm(target - source)
            assert np.isclose(gap, gap0 * (1 - rate) ** k, rtol=1e-10)

    def test_convex_combination_property(self):
        rng = np.random.default_rng(7)
        size = mlp_init([5, 4, 2], seed=1).vector.size
        tvec = rng.normal(size=size)
        svec = rng.normal(size=size)
        for rate in (0.001, 0.3, 0.77, 1.0):
            u = tvec.copy()
            soft_update(u, svec, rate)
            low = np.minimum(tvec, svec) - 1e-15
            high = np.maximum(tvec, svec) + 1e-15
            assert np.all(u >= low) and np.all(u <= high)

    def test_matches_per_layer_oracle_bitwise(self):
        rng = np.random.default_rng(9)
        params = mlp_init([6, 16, 16, 1], seed=1)
        target = writable(params)
        expected = layer_arrays(params.layer_sizes, target)
        for rate in (0.001, 0.001, 0.3, 0.77, 1.0):
            source = rng.normal(size=target.size)
            soft_update(target, source, rate)
            expected = per_layer_soft_update(expected, layer_arrays(params.layer_sizes, source), rate)
            assert np.array_equal(target, flatten(expected))

    def test_inputs_unchanged(self):
        # the source is only read; the target is written where it lies
        rng = np.random.default_rng(10)
        params = mlp_init([4, 3], seed=3)
        target = writable(params)
        view = MlpParams(params.layer_sizes, target)
        source = rng.normal(size=target.size)
        before_t, before_s = target.copy(), source.copy()
        soft_update(target, source, 0.25)
        assert np.array_equal(source, before_s)
        assert np.array_equal(view.vector, 0.25 * before_s + 0.75 * before_t)
        assert np.shares_memory(view.vector, target)


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        params = mlp_init([6, 64, 64, 2], "tanh", seed=123)
        d = json.loads(json.dumps(mlp_to_dict(params)))
        assert d["hidden_activation"] == "tanh"
        loaded = mlp_from_dict(d)
        assert loaded.layer_sizes == params.layer_sizes
        assert loaded.output_activation == "tanh"
        assert np.array_equal(loaded.vector, params.vector)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.pop("weights"),
        lambda d: d.update(hidden_activation="sigmoid"),
        lambda d: d.update(output_activation="softmax"),
        lambda d: d.update(layer_sizes=[3]),
        lambda d: d.update(layer_sizes="3,4"),
        lambda d: d["weights"].pop(),
        lambda d: d["weights"][0][1].pop(),
        lambda d: d["weights"][0].pop(),
        lambda d: d["biases"][1].append(0.0),
        lambda d: d["weights"][1][0].__setitem__(0, "x"),
        lambda d: d["biases"][0].__setitem__(1, float("nan")),
        lambda d: d.update(hidden_activation="relu"),  # hidden layers are tanh only
    ])
    def test_malformed_entries_rejected(self, corrupt):
        d = json.loads(json.dumps(mlp_to_dict(mlp_init([3, 4, 2], seed=0))))
        corrupt(d)
        with pytest.raises(InputError):
            mlp_from_dict(d)

    def test_non_object_rejected(self):
        with pytest.raises(InputError):
            mlp_from_dict([1, 2, 3])


class TestFlatLayout:
    def test_views_share_memory_in_checkpoint_order(self):
        params = mlp_init([6, 16, 8, 2], seed=5)
        d = mlp_to_dict(params)
        in_checkpoint_order = [np.asarray(a).ravel() for pair in zip(d["weights"], d["biases"]) for a in pair]
        assert np.array_equal(params.vector, np.concatenate(in_checkpoint_order))
        offset = 0
        for w, b in zip(params.weights, params.biases):
            for view in (w, b):
                assert np.shares_memory(view, params.vector)
                assert view.ctypes.data == params.vector.ctypes.data + 8 * offset
                assert view.flags.c_contiguous
                offset += view.size
        assert offset == params.vector.size

    def test_vector_is_read_only_and_caller_array_is_not(self):
        params = mlp_init([3, 2], seed=0)
        vec = np.arange(8.0)
        frozen = MlpParams(params.layer_sizes, vec, params.output_activation)
        with pytest.raises(ValueError):
            frozen.vector[0] = 1.0
        with pytest.raises(ValueError):
            frozen.weights[0][0, 0] = 1.0
        vec[0] = -1.0  # the caller's own array stays writable
        assert frozen.weights[0][0, 0] == -1.0


class TestReducedBackward:
    # ids name the hidden and the output activation
    @pytest.mark.parametrize("output_activation", ["identity", "tanh"], ids=["tanh-identity", "tanh-tanh"])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_reduced_passes_match_full_pass_bitwise(self, output_activation, batch):
        params = mlp_init([8, 16, 16, 1], output_activation, seed=21)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(batch, 8))
        g = rng.normal(size=(batch, 1))
        _, cache = mlp_forward(params, x)
        full_params, full_input = mlp_backward(params, g, cache)
        only_params, no_input = mlp_backward(params, g, cache, wrt_input=False)
        no_params, only_input = mlp_backward(params, g, cache, wrt_params=False)
        assert no_input is None and no_params is None
        assert np.array_equal(only_params, full_params)
        assert np.array_equal(only_input, full_input)
        assert only_input.shape == x.shape


def assert_same_bits(mine, want):
    assert mine.shape == want.shape
    assert np.array_equal(mine, want)
    assert np.array_equal(np.signbit(mine), np.signbit(want))


class TestPassesMatchVerbatimOracle:
    """The passes compute the bits of their verbatim copies, signs of zero included."""

    @pytest.mark.parametrize("rows", [1, 8, 64])
    @pytest.mark.parametrize("output_dim", [1, 2])
    @pytest.mark.parametrize("output_activation", ["identity", "tanh"])
    # no hidden layer and a one-unit one make K = 1 matmuls, where a signed zero is easiest to lose
    @pytest.mark.parametrize("hidden", [(8,), (64, 64), (), (1,)], ids=["8", "64x64", "none", "1"])
    def test_forward_and_backward_bitwise(self, hidden, output_activation, output_dim, rows):
        rng = np.random.default_rng(rows * 10 + output_dim)
        params = mlp_init([8, *hidden, output_dim], output_activation, seed=3)
        vector = params.vector.copy()
        vector[rng.uniform(size=vector.size) < 0.05] = 0.0
        vector[rng.uniform(size=vector.size) < 0.05] = -0.0
        params = MlpParams(params.layer_sizes, vector, output_activation)
        for _ in range(5):
            x = rng.normal(size=(rows, 8))
            x[rng.uniform(size=x.shape) < 0.1] = -0.0
            g = rng.normal(size=(rows, output_dim))
            g[rng.uniform(size=g.shape) < 0.3] = 0.0
            g[rng.uniform(size=g.shape) < 0.3] = -0.0
            out, acts = mlp_forward(params, x)
            want_out, want_acts = verbatim_oracles.mlp_forward(params, x)
            assert_same_bits(out, want_out)
            assert len(acts) == len(want_acts)
            for a, b in zip(acts, want_acts):
                assert_same_bits(a, b)
            for flags in ({}, {"wrt_input": False}, {"wrt_params": False}):
                mine = mlp_backward(params, g, acts, **flags)
                want = verbatim_oracles.mlp_backward(params, x, g, want_acts, **flags)
                for m, w in zip(mine, want):
                    assert (m is None) == (w is None)
                    if w is not None:
                        assert_same_bits(m, w)

    @pytest.mark.parametrize("rows", [1, 8, 64])
    @pytest.mark.parametrize("output_dim", [1, 2])
    @pytest.mark.parametrize("hidden", [(8,), (64, 64), (), (1,)], ids=["8", "64x64", "none", "1"])
    @pytest.mark.parametrize("input_dim", [8, 1])  # one input unit returns a one-row (1, 1) input gradient
    def test_float32_backward_keeps_the_bits_of_its_layer_view_form(self, input_dim, hidden, output_dim, rows):
        # the learner's precision; the oracle above runs float64 only
        rng = np.random.default_rng(rows * 10 + output_dim)
        sizes = (input_dim, *hidden, output_dim)
        vector = mlp_init(sizes, seed=3).vector.astype(np.float32)
        vector[rng.uniform(size=vector.size) < 0.05] = 0.0
        vector[rng.uniform(size=vector.size) < 0.05] = -0.0
        for output_activation in ("identity", "tanh"):
            params = MlpParams(sizes, vector, output_activation)
            for _ in range(3):
                x = rng.normal(size=(rows, input_dim))
                x[rng.uniform(size=x.shape) < 0.1] = -0.0
                g = rng.normal(size=(rows, output_dim)).astype(np.float32)
                g[rng.uniform(size=g.shape) < 0.3] = 0.0
                g[rng.uniform(size=g.shape) < 0.3] = -0.0
                _, acts = mlp_forward(params, x)
                for flags in ({}, {"wrt_input": False}, {"wrt_params": False}):
                    mine = mlp_backward(params, g, acts, **flags)
                    want = verbatim_oracles.mlp_backward_into_views(params, g, acts, **flags)
                    for m, w in zip(mine, want):
                        assert (m is None) == (w is None)
                        if w is not None:
                            assert m.dtype == np.float32
                            assert_same_bits(m, w)

    def test_passes_leave_their_arguments_alone(self):
        params = mlp_init([4, 8, 1], "tanh", seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        g = np.full((5, 1), -0.0)
        x0, g0 = x.copy(), g.copy()
        _, acts = mlp_forward(params, x)
        acts0 = [a.copy() for a in acts]
        mlp_backward(params, g, acts)
        assert_same_bits(x, x0)
        assert_same_bits(g, g0)
        for a, b in zip(acts, acts0):
            assert_same_bits(a, b)
