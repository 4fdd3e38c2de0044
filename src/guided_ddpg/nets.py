"""Dense feedforward networks with analytic backprop, Adam, and target tracking.

Each network keeps all its parameters in one contiguous float64 vector:
layer by layer, the weight matrix row-major, then the bias. ``weights[t]`` and
``biases[t]`` are read-only reshaped views of that vector, used by the matmuls.
Gradients and both Adam moments are vectors in the same layout, so an Adam
step, a soft update and a finiteness check are each one vector operation.

Hidden layers are always tanh; the output layer is identity or tanh.
Inputs are ``(N, input_dim)`` rows, one sample per row; outputs keep one row
per input row. The forward pass also takes stacks of such row blocks,
``(..., N, input_dim)``, and runs each block as it would run alone. Everything
is float64.

The forward and backward passes read their arguments and return new arrays.
:func:`adam_step` and :func:`soft_update` instead write into the vectors they
are given, which belong to whoever allocated them (the learner's are
``ddpg.AgentNets.params`` and ``.targets``). An :class:`MlpParams` can view
such a vector without being able to write to it, but it sees every update; a
snapshot that must not move is a ``.copy()``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import ConfigurationError, NumericalError, ShapeError, SpecError

Array = np.ndarray

OUTPUT_ACTIVATIONS = ("identity", "tanh")

ADAM_LEARNING_RATE = 1e-3  # step size of every Adam update, actor's and critic's alike
ADAM_BETA1 = 0.9  # decay rate of Adam's first-moment estimate
ADAM_BETA2 = 0.999  # decay rate of Adam's second-moment estimate
ADAM_EPSILON = 1e-8  # denominator floor; bounds the step where the second moment is near zero


def _param_count(layer_sizes: Sequence[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def layer_views(layer_sizes: Sequence[int], vector: Array) -> tuple[tuple[Array, ...], tuple[Array, ...]]:
    """Per-layer ``(weights, biases)`` views of a vector in the parameter layout."""
    weights, biases = [], []
    i = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(vector[i : i + fan_out * fan_in].reshape(fan_out, fan_in))
        i += fan_out * fan_in
        biases.append(vector[i : i + fan_out])
        i += fan_out
    return tuple(weights), tuple(biases)


@dataclass(frozen=True)
class MlpParams:
    """Parameters of a dense network, stored as one vector.

    ``weights[t]`` has shape ``(layer_sizes[t+1], layer_sizes[t])`` and
    ``biases[t]`` has length ``layer_sizes[t+1]``; both are views of
    ``vector``, which is read-only.
    """

    layer_sizes: tuple[int, ...]
    vector: Array
    output_activation: str = "identity"
    weights: tuple[Array, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[Array, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {self.output_activation!r}")
        vector = np.asarray(self.vector, dtype=np.float64).view()  # freezing a view leaves the caller's array writable
        vector.flags.writeable = False
        weights, biases = layer_views(self.layer_sizes, vector)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class AdamState:
    """Moment estimates (vectors in the parameter layout) and step counter.

    :func:`adam_step` updates ``m``, ``v`` and ``step_count`` in place.
    """

    m: Array
    v: Array
    step_count: int


def mlp_init(
    layer_sizes: Sequence[int],
    output_activation: str = "identity",
    seed=0,
) -> MlpParams:
    """Create a network with Glorot-uniform weights and zero biases.

    The same seed always yields bitwise-identical parameters.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    vector = np.zeros(_param_count(sizes))
    for w in layer_views(sizes, vector)[0]:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return MlpParams(sizes, vector, output_activation)


def mlp_forward(params: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """Evaluate the network on ``(N, input_dim)`` rows or a ``(..., N, input_dim)`` stack of them.

    Returns ``(output, activations)``: the output, one ``output_dim`` row per
    input row, and the layer activations ``[input, h1, ..., output]`` that
    :func:`mlp_backward` differentiates through (for ``(N, input_dim)`` rows
    only). numpy's matmul runs each ``(N, input_dim)`` block of a stack
    through the kernel a lone block gets, so each block's output has that
    call's bits; stacking ``(1, input_dim)`` blocks keeps one-row bits.
    """
    h = np.asarray(x, dtype=np.float64)
    acts = [h]
    last = params.n_layers - 1
    for t, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T  # a new array, so the in-place steps below never touch the input rows
        h += b
        if t < last or params.output_activation == "tanh":
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(
    params: MlpParams,
    output_gradient: Array,
    activations: list[Array],
    *,
    wrt_params: bool = True,
    wrt_input: bool = True,
) -> tuple[Array | None, Array | None]:
    """Backpropagate ``output_gradient`` through the network.

    ``activations`` is what :func:`mlp_forward` returned for ``(N, input_dim)``
    rows, whose input rows it starts with, and ``output_gradient`` holds one
    output row per input row.
    Returns ``(param_grad, input_grad)``: gradients of a scalar loss whose
    gradient at the network output is ``output_gradient``, with respect to the
    parameter vector (summed over rows) and to the input (one row per row).
    A gradient the caller does not ask for (``wrt_params`` / ``wrt_input``
    false) is not computed and comes back as ``None``.
    """
    param_grad = None
    if wrt_params:
        param_grad = np.empty(params.vector.size)
        d_weights, d_biases = layer_views(params.layer_sizes, param_grad)
    last = params.n_layers - 1

    delta = np.asarray(output_gradient, dtype=np.float64)
    for t in range(last, -1, -1):
        a_out = activations[t + 1]
        if t < last or params.output_activation == "tanh":
            delta = delta * (1.0 - a_out * a_out)
        if wrt_params:
            np.matmul(delta.T, activations[t], out=d_weights[t])
            delta.sum(axis=0, out=d_biases[t])
        if t > 0 or wrt_input:
            delta = delta @ params.weights[t]

    return param_grad, delta if wrt_input else None


def adam_init(params: MlpParams) -> AdamState:
    size = params.vector.size
    return AdamState(np.zeros(size), np.zeros(size), 0)


def adam_step(state: AdamState, vector: Array, grads: Array) -> None:
    """One bias-corrected adaptive-moment update of ``vector``, in place.

    Writes ``vector``, ``state.m``, ``state.v`` and ``state.step_count``, and
    none of them when it raises: the gradient's finiteness is checked first.
    """
    # a non-finite entry anywhere poisons the sum
    if not np.isfinite(grads.sum()):
        raise NumericalError("non-finite gradient passed to adam_step")

    t = state.step_count + 1
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, ADAM_LEARNING_RATE
    scale1 = lr / (1.0 - b1**t)
    inv_sqrt_corr2 = 1.0 / np.sqrt(1.0 - b2**t)

    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * (g * g), the same IEEE
    # operations as the textbook expressions: products and sums commute exactly
    m, v = state.m, state.v
    step = (1.0 - b1) * grads
    m *= b1
    m += step
    denom = grads * grads
    denom *= 1.0 - b2
    v *= b2
    v += denom
    # vector -= scale1 * m / (sqrt(v) * inv_sqrt_corr2 + eps)
    np.sqrt(v, out=denom)
    denom *= inv_sqrt_corr2
    denom += eps
    np.multiply(m, scale1, out=step)
    step /= denom
    vector -= step
    state.step_count = t


def soft_update(target: Array, source: Array, rate: float) -> None:
    """Blend ``target = rate * source + (1 - rate) * target`` elementwise, in place."""
    target *= 1.0 - rate
    target += rate * source


def mlp_to_dict(params: MlpParams) -> dict:
    return {
        "layer_sizes": list(params.layer_sizes),
        "hidden_activation": "tanh",
        "output_activation": params.output_activation,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def mlp_from_dict(d: dict) -> MlpParams:
    """Inverse of :func:`mlp_to_dict`; raises :class:`SpecError` on any malformed entry."""
    try:
        sizes = tuple(int(s) for s in d["layer_sizes"])
        if len(sizes) < 2 or len(d["weights"]) != len(sizes) - 1 or len(d["biases"]) != len(sizes) - 1:
            raise ShapeError(f"expected {len(sizes) - 1} weight and bias arrays")
        parts = []
        for t, (w, b) in enumerate(zip(d["weights"], d["biases"])):
            w, b = np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)
            if w.shape != (sizes[t + 1], sizes[t]) or b.shape != (sizes[t + 1],):
                raise ShapeError(f"layer {t} arrays do not match layer_sizes {sizes}")
            parts += [w.ravel(), b]
        vector = np.concatenate(parts)
        if not np.all(np.isfinite(vector)):
            raise ValueError("non-finite parameter values")
        if d["hidden_activation"] != "tanh":
            raise ValueError(f"hidden activation must be 'tanh', got {d['hidden_activation']!r}")
        return MlpParams(sizes, vector, d["output_activation"])
    except (KeyError, TypeError, ValueError) as exc:  # ConfigurationError and ShapeError are ValueErrors
        raise SpecError(f"malformed network entry: {exc!r}") from exc
