"""Dense feedforward networks with analytic backprop, Adam, and target tracking.

Each network keeps all its parameters in one contiguous vector: layer by
layer, the weight matrix row-major, then the bias. ``weights[t]`` and
``biases[t]`` are read-only reshaped views of that vector, used by the matmuls.
Gradients and both Adam moments are vectors in the same layout, so an Adam
step, a soft update and a finiteness check are each one vector operation.

Hidden layers are always tanh; the output layer is identity or tanh.
Inputs are ``(N, input_dim)`` rows, one sample per row; outputs keep one row
per input row. The forward pass also takes stacks of such row blocks,
``(..., N, input_dim)``, and runs each block as it would run alone.

A network computes in its parameter vector's precision, float32 or float64:
the forward pass casts its input to it, and the backward pass and
:func:`adam_init`'s moments follow it. The learner's nets are float32
(``ddpg.make_agent``); gradient checks, oracles and loaded checkpoints run
the same code in float64 (:func:`as_float64` makes such a copy).
:func:`adam_step` and :func:`soft_update` keep their scalars' Python and
float64 types in either precision, and the float32 learner's bits depend on
that; the learner's targets blend in float64 (``ddpg.AgentNets``).

The forward and backward passes read their arguments and return new arrays;
the parameter gradient is the per-layer parts concatenated into the layout.
Both passes keep the bits of their plain matmul forms, signs of zero
included (``tests/verbatim_oracles.py`` holds those forms).
:func:`adam_step` and :func:`soft_update` instead write into the vectors they
are given, which belong to whoever allocated them (the learner's are
``ddpg.AgentNets.params`` and ``.targets_float64``). An :class:`MlpParams` can
view such a vector without being able to write to it, but it sees every
update; a snapshot that must not move is a ``.copy()``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import InputError, NumericalError

Array = np.ndarray

OUTPUT_ACTIVATIONS = ("identity", "tanh")

ADAM_LEARNING_RATE = 1e-3  # step size of every Adam update, actor's and critic's alike
ADAM_BETA1 = 0.9  # decay rate of Adam's first-moment estimate
ADAM_BETA2 = 0.999  # decay rate of Adam's second-moment estimate
ADAM_EPSILON = 1e-8  # denominator floor; bounds the step where the second moment is near zero


def param_count(layer_sizes: Sequence[int]) -> int:
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
    ``vector``, which is read-only. A float32 vector stays float32 and any
    other is made float64.
    """

    layer_sizes: tuple[int, ...]
    vector: Array
    output_activation: str = "identity"
    weights: tuple[Array, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[Array, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise InputError(f"unknown output activation {self.output_activation!r}")
        dtype = np.float32 if np.asarray(self.vector).dtype == np.float32 else np.float64
        vector = np.asarray(self.vector, dtype=dtype).view()  # freezing a view leaves the caller's array writable
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


def as_float64(params: MlpParams) -> MlpParams:
    """A float64 copy of ``params``: the values a checkpoint of them loads, since float32 converts exactly."""
    return MlpParams(params.layer_sizes, params.vector.astype(np.float64), params.output_activation)


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
    vector = np.zeros(param_count(sizes))
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
    h = np.asarray(x, dtype=params.vector.dtype)
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

    Through a one-unit layer, the critic's output, the input gradient is an
    outer product, which ``np.dot`` takes in about half of matmul's time.
    """
    grads = []  # the parameter gradient's parts, last layer first
    last = params.n_layers - 1

    delta = np.asarray(output_gradient, dtype=params.vector.dtype)
    for t in range(last, -1, -1):
        a_out = activations[t + 1]
        if t < last or params.output_activation == "tanh":
            delta = delta * (1.0 - a_out * a_out)
        if wrt_params:
            grads += [np.add.reduce(delta, 0), (delta.T @ activations[t]).ravel()]
        if t > 0 or wrt_input:
            w = params.weights[t]
            if w.shape[0] == 1:
                # + 0.0 gives matmul's 0 + a*b, a +0.0 where np.dot keeps a -0.0 product of one row
                delta = np.dot(delta, w)
                delta += 0.0
            else:
                delta = delta @ w

    return np.concatenate(grads[::-1]) if wrt_params else None, delta if wrt_input else None


def adam_init(params: MlpParams) -> AdamState:
    size, dtype = params.vector.size, params.vector.dtype
    return AdamState(np.zeros(size, dtype), np.zeros(size, dtype), 0)


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


def is_json_number(value) -> bool:
    """Whether a parsed JSON value is a number; ``true`` compares equal to 1 but is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mlp_from_dict(d: dict) -> MlpParams:
    """Inverse of :func:`mlp_to_dict`; raises :class:`InputError` on any malformed entry.

    Layer sizes must be integral numbers and every weight and bias a number:
    a string such as ``"1"``, which numpy would parse, or a ``true`` is malformed.
    The parameters load as float64, whatever precision wrote them.
    """
    try:
        if not all(is_json_number(s) and float(s).is_integer() for s in d["layer_sizes"]):
            raise ValueError(f"layer sizes must be integers, got {d['layer_sizes']!r}")
        sizes = tuple(int(s) for s in d["layer_sizes"])
        if len(sizes) < 2 or len(d["weights"]) != len(sizes) - 1 or len(d["biases"]) != len(sizes) - 1:
            raise ValueError(f"expected {len(sizes) - 1} weight and bias arrays")
        parts = []
        for t, (w, b) in enumerate(zip(d["weights"], d["biases"])):
            if not (all(map(is_json_number, b)) and all(all(map(is_json_number, row)) for row in w)):
                raise ValueError(f"layer {t} holds an entry that is not a number")
            w, b = np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)
            if w.shape != (sizes[t + 1], sizes[t]) or b.shape != (sizes[t + 1],):
                raise ValueError(f"layer {t} arrays do not match layer_sizes {sizes}")
            parts += [w.ravel(), b]
        vector = np.concatenate(parts)
        if not np.all(np.isfinite(vector)):
            raise ValueError("non-finite parameter values")
        if d["hidden_activation"] != "tanh":
            raise ValueError(f"hidden activation must be 'tanh', got {d['hidden_activation']!r}")
        return MlpParams(sizes, vector, d["output_activation"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # MlpParams raises InputError, a ValueError; OverflowError is an integer past float64, as 10**400
        raise InputError(f"malformed network entry: {exc!r}") from exc
