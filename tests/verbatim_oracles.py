"""Verbatim copies of package code that a bitwise-equal rewrite replaced.

Each function below is the package's code as it stood before the rewrite,
kept so that tests can assert the live code gives the same bits, signs of
zero included:

- ``contact_force``: the one-row contact model, before ``envs.contact_forces``
  read the config once per call and looped over rows itself;
- ``mlp_forward``: the forward pass, before its in-place temporaries, and
  ``mlp_backward``, the backward pass it feeds;
- ``critic_loss_grads`` and ``actor_objective_grads`` (with the helpers they
  call): the learner's losses, before the precomputed observation scale.
  They call the verbatim MLP passes here, so they do not depend on the live
  ones.
"""
from __future__ import annotations

import numpy as np

from guided_ddpg.ddpg import AgentNets, DdpgHyper
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.exceptions import NumericalError, ShapeError
from guided_ddpg.nets import MlpParams, layer_views
from guided_ddpg.replay import SupervisionBatch, TransitionBatch

Array = np.ndarray


def contact_force(config: InsertionEnvConfig, position: Array, velocity: Array) -> Array:
    """Penalty contact force on the peg at the given configuration.

    The table body is the union of three axis-aligned blocks (left of the
    slot, right of the slot, below the slot floor). Each block that overlaps
    the peg pushes it out along the axis of least penetration with a
    spring-damper force, clamped at zero so contacts never pull.
    """
    x, y = float(position[0]), float(position[1])
    vx, vy = float(velocity[0]), float(velocity[1])
    c = config.hole_center_offset
    wp, wh = config.peg_half_width, config.hole_half_width
    k, cd = config.wall_stiffness, config.wall_damping

    fx = 0.0
    fy = 0.0
    if y < 0.0:
        depth_y = -y
        # Left block: x <= c - wh, y <= 0. Penetration from the right.
        pen = (c - wh) - (x - wp)
        if pen > 0.0:
            ax = min(pen, 2.0 * wp)
            if ax < depth_y:
                fx += max(0.0, k * ax - cd * vx)
            else:
                fy += max(0.0, k * depth_y - cd * vy)
        # Right block: x >= c + wh, y <= 0. Penetration from the left.
        pen = (x + wp) - (c + wh)
        if pen > 0.0:
            ax = min(pen, 2.0 * wp)
            if ax < depth_y:
                fx -= max(0.0, k * ax + cd * vx)
            else:
                fy += max(0.0, k * depth_y - cd * vy)
    # Bottom block: y <= -hole_depth, laterally unbounded.
    pen = -config.hole_depth - y
    if pen > 0.0:
        fy += max(0.0, k * pen - cd * vy)
    # Workspace box: side walls against the peg's sides, ceiling above.
    half = config.workspace_half_width
    pen = -half - (x - wp)
    if pen > 0.0:
        fx += max(0.0, k * pen - cd * vx)
    pen = (x + wp) - half
    if pen > 0.0:
        fx -= max(0.0, k * pen + cd * vx)
    pen = y - config.workspace_height
    if pen > 0.0:
        fy -= max(0.0, k * pen + cd * vy)
    return np.array([fx, fy])


def _rows(params: MlpParams, x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"input shape {np.shape(x)} is not (N, {params.input_dim}) rows")
    return x


def mlp_forward(params: MlpParams, x: Array) -> tuple[Array, list[Array]]:
    """Evaluate the network on ``(N, input_dim)`` rows.

    Returns ``(output, activations)``: the ``(N, output_dim)`` output and the
    layer activations ``[input, h1, ..., output]`` that :func:`mlp_backward`
    differentiates through.
    """
    h = _rows(params, x)
    acts = [h]
    last = params.n_layers - 1
    for t, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        h = np.tanh(z) if t < last or params.output_activation == "tanh" else z
        acts.append(h)
    return h, acts


def mlp_backward(
    params: MlpParams,
    x: Array,
    output_gradient: Array,
    activations: list[Array],
    *,
    wrt_params: bool = True,
    wrt_input: bool = True,
) -> tuple[Array | None, Array | None]:
    """Backpropagate ``output_gradient`` through the network.

    ``x`` holds ``(N, input_dim)`` rows, ``output_gradient`` one output row
    each, and ``activations`` what :func:`mlp_forward` returned for them.
    Returns ``(param_grad, input_grad)``: gradients of a scalar loss whose
    gradient at the network output is ``output_gradient``, with respect to the
    parameter vector (summed over rows) and to the input (one row per row).
    A gradient the caller does not ask for (``wrt_params`` / ``wrt_input``
    false) is not computed and comes back as ``None``.
    """
    xb = _rows(params, x)
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != (xb.shape[0], params.output_dim):
        raise ShapeError(f"output_gradient shape {np.shape(output_gradient)} does not match output dim {params.output_dim}")

    param_grad = None
    if wrt_params:
        param_grad = np.empty(params.vector.size)
        d_weights, d_biases = layer_views(params.layer_sizes, param_grad)
    last = params.n_layers - 1

    delta = g
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


def _scaled_obs(hyper: DdpgHyper, states: Array) -> Array:
    return np.asarray(states) * np.asarray(hyper.obs_scale)


def policy_action(actor: MlpParams, hyper: DdpgHyper, states: Array) -> Array:
    """Deterministic ``(N, 2)`` actions for ``(N, 6)`` state rows, tanh-squashed to the bound."""
    return hyper.action_bound * mlp_forward(actor, _scaled_obs(hyper, states))[0]


def critic_value(critic: MlpParams, hyper: DdpgHyper, states: Array, actions: Array) -> Array:
    """Q estimates, one per row of the ``(N, 6)`` states and ``(N, 2)`` actions."""
    x = np.concatenate([_scaled_obs(hyper, states), np.asarray(actions) / hyper.action_bound], axis=1)
    return mlp_forward(critic, x)[0][:, 0]


def critic_target(batch: TransitionBatch, nets: AgentNets, hyper: DdpgHyper) -> Array:
    """Bootstrapped targets from the target nets; terminal rows are not bootstrapped."""
    next_actions = policy_action(nets.target_actor, hyper, batch.next_states)
    next_q = critic_value(nets.target_critic, hyper, batch.next_states, next_actions)
    if not np.all(np.isfinite(next_q)):
        raise NumericalError("target critic produced non-finite values")
    return batch.rewards + hyper.discount * np.where(batch.dones, 0.0, next_q)


def critic_loss_grads(
    nets: AgentNets,
    hyper: DdpgHyper,
    batch: TransitionBatch,
    sup_batch: SupervisionBatch | None,
    supervision_weight: float,
):
    """Gradient of the critic loss; returns (loss, grads).

    Loss: mean squared Bellman error plus ``supervision_weight`` times the
    mean squared error against the optimizer's value targets.
    """
    y = critic_target(batch, nets, hyper)
    x = np.concatenate([_scaled_obs(hyper, batch.states), batch.actions / hyper.action_bound], axis=1)
    q, cache = mlp_forward(nets.critic, x)
    err = q[:, 0] - y
    n = batch.states.shape[0]
    loss = float(np.mean(err**2))
    grads, _ = mlp_backward(nets.critic, x, (2.0 / n) * err[:, None], cache, wrt_input=False)

    if sup_batch is not None and supervision_weight > 0.0:
        xs = np.concatenate([_scaled_obs(hyper, sup_batch.states), sup_batch.actions / hyper.action_bound], axis=1)
        qs, cache_s = mlp_forward(nets.critic, xs)
        err_s = qs[:, 0] - sup_batch.q_values
        ns = sup_batch.states.shape[0]
        loss += supervision_weight * float(np.mean(err_s**2))
        sup_grads, _ = mlp_backward(
            nets.critic, xs, (2.0 * supervision_weight / ns) * err_s[:, None], cache_s, wrt_input=False
        )
        grads = grads + sup_grads
    return loss, grads


def actor_objective_grads(
    nets: AgentNets,
    hyper: DdpgHyper,
    batch: TransitionBatch,
    sup_batch: SupervisionBatch | None,
    supervision_weight: float,
):
    """Gradient of the actor's minimization objective; returns (objective, grads).

    Objective: ``-mean target-critic Q at the actor's actions`` plus
    ``supervision_weight`` times the mean squared distance to the optimizer's
    actions. Gradients flow into the actor through the critic's action input
    only; critic parameters stay fixed.
    """
    xs = _scaled_obs(hyper, batch.states)
    out, actor_cache = mlp_forward(nets.actor, xs)  # in [-1, 1]; action = bound * out
    n = batch.states.shape[0]

    # dQ/d(action input) of the target critic at (s, actor(s)).
    critic_in = np.concatenate([xs, out], axis=1)
    q, critic_cache = mlp_forward(nets.target_critic, critic_in)
    _, input_grad = mlp_backward(nets.target_critic, critic_in, np.ones((n, 1)), critic_cache, wrt_params=False)
    dq_dout = input_grad[:, xs.shape[1] :]

    objective = -float(np.mean(q[:, 0]))
    grads, _ = mlp_backward(nets.actor, xs, (-1.0 / n) * dq_dout, actor_cache, wrt_input=False)

    if sup_batch is not None and supervision_weight > 0.0:
        xs_s = _scaled_obs(hyper, sup_batch.states)
        out_s, sup_cache = mlp_forward(nets.actor, xs_s)
        diff = hyper.action_bound * out_s - sup_batch.actions
        ns = sup_batch.states.shape[0]
        objective += supervision_weight * float(np.mean(np.sum(diff**2, axis=1)))
        sup_grads, _ = mlp_backward(
            nets.actor, xs_s, (2.0 * supervision_weight * hyper.action_bound / ns) * diff, sup_cache,
            wrt_input=False,
        )
        grads = grads + sup_grads
    return objective, grads
