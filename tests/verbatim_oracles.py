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
  ones;
- ``fit_dynamics``, ``linearize_policy`` and ``quadratize`` (with
  ``_solve_pos`` and ``_norm_expansion``): the supervisor's model fits and
  cost expansion, before they were stacked over the horizon. They loop over
  the steps and solve or expand one step at a time. ``_solve_pos`` is no
  longer verbatim: it solves with ``np.linalg.solve``, as the package's fits
  now do;
- ``linear_gaussian_controller``: the supervisor's sampling controller,
  before it factored every step's covariance in one stacked call;
- ``rollout`` (with its ``Rollout``) and ``gaussian_controller``: the
  supervisor's sampler, one episode of one row at a time with a controller
  that draws its own noise, before the episodes of a sub-iteration ran in
  lockstep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import guided_ddpg.ddpg as live_ddpg
import guided_ddpg.nets as live_nets
from guided_ddpg.ddpg import DISCOUNT, AgentNets, DdpgHyper
from guided_ddpg.envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig, clip_actions, env_reset, env_step
from guided_ddpg.exceptions import InputError, NumericalError
from guided_ddpg.nets import MlpParams, layer_views
from guided_ddpg.replay import SupervisionBatch, TransitionBatch
from guided_ddpg.trajopt import (
    COST_SMOOTHING,
    DYNAMICS_REG,
    POLICY_FIT_REG,
    TERMINAL_WEIGHT,
    LinearDynamics,
    LinearGaussianPolicy,
    QuadraticCost,
    SmoothedInsertionCost,
    _require_finite,
)

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
        raise ValueError(f"input shape {np.shape(x)} is not (N, {params.input_dim}) rows")
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
        raise ValueError(f"output_gradient shape {np.shape(output_gradient)} does not match output dim {params.output_dim}")

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
    return np.asarray(states) * hyper.obs_scale_array


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
    return batch.rewards + DISCOUNT * np.where(batch.dones, 0.0, next_q)


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


def mlp_backward_into_views(
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
        param_grad = np.empty(params.vector.size, dtype=params.vector.dtype)
        d_weights, d_biases = layer_views(params.layer_sizes, param_grad)
    last = params.n_layers - 1

    delta = np.asarray(output_gradient, dtype=params.vector.dtype)
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


def critic_loss_grads_by_mean(
    nets: AgentNets,
    hyper: DdpgHyper,
    batch: TransitionBatch,
    sup_batch: SupervisionBatch | None,
    supervision_weight: float,
):
    """Gradient of the critic loss; returns (loss, grads).

    Loss: mean squared Bellman error plus ``supervision_weight`` times the
    mean squared error against the optimizer's value targets. The supervision
    rows, stacked under the batch rows, share its forward and backward pass.
    """
    y = live_ddpg.critic_target(batch, nets, hyper)
    x = np.concatenate([_scaled_obs(hyper, batch.states), batch.actions / hyper.action_bound], axis=1)
    n = batch.states.shape[0]
    supervised = sup_batch is not None and supervision_weight > 0.0
    if supervised:
        xs = np.concatenate([_scaled_obs(hyper, sup_batch.states), sup_batch.actions / hyper.action_bound], axis=1)
        x = np.concatenate([x, xs])
        y = np.concatenate([y, sup_batch.q_values])
    q, cache = live_nets.mlp_forward(nets.critic, x)
    err = q[:, 0] - y
    loss = float(np.mean(err[:n] ** 2))
    out_grad = (2.0 / n) * err[:, None]
    if supervised:
        ns = sup_batch.states.shape[0]
        loss += supervision_weight * float(np.mean(err[n:] ** 2))
        out_grad[n:] = (2.0 * supervision_weight / ns) * err[n:, None]
    grads, _ = mlp_backward_into_views(nets.critic, out_grad, cache, wrt_input=False)
    return loss, grads


def actor_objective_grads_by_mean(
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
    only; critic parameters stay fixed. The supervision states, stacked under
    the batch states, share the actor's passes; the target critic sees the batch.
    """
    xs = _scaled_obs(hyper, batch.states)
    n = batch.states.shape[0]
    supervised = sup_batch is not None and supervision_weight > 0.0
    rows = np.concatenate([xs, _scaled_obs(hyper, sup_batch.states)]) if supervised else xs
    out, actor_cache = live_nets.mlp_forward(nets.actor, rows)  # in [-1, 1]; action = bound * out

    # dQ/d(action input) of the target critic at (s, actor(s)).
    critic_in = np.concatenate([xs, out[:n]], axis=1)
    q, critic_cache = live_nets.mlp_forward(nets.target_critic, critic_in)
    _, input_grad = mlp_backward_into_views(nets.target_critic, np.ones((n, 1)), critic_cache, wrt_params=False)
    dq_dout = input_grad[:, xs.shape[1] :]

    objective = -float(np.mean(q[:, 0]))
    out_grad = (-1.0 / n) * dq_dout
    if supervised:
        diff = hyper.action_bound * out[n:] - sup_batch.actions
        ns = sup_batch.states.shape[0]
        objective += supervision_weight * float(np.mean(np.sum(diff**2, axis=1)))
        out_grad = np.concatenate([out_grad, (2.0 * supervision_weight * hyper.action_bound / ns) * diff])
    grads, _ = mlp_backward_into_views(nets.actor, out_grad, actor_cache, wrt_input=False)
    return objective, grads


def _solve_pos(gram: Array, rhs: Array, what: str) -> Array:
    """``gram^-1 rhs`` for a symmetric positive definite ``gram``.

    Raises :class:`NumericalError` on non-finite input or a failed Cholesky factorization.
    """
    _require_finite(what, gram, rhs)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} failed") from exc
    return np.linalg.solve(gram, rhs)


def fit_dynamics(states: Array, actions: Array) -> LinearDynamics:
    """Per-step ridge regression of next state on [state; action], with ridge :data:`DYNAMICS_REG`.

    ``states`` has shape (N, T+1, n) and ``actions`` (N, T, m) over N
    rollouts of equal horizon. The residual covariance is symmetrized and
    eigenvalue-clipped to be positive semidefinite.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if states.ndim != 3 or actions.ndim != 3 or states.shape[0] != actions.shape[0]:
        raise ValueError("states (N,T+1,n) and actions (N,T,m) required")
    n_roll, horizon = actions.shape[0], actions.shape[1]
    if n_roll < 2:
        raise InputError(f"need >= 2 rollouts to fit dynamics, got {n_roll}")
    if states.shape[1] != horizon + 1:
        raise ValueError("states must have one more step than actions")
    n, m = states.shape[2], actions.shape[2]

    F = np.zeros((horizon, n, n + m))
    f = np.zeros((horizon, n))
    Sigma = np.zeros((horizon, n, n))
    for t in range(horizon):
        X = np.concatenate([states[:, t, :], actions[:, t, :], np.ones((n_roll, 1))], axis=1)
        Y = states[:, t + 1, :]
        gram = X.T @ X + DYNAMICS_REG * np.eye(n + m + 1)
        beta = _solve_pos(gram, X.T @ Y, f"dynamics fit at step {t}")
        F[t] = beta[: n + m].T
        f[t] = beta[n + m]
        resid = Y - X @ beta
        cov = resid.T @ resid / n_roll
        cov = 0.5 * (cov + cov.T)
        evals, evecs = np.linalg.eigh(cov)
        Sigma[t] = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    return LinearDynamics(F, f, Sigma)


def linearize_policy(policy_fn, states: Array, noise_cov: Array) -> LinearGaussianPolicy:
    """Affine fit of a deterministic policy around sampled states, per step.

    ``policy_fn`` maps a batch of states (B, n) to actions (B, m). The fitted
    covariance is set to ``noise_cov`` (the exploration-noise covariance),
    which keeps KL divergences against the prior finite.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3:
        raise ValueError("states must have shape (N, T+1, n)")
    n_roll, horizon = states.shape[0], states.shape[1] - 1
    if n_roll < 1 or horizon < 1:
        raise InputError("need at least one rollout and one step")
    n = states.shape[2]
    noise_cov = np.asarray(noise_cov, dtype=np.float64)
    m = noise_cov.shape[0]

    K = np.zeros((horizon, m, n))
    k = np.zeros((horizon, m))
    C = np.tile(noise_cov, (horizon, 1, 1))
    for t in range(horizon):
        S = states[:, t, :]
        U = np.atleast_2d(policy_fn(S))
        s_mean = S.mean(axis=0)
        u_mean = U.mean(axis=0)
        Sc = S - s_mean
        Uc = U - u_mean
        gram = Sc.T @ Sc + POLICY_FIT_REG * np.eye(n)
        K[t] = _solve_pos(gram, Sc.T @ Uc, f"policy linearization at step {t}").T
        k[t] = u_mean - K[t] @ s_mean
    return LinearGaussianPolicy(K, k, C)


def _norm_expansion(x: Array) -> tuple[float, Array, Array]:
    h = float(np.sqrt(x @ x + COST_SMOOTHING**2))
    grad = x / h
    hess = np.eye(x.size) / h - np.outer(x, x) / h**3
    return h, grad, hess


def quadratize(model: SmoothedInsertionCost, states: Array, actions: Array) -> QuadraticCost:
    """Expand the smoothed cost around a nominal trajectory.

    Expansions are converted to absolute coordinates (valid jointly with
    the affine dynamics), so stage quadratics can be compared across
    candidate policies.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    T = actions.shape[0]
    n, m = STATE_DIM, ACTION_DIM
    Czz = np.zeros((T, n + m, n + m))
    cz = np.zeros((T, n + m))
    const = np.zeros(T)
    P = np.eye(2, n)  # picks the position, columns 0:2, out of a state

    for t in range(T):
        s_bar, u_bar = states[t], actions[t]
        val_p, g_p, h_p = _norm_expansion(P @ s_bar - model.target)
        val_u, g_u, h_u = _norm_expansion(u_bar)

        H = np.zeros((n + m, n + m))
        H[:n, :n] = P.T @ h_p @ P
        H[n:, n:] = model.action_weight * h_u
        g = np.concatenate([P.T @ g_p, model.action_weight * g_u])
        z_bar = np.concatenate([s_bar, u_bar])
        value = val_p + model.action_weight * val_u

        Czz[t] = H
        cz[t] = g - H @ z_bar
        const[t] = value - g @ z_bar + 0.5 * float(z_bar @ H @ z_bar)

    s_T = states[-1]
    val_p, g_p, h_p = _norm_expansion(P @ s_T - model.target)
    Cxx_T = TERMINAL_WEIGHT * (P.T @ h_p @ P)
    gx = TERMINAL_WEIGHT * (P.T @ g_p)
    cx_T = gx - Cxx_T @ s_T
    const_T = TERMINAL_WEIGHT * val_p - float(gx @ s_T) + 0.5 * float(s_T @ Cxx_T @ s_T)
    return QuadraticCost(Czz, cz, const, Cxx_T, cx_T, float(const_T))


def linear_gaussian_controller(policy: LinearGaussianPolicy, rng: np.random.Generator):
    chols = [np.linalg.cholesky(policy.C[t]) for t in range(policy.K.shape[0])]

    def controller(t: int, state: Array) -> Array:
        return policy.K[t] @ state + policy.k[t] + chols[t] @ rng.standard_normal(policy.K.shape[1])

    return controller


@dataclass
class Rollout:
    """One episode: ``states`` has one more row than ``actions``/``rewards``."""

    states: Array
    actions: Array
    rewards: Array
    dones: Array
    success: bool
    steps: int

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())


def rollout(config: InsertionEnvConfig, controller, rng) -> Rollout:
    """Run one episode of exactly ``config.horizon`` steps under ``controller(t, state_vec) -> action``.

    The episode is one :func:`env_step` row; ``actions`` holds the clipped
    (executed) actions. It always runs the full horizon, so rollouts have
    equal length; the ``dones`` flags mark success states and the final step.
    """
    states = env_reset(config, rng, 1)
    trace, actions, rewards, dones = [states[0]], [], [], []
    succeeded = False
    for t in range(config.horizon):
        action = np.asarray(controller(t, states[0]), dtype=np.float64)
        action = clip_actions(config, action)
        states, reward, success = env_step(config, states, action[None])
        succeeded = succeeded or bool(success[0])
        done = bool(success[0]) or t == config.horizon - 1
        actions.append(action)
        rewards.append(reward[0])
        dones.append(done)
        trace.append(states[0])
    return Rollout(
        states=np.asarray(trace),
        actions=np.asarray(actions),
        rewards=np.asarray(rewards),
        dones=np.asarray(dones, dtype=bool),
        success=bool(succeeded),
        steps=len(actions),
    )


def gaussian_controller(policy_fn, chol: Array, rng: np.random.Generator):
    def controller(t: int, state: Array) -> Array:
        return policy_fn(state[None, :])[0] + chol @ rng.standard_normal(chol.shape[0])

    return controller
