"""Actor-critic learner with optional supervision from a trajectory optimizer.

The critic regresses onto bootstrapped targets plus (weighted) optimizer
value targets, the :func:`cost_to_go` of the optimizer's rewards; the actor
ascends the target critic plus a (weighted) L2 pull toward optimizer
actions. With supervision weight zero both updates reduce
exactly to standard DDPG, with DDPG's discount :data:`DISCOUNT` and target
rate :data:`TARGET_RATE`. Exploration adds Ornstein-Uhlenbeck noise of the
fixed scale :data:`OU_SCALE`, rate :data:`OU_THETA` and time step :data:`OU_DT`:
:func:`ou_noise_step` maps the noise's value to the next, and the caller holds it.
The nets' input scaling is a pair of :class:`DdpgHyper` class constants.

The learner's state is one :class:`AgentNets`, updated in place once per
environment step: :func:`critic_update` and :func:`actor_update` write the
critic's and the actor's slice of ``AgentNets.params`` and their Adam moments
through ``adam_step``, and :func:`target_update` blends ``AgentNets.targets``
toward ``params`` through one ``soft_update``, in float64. Nothing else
writes them. Every check that can fail runs before the first write, so an
update that raises leaves the nets as they were. The critic loss and the
actor objective are read by those checks alone; each sums its terms in
float64 and divides by the row count, as ``np.mean`` would, two to ten
times faster.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig
from .exceptions import InputError, NumericalError
from .nets import (
    MlpParams,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    soft_update,
)
from .replay import SupervisionBatch, TransitionBatch

Array = np.ndarray

DISCOUNT = 0.99  # per-step discount of the critic's bootstrapped targets and of the supervision labels
TARGET_RATE = 0.001  # share of the source that each soft update blends into the target nets
OU_SCALE = 1.0  # diffusion scale (N) of the exploration noise on each action axis
OU_THETA = 0.15  # mean-reversion rate of the exploration noise
OU_DT = 1.0  # time step of the exploration noise; each step scales its state by 1 - OU_THETA * OU_DT
_OU_DIFFUSION = OU_SCALE * np.sqrt(OU_DT)  # the noise's per-step diffusion, a numpy float64
SUPERVISION_DECAY = 10.0  # decay constant c of supervision_weight; the weight is 1/2 after c exploratory episodes


@dataclass(frozen=True)
class DdpgHyper:
    """The learner's four settings, and the nets' input scaling as class constants.

    The task's geometry is fixed, so the scaling is too. Actions are the actor's tanh output times
    ``action_bound``, and the critic reads them divided by it; states enter a net times ``obs_scale_array``.
    """

    action_bound: ClassVar[float] = InsertionEnvConfig.action_bound
    # read-only; positions over the task's length, velocities as they are, contact forces over 10x the bound
    obs_scale_array: ClassVar[Array] = np.array(
        [1.0 / (InsertionEnvConfig.hole_depth + InsertionEnvConfig.start_height)] * 2
        + [1.0, 1.0] + [1.0 / (10.0 * InsertionEnvConfig.action_bound)] * 2)
    obs_scale_array.flags.writeable = False

    batch_size: int = 64
    supervision_batch_size: int = 64
    actor_hidden: tuple[int, ...] = (64, 64)
    critic_hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.batch_size < 1 or self.supervision_batch_size < 1:
            raise InputError("batch sizes must be positive")
        if any(w < 1 for w in (*self.actor_hidden, *self.critic_hidden)):
            raise InputError(f"actor_hidden and critic_hidden widths must be >= 1, "
                             f"got {self.actor_hidden} and {self.critic_hidden}")

    @classmethod
    def for_env(cls, env: InsertionEnvConfig, **settings) -> "DdpgHyper":
        """The learner with ``settings``; ``env`` is not read, since every task shares one scaling.

        The benchmark builds its learner through it."""
        return cls(**settings)


class AgentNets:
    """The learner's four nets and their two Adam states, in two joint vectors.

    ``params`` is ``[critic | actor]`` and ``targets`` is
    ``[target_critic | target_actor]``, each part in the checkpoint layout.
    ``actor``, ``critic``, ``target_actor`` and ``target_critic`` are
    read-only views into them: a holder cannot write through a net but sees
    every update that :func:`critic_update`, :func:`actor_update` and
    :func:`target_update` make. A snapshot that must not move with training
    is a ``.copy()`` of a vector.

    The constructor copies the two given nets, so the result never aliases
    them; each target starts equal to its source and each Adam state at zero.
    The joint vectors and the moments keep the nets' precision: float32 for
    :func:`make_agent`'s, float64 for the float64 nets that gradient checks
    and oracles build.

    ``targets_float64`` is what :func:`target_update` blends, and ``targets``
    is its value in the nets' precision. Each blend moves a target by
    :data:`TARGET_RATE` times its gap to the source, which a float32 target
    would round away once it falls below half a float32 ulp, stalling about
    3e-5 short of a fixed source of 1.0; in float64 the target reaches the
    source to within float32 rounding. For float64 nets the two vectors hold
    the same values.
    """

    def __init__(self, actor: MlpParams, critic: MlpParams):
        self.params = np.concatenate([critic.vector, actor.vector])
        self.targets = self.params.copy()
        self.targets_float64 = self.params.astype(np.float64)
        n = critic.vector.size
        self.critic = MlpParams(critic.layer_sizes, self.params[:n], critic.output_activation)
        self.actor = MlpParams(actor.layer_sizes, self.params[n:], actor.output_activation)
        self.target_critic = MlpParams(critic.layer_sizes, self.targets[:n], critic.output_activation)
        self.target_actor = MlpParams(actor.layer_sizes, self.targets[n:], actor.output_activation)
        self.critic_opt = adam_init(self.critic)
        self.actor_opt = adam_init(self.actor)


def make_agent(hyper: DdpgHyper, seed) -> AgentNets:
    """Fresh float32 actor/critic with targets initialized as exact copies.

    The weights are ``mlp_init``'s float64 Glorot draws rounded to float32, so
    a saved actor holds float32-exact values, which a checkpoint loads as float64.
    """
    base = list(np.atleast_1d(np.asarray(seed)).ravel())
    actor = mlp_init([STATE_DIM, *hyper.actor_hidden, ACTION_DIM], "tanh", seed=base + [0])
    critic = mlp_init([STATE_DIM + ACTION_DIM, *hyper.critic_hidden, 1], "identity", seed=base + [1])
    return AgentNets(*(MlpParams(net.layer_sizes, net.vector.astype(np.float32), net.output_activation)
                       for net in (actor, critic)))


def _scaled_obs(hyper: DdpgHyper, states: Array) -> Array:
    return np.asarray(states) * hyper.obs_scale_array


def _critic_input(nets: AgentNets, hyper: DdpgHyper, scaled_states: Array, actions: Array) -> Array:
    return np.concatenate([scaled_states, actions / hyper.action_bound], axis=1, dtype=nets.params.dtype)


def policy_action(actor: MlpParams, hyper: DdpgHyper, states: Array) -> Array:
    """Deterministic ``(N, 2)`` actions for ``(N, 6)`` state rows, tanh-squashed to the bound.

    A ``(..., N, 6)`` stack of row blocks gives a ``(..., N, 2)`` stack, each
    block with the bits of its own call (see :func:`nets.mlp_forward`).
    """
    return hyper.action_bound * mlp_forward(actor, _scaled_obs(hyper, states))[0]


def critic_target(batch: TransitionBatch, nets: AgentNets, hyper: DdpgHyper) -> Array:
    """Bootstrapped targets from the target nets; terminal rows are not bootstrapped.

    The next states are scaled once for both nets, and the critic reads the actor's action ``bound * out``
    divided by the bound, as it reads any action."""
    xn = _scaled_obs(hyper, batch.next_states)
    next_actions = hyper.action_bound * mlp_forward(nets.target_actor, xn)[0]
    next_q = mlp_forward(nets.target_critic, _critic_input(nets, hyper, xn, next_actions))[0][:, 0]
    if not np.isfinite(next_q).all():
        raise NumericalError("target critic produced non-finite values")
    return batch.rewards + DISCOUNT * np.where(batch.dones, 0.0, next_q)


def cost_to_go(rewards: Array) -> Array:
    """Suffix sums of a reward sequence discounted at :data:`DISCOUNT` (reward units): the supervision labels."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + DISCOUNT * acc
        out[t] = acc
    return out


def critic_loss_grads(
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
    y = critic_target(batch, nets, hyper)
    x = _critic_input(nets, hyper, _scaled_obs(hyper, batch.states), batch.actions)
    n = batch.states.shape[0]
    supervised = sup_batch is not None and supervision_weight > 0.0
    if supervised:
        x = np.concatenate([x, _critic_input(nets, hyper, _scaled_obs(hyper, sup_batch.states), sup_batch.actions)])
        y = np.concatenate([y, sup_batch.q_values])
    q, cache = mlp_forward(nets.critic, x)
    err = q[:, 0] - y  # float64, as y is, so the loss sums in float64
    loss = float(err[:n] @ err[:n]) / n
    out_grad = (2.0 / n) * err[:, None]
    if supervised:
        ns = sup_batch.states.shape[0]
        loss += supervision_weight * (float(err[n:] @ err[n:]) / ns)
        out_grad[n:] = (2.0 * supervision_weight / ns) * err[n:, None]
    grads, _ = mlp_backward(nets.critic, out_grad, cache, wrt_input=False)
    return loss, grads


def critic_update(
    nets: AgentNets,
    hyper: DdpgHyper,
    batch: TransitionBatch,
    sup_batch: SupervisionBatch | None,
    supervision_weight: float,
) -> None:
    """One Adam step on the critic's slice of ``nets.params``, in place."""
    loss, grads = critic_loss_grads(nets, hyper, batch, sup_batch, supervision_weight)
    if not np.isfinite(loss):
        raise NumericalError("critic loss is non-finite; parameters unchanged")
    adam_step(nets.critic_opt, nets.params[: nets.critic.vector.size], grads)


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
    only; critic parameters stay fixed. The supervision states, stacked under
    the batch states, share the actor's passes; the target critic sees the batch.
    """
    xs = _scaled_obs(hyper, batch.states).astype(nets.params.dtype, copy=False)  # rounded as mlp_forward would
    n = batch.states.shape[0]
    supervised = sup_batch is not None and supervision_weight > 0.0
    rows = np.concatenate([xs, _scaled_obs(hyper, sup_batch.states)], dtype=xs.dtype) if supervised else xs
    out, actor_cache = mlp_forward(nets.actor, rows)  # in [-1, 1]; action = bound * out

    # dQ/d(action input) of the target critic at (s, actor(s)).
    critic_in = np.concatenate([xs, out[:n]], axis=1)
    q, critic_cache = mlp_forward(nets.target_critic, critic_in)
    _, input_grad = mlp_backward(nets.target_critic, np.ones(q.shape, q.dtype), critic_cache, wrt_params=False)
    dq_dout = input_grad[:, xs.shape[1] :]

    objective = -float(np.add.reduce(q, None, np.float64)) / n  # summed in float64, as the critic loss is
    out_grad = (-1.0 / n) * dq_dout
    if supervised:
        diff = hyper.action_bound * out[n:] - sup_batch.actions
        ns = sup_batch.states.shape[0]
        objective += supervision_weight * (float(np.vdot(diff, diff)) / ns)
        out_grad = np.concatenate([out_grad, (2.0 * supervision_weight * hyper.action_bound / ns) * diff])
    grads, _ = mlp_backward(nets.actor, out_grad, actor_cache, wrt_input=False)
    return objective, grads


def actor_update(
    nets: AgentNets,
    hyper: DdpgHyper,
    batch: TransitionBatch,
    sup_batch: SupervisionBatch | None,
    supervision_weight: float,
) -> None:
    """One Adam step on the actor's slice of ``nets.params``, in place."""
    objective, grads = actor_objective_grads(nets, hyper, batch, sup_batch, supervision_weight)
    if not np.isfinite(objective):
        raise NumericalError("actor objective is non-finite; parameters unchanged")
    adam_step(nets.actor_opt, nets.params[nets.critic.vector.size :], grads)


def target_update(nets: AgentNets) -> None:
    """Blend both target nets toward their sources at :data:`TARGET_RATE` with one soft update, in place.

    The blend runs on ``nets.targets_float64``, which ``nets.targets`` then copies.
    """
    soft_update(nets.targets_float64, nets.params, TARGET_RATE)
    nets.targets[...] = nets.targets_float64


def supervision_weight(n_roll: int) -> float:
    """Decaying blend weight ``c / (n_roll + c)`` with ``c`` = :data:`SUPERVISION_DECAY`."""
    return SUPERVISION_DECAY / (n_roll + SUPERVISION_DECAY)


def ou_noise_step(x: Array, rng: np.random.Generator) -> Array:
    """The exploration noise's next value after ``x``, a new array; an episode starts it at zeros:
    ``x + OU_THETA * (0 - x) * OU_DT + OU_SCALE * sqrt(OU_DT) * N(0, 1)`` on each axis."""
    return x + OU_THETA * (-x) * OU_DT + _OU_DIFFUSION * rng.standard_normal(x.shape)
