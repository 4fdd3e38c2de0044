"""Actor-critic learner with optional supervision from a trajectory optimizer.

The critic regresses onto bootstrapped targets plus (weighted) optimizer
value targets; the actor ascends the target critic plus a (weighted) L2 pull
toward optimizer actions. With supervision weight zero both updates reduce
exactly to standard DDPG, with DDPG's discount :data:`DISCOUNT` and target
rate :data:`TARGET_RATE`. Exploration adds Ornstein-Uhlenbeck noise of the
fixed scale :data:`OU_SCALE`, rate :data:`OU_THETA` and time step :data:`OU_DT`.
The nets' input scaling is a pair of :class:`DdpgHyper` class constants.

The learner's state is one :class:`AgentNets`, updated in place once per
environment step: :func:`critic_update` and :func:`actor_update` write the
critic's and the actor's slice of ``AgentNets.params`` and their Adam moments
through ``adam_step``, and :func:`target_update` blends ``AgentNets.targets``
toward ``params`` through one ``soft_update``. Nothing else writes them. Every
check that can fail runs before the first write, so an update that raises
leaves the nets as they were.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig
from .exceptions import ConfigurationError, NumericalError
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

DISCOUNT = 0.99  # per-step discount of the critic's bootstrapped targets and the supervisor's values
TARGET_RATE = 0.001  # share of the source that each soft update blends into the target nets
OU_SCALE = 1.0  # diffusion scale (N) of the exploration noise on each action axis
OU_THETA = 0.15  # mean-reversion rate of the exploration noise
OU_DT = 1.0  # time step of the exploration noise; each step scales its state by 1 - OU_THETA * OU_DT


@dataclass(frozen=True)
class DdpgHyper:
    """The learner's five settings, and the nets' input scaling as class constants.

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
    supervision_decay: float = 10.0  # decay constant c of supervision_weight; c = 0 disables supervision
    actor_hidden: tuple[int, ...] = (64, 64)
    critic_hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.batch_size < 1 or self.supervision_batch_size < 1:
            raise ConfigurationError("batch sizes must be positive")
        if self.supervision_decay < 0.0:
            raise ConfigurationError("supervision_decay must be >= 0")
        if any(w < 1 for w in (*self.actor_hidden, *self.critic_hidden)):
            raise ConfigurationError(f"actor_hidden and critic_hidden widths must be >= 1, "
                                     f"got {self.actor_hidden} and {self.critic_hidden}")

    @classmethod
    def for_env(cls, env: InsertionEnvConfig, **settings) -> "DdpgHyper":
        """The learner with ``settings``; ``env`` is not read, since every task shares one scaling.

        The benchmark builds its learner through it. :func:`harness.parse_spec` calls it too, so that
        ``tests/test_unused_definitions.py``, blind to attributes the benchmark calls, counts it as used."""
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
    """

    def __init__(self, actor: MlpParams, critic: MlpParams):
        self.params = np.concatenate([critic.vector, actor.vector])
        self.targets = self.params.copy()
        n = critic.vector.size
        self.critic = MlpParams(critic.layer_sizes, self.params[:n], critic.output_activation)
        self.actor = MlpParams(actor.layer_sizes, self.params[n:], actor.output_activation)
        self.target_critic = MlpParams(critic.layer_sizes, self.targets[:n], critic.output_activation)
        self.target_actor = MlpParams(actor.layer_sizes, self.targets[n:], actor.output_activation)
        self.critic_opt = adam_init(critic)
        self.actor_opt = adam_init(actor)


def make_agent(hyper: DdpgHyper, seed) -> AgentNets:
    """Fresh actor/critic with targets initialized as exact copies."""
    base = list(np.atleast_1d(np.asarray(seed)).ravel())
    actor = mlp_init([STATE_DIM, *hyper.actor_hidden, ACTION_DIM], "tanh", seed=base + [0])
    critic = mlp_init([STATE_DIM + ACTION_DIM, *hyper.critic_hidden, 1], "identity", seed=base + [1])
    return AgentNets(actor, critic)


def _scaled_obs(hyper: DdpgHyper, states: Array) -> Array:
    return np.asarray(states) * hyper.obs_scale_array


def _critic_input(hyper: DdpgHyper, states: Array, actions: Array) -> Array:
    return np.concatenate([_scaled_obs(hyper, states), np.asarray(actions) / hyper.action_bound], axis=1)


def policy_action(actor: MlpParams, hyper: DdpgHyper, states: Array) -> Array:
    """Deterministic ``(N, 2)`` actions for ``(N, 6)`` state rows, tanh-squashed to the bound.

    A ``(..., N, 6)`` stack of row blocks gives a ``(..., N, 2)`` stack, each
    block with the bits of its own call (see :func:`nets.mlp_forward`).
    """
    return hyper.action_bound * mlp_forward(actor, _scaled_obs(hyper, states))[0]


def critic_value(critic: MlpParams, hyper: DdpgHyper, states: Array, actions: Array) -> Array:
    """Q estimates, one per row of the ``(N, 6)`` states and ``(N, 2)`` actions."""
    return mlp_forward(critic, _critic_input(hyper, states, actions))[0][:, 0]


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
    x = _critic_input(hyper, batch.states, batch.actions)
    q, cache = mlp_forward(nets.critic, x)
    err = q[:, 0] - y
    n = batch.states.shape[0]
    loss = float(np.mean(err**2))
    grads, _ = mlp_backward(nets.critic, (2.0 / n) * err[:, None], cache, wrt_input=False)

    if sup_batch is not None and supervision_weight > 0.0:
        xs = _critic_input(hyper, sup_batch.states, sup_batch.actions)
        qs, cache_s = mlp_forward(nets.critic, xs)
        err_s = qs[:, 0] - sup_batch.q_values
        ns = sup_batch.states.shape[0]
        loss += supervision_weight * float(np.mean(err_s**2))
        sup_grads, _ = mlp_backward(
            nets.critic, (2.0 * supervision_weight / ns) * err_s[:, None], cache_s, wrt_input=False
        )
        grads = grads + sup_grads
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
    only; critic parameters stay fixed.
    """
    xs = _scaled_obs(hyper, batch.states)
    out, actor_cache = mlp_forward(nets.actor, xs)  # in [-1, 1]; action = bound * out
    n = batch.states.shape[0]

    # dQ/d(action input) of the target critic at (s, actor(s)).
    critic_in = np.concatenate([xs, out], axis=1)
    q, critic_cache = mlp_forward(nets.target_critic, critic_in)
    _, input_grad = mlp_backward(nets.target_critic, np.ones((n, 1)), critic_cache, wrt_params=False)
    dq_dout = input_grad[:, xs.shape[1] :]

    objective = -float(np.mean(q[:, 0]))
    grads, _ = mlp_backward(nets.actor, (-1.0 / n) * dq_dout, actor_cache, wrt_input=False)

    if sup_batch is not None and supervision_weight > 0.0:
        xs_s = _scaled_obs(hyper, sup_batch.states)
        out_s, sup_cache = mlp_forward(nets.actor, xs_s)
        diff = hyper.action_bound * out_s - sup_batch.actions
        ns = sup_batch.states.shape[0]
        objective += supervision_weight * float(np.mean(np.sum(diff**2, axis=1)))
        sup_grads, _ = mlp_backward(
            nets.actor, (2.0 * supervision_weight * hyper.action_bound / ns) * diff, sup_cache,
            wrt_input=False,
        )
        grads = grads + sup_grads
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
    """Blend both target nets toward their sources at :data:`TARGET_RATE` with one soft update, in place."""
    soft_update(nets.targets, nets.params, TARGET_RATE)


def supervision_weight(n_roll: int, c: float) -> float:
    """Decaying blend weight ``c / (n_roll + c)``; a decay constant of 0 disables supervision."""
    return c / (n_roll + c) if c > 0.0 else 0.0


class OrnsteinUhlenbeckNoise:
    """Zero-mean temporally correlated exploration noise on ``dim`` axes.

    ``x += OU_THETA * (0 - x) * OU_DT + OU_SCALE * sqrt(OU_DT) * N(0, 1)``.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._x = np.zeros(dim)

    def reset(self) -> None:
        self._x = np.zeros(self.dim)

    def sample(self, rng: np.random.Generator) -> Array:
        self._x = self._x + OU_THETA * (-self._x) * OU_DT + OU_SCALE * np.sqrt(OU_DT) * rng.standard_normal(self.dim)
        return self._x.copy()
