"""Training orchestrator: alternating supervision epochs and DDPG blocks.

Each epoch first runs the trajectory optimizer and labels its closing episode
into the supervision buffer, then a block of exploratory episodes during which
every environment step applies one critic, one actor and one target update.
The supervision weight decays with the number of completed exploratory
episodes, and the block length grows by a fixed increment per epoch.

All randomness flows through named streams derived from the config seed, so
a full run is reproducible bit for bit.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ddpg import (
    AgentNets,
    DdpgHyper,
    actor_update,
    cost_to_go,
    critic_update,
    make_agent,
    ou_noise_step,
    policy_action,
    supervision_weight,
    target_update,
)
from .envs import (
    ACTION_DIM,
    InsertionEnvConfig,
    Transition,
    clip_actions,
    env_reset,
    env_step,
    rollout,  # noqa: F401  (unused here; the benchmark's tracer wraps guided.rollout by name)
)
from .exceptions import InputError, SupervisorError, fits_in_memory
from .replay import (
    ReplayBuffer,
    SupervisionSample,
    supervision_batch_from_rows,
    supervision_buffer,
    transition_batch_from_rows,
    transition_buffer,
)
from .trajopt import DualState, SupervisorConfig, run_supervisor

Array = np.ndarray

# Fixed tags for the named rng streams; part of the reproducibility contract.
STREAM_NET = 0
STREAM_ENV = 1
STREAM_NOISE = 2
STREAM_REPLAY = 3
STREAM_SUPERVISOR = 4
STREAM_EVAL = 5
STREAM_FINAL_EVAL = 0xE7A1  # a trained seed's closing evaluation, which harness.final_evaluation runs

R1_CAPACITY = 2000  # supervision samples the r1 ring keeps; the oldest are overwritten first


@dataclass
class RngStreams:
    net_seed: list
    env: np.random.Generator
    noise: np.random.Generator
    replay: np.random.Generator
    supervisor: np.random.Generator


def rng_streams(seed: int) -> RngStreams:
    """Independent, deterministically derived generators for each concern."""
    return RngStreams(
        net_seed=[seed, STREAM_NET],
        env=np.random.default_rng([seed, STREAM_ENV]),
        noise=np.random.default_rng([seed, STREAM_NOISE]),
        replay=np.random.default_rng([seed, STREAM_REPLAY]),
        supervisor=np.random.default_rng([seed, STREAM_SUPERVISOR]),
    )


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on."""

    env: InsertionEnvConfig = field(default_factory=InsertionEnvConfig)
    hyper: DdpgHyper = field(default_factory=DdpgHyper)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    epochs: int = 100
    n_ddpg: int = 21
    n_inc: int = 15
    n_trajopt: int = 3
    r2_capacity: int = 1_000_000
    seed: int = 0
    eval_every: int = 25
    eval_episodes: int = 20

    def __post_init__(self):
        if self.epochs < 0 or self.n_ddpg < 0 or self.n_inc < 0 or self.n_trajopt < 0:
            raise InputError("episode/epoch counts must be non-negative")
        if self.r2_capacity < 1:
            raise InputError(f"r2_capacity must be >= 1, got {self.r2_capacity}")
        if self.eval_every < 0:
            raise InputError(f"eval_every must be >= 0, got {self.eval_every}")
        if self.eval_every > 0 and self.eval_episodes < 1:
            raise InputError(f"eval_episodes must be >= 1 when eval_every > 0, got {self.eval_episodes}")

    def episodes_before(self, epoch: int) -> int:
        """The exploratory episodes run before ``epoch``, where epoch ``e`` runs ``n_ddpg + e * n_inc``."""
        return epoch * self.n_ddpg + self.n_inc * (epoch * (epoch - 1) // 2)


@dataclass
class EpisodeRecord:
    epoch: int
    phase: str  # trajopt_sample | supervised | ddpg
    n_roll: Optional[int]  # exploratory-episode counter value at episode start
    steps: int
    episode_return: float
    success: bool
    w_to: Optional[float]
    wall_clock: float


@dataclass
class EpochRecord:
    epoch: int
    status: str  # ok | degraded
    detail: str
    diagnostics: list


@dataclass
class EvalMetrics:
    success_rate: float
    mean_return: float
    mean_steps: float


@dataclass
class EvalRecord(EvalMetrics):
    epoch: int
    n_roll: int


@dataclass
class TrainingLog:
    episodes: list = field(default_factory=list)
    evals: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    r1_pushed: int = 0
    r2_pushed: int = 0
    t_start: float = field(default_factory=time.perf_counter, compare=False)  # the run's clock; stamps count from it

    def episodes_by_phase(self, phase: str) -> list:
        return [e for e in self.episodes if e.phase == phase]

    def rollouts_to_threshold(self, threshold: float) -> Optional[int]:
        """Exploratory-episode count at the first evaluation meeting the threshold."""
        for ev in self.evals:
            if ev.success_rate >= threshold:
                return ev.n_roll
        return None

    def write_csv(self, path) -> None:
        """Deterministic log export: wall-clock timings deliberately excluded."""
        rows = [
            ["episode", e.epoch, e.phase, i, "" if e.n_roll is None else e.n_roll, e.steps,
             repr(float(e.episode_return)), int(e.success),
             "" if e.w_to is None else repr(float(e.w_to)), "", "", ""]
            for i, e in enumerate(self.episodes)
        ]
        rows += [
            ["eval", ev.epoch, "eval", "", ev.n_roll, "", "", "", "",
             repr(float(ev.success_rate)), repr(float(ev.mean_return)), repr(float(ev.mean_steps))]
            for ev in self.evals
        ]
        write_table(path, ["row_type", "epoch", "phase", "episode", "n_roll", "steps", "episode_return",
                           "success", "w_to", "success_rate", "mean_return", "mean_steps"], rows)

    def write_timings_csv(self, path) -> None:
        """Each episode's ``wall_clock_s``, the time since ``train`` started when the episode was logged.

        A supervisor epoch's episodes are logged together once :func:`run_supervisor` returns, so their stamps
        agree to within microseconds and the epoch's whole supervisor time falls before its first
        ``trajopt_sample`` row."""
        write_table(path, ["episode", "wall_clock_s"],
                    ([i, f"{e.wall_clock:.6f}"] for i, e in enumerate(self.episodes)))


def write_table(path, header, rows) -> None:
    """Write one CSV artifact table: ``header``, then each row of ``rows``.

    This is the one dialect of the run's tables: UTF-8; the csv module's
    default quoting, only where a cell needs it; and ``"\\r\\n"`` after every
    row on every platform. Each caller formats its own cells.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def evaluation_arrays(env: InsertionEnvConfig, n_episodes: int) -> tuple[Array, Array, Array]:
    """The per-episode arrays of a lockstep evaluation: rewards by time step, steps, successes.

    Raises :class:`InputError` for a count or horizon whose arrays do not fit
    in memory, so a caller can size an evaluation before it starts.
    """
    with fits_in_memory(f"{n_episodes} evaluation episodes of {env.horizon} steps do not fit in memory"):
        return (np.zeros((n_episodes, env.horizon)), np.full(n_episodes, env.horizon),
                np.zeros(n_episodes, dtype=bool))


def evaluate_policy(actor, hyper: DdpgHyper, env: InsertionEnvConfig, n_episodes: int, seed) -> EvalMetrics:
    """Run noise-free episodes in lockstep; never touches buffers or parameters.

    All ``n_episodes`` episodes start together and advance one time step per
    iteration: one ``policy_action`` on the states of the episodes still
    running, then one :func:`env_step` on those rows. An episode leaves the
    active set when it succeeds or reaches the horizon. The resets are the
    draws that running the episodes one after another (the per-episode
    oracle in ``tests/test_guided.py``) would make, each row steps as it
    would alone, and each return is summed as that loop sums it. The one
    difference is the batched policy forward pass, whose actions can differ
    from single-row passes in the last bits; the stiff contact can grow that
    over an episode. Success rate and mean steps equal the per-episode
    loop's unless a state lands within those bits of the success boundary.
    Mean return agrees to a few parts in 1e12 on the inputs tried for a
    float64 actor, such as a loaded checkpoint's, and to a few parts in 1e9
    for the learner's float32 actor, whose last bits are float32's.
    """
    rewards, steps, succeeded = evaluation_arrays(env, n_episodes)
    rng = np.random.default_rng(seed)  # made outside the guard, so that a bad seed stays a ValueError
    with fits_in_memory(f"{n_episodes} evaluation episodes do not fit in memory"):
        states = env_reset(env, rng, n_episodes)
    active = np.arange(n_episodes)
    for t in range(env.horizon):
        states, step_rewards, done = env_step(env, states, policy_action(actor, hyper, states))
        rewards[active, t] = step_rewards
        if done.any():
            finished = active[done]
            succeeded[finished] = True
            steps[finished] = t + 1
            active, states = active[~done], states[~done]
            if active.size == 0:
                break
    returns = [rewards[i, :steps[i]].sum() for i in range(n_episodes)]
    return EvalMetrics(float(np.mean(succeeded)), float(np.mean(returns)), float(np.mean(steps)))


def ddpg_block(
    nets: AgentNets,
    config: TrainConfig,
    r1: ReplayBuffer,
    r2: ReplayBuffer,
    streams: RngStreams,
    epoch: int,
    log: TrainingLog,
) -> None:
    """Run ``epoch``'s exploratory episodes with one update triple per environment step.

    The episodes are numbered, as their ``n_roll``, from ``config.episodes_before(epoch)`` up to
    ``config.episodes_before(epoch + 1)``. Each applies and logs as ``w_to`` one supervision weight, 0 while
    ``r1`` is empty. Its Ornstein-Uhlenbeck noise starts at zeros and takes one :func:`ou_noise_step` on
    ``streams.noise`` per step, added to the actor's action before the clip. An episode ends on success or at
    the horizon. Updates ``nets`` in place.
    """
    hyper = config.hyper
    env = config.env

    for n_roll in range(config.episodes_before(epoch), config.episodes_before(epoch + 1)):
        w_to = supervision_weight(n_roll) if len(r1) > 0 else 0.0

        noise = np.zeros(ACTION_DIM)
        state = env_reset(env, streams.env, 1)
        episode_return = 0.0
        for t in range(env.horizon):
            noise = ou_noise_step(noise, streams.noise)
            action = clip_actions(env, policy_action(nets.actor, hyper, state)[0] + noise)
            next_state, rewards, successes = env_step(env, state, action[None])
            reward, success = float(rewards[0]), bool(successes[0])
            done = success or t == env.horizon - 1
            r2.push(Transition(state[0], action, next_state[0], reward, done))
            episode_return += reward

            batch = transition_batch_from_rows(r2.sample_rows(hyper.batch_size, streams.replay))
            sup = None
            if w_to > 0.0:
                sup = supervision_batch_from_rows(r1.sample_rows(hyper.supervision_batch_size, streams.replay))
            critic_update(nets, hyper, batch, sup, w_to)
            actor_update(nets, hyper, batch, sup, w_to)
            target_update(nets)

            state = next_state
            if done:
                break
        log.episodes.append(EpisodeRecord(epoch, "ddpg", n_roll, t + 1, episode_return, success, w_to,
                                          time.perf_counter() - log.t_start))

        if config.eval_every > 0 and (n_roll + 1) % config.eval_every == 0:
            metrics = evaluate_policy(nets.actor, hyper, env, config.eval_episodes,
                                      [config.seed, STREAM_EVAL, len(log.evals)])
            log.evals.append(EvalRecord(**vars(metrics), epoch=epoch, n_roll=n_roll + 1))


def train(config: TrainConfig) -> tuple[AgentNets, TrainingLog]:
    """Full training run; deterministic given the config (seed included)."""
    log = TrainingLog()
    streams = rng_streams(config.seed)
    hyper = config.hyper
    nets = make_agent(hyper, streams.net_seed)
    r1, r2 = supervision_buffer(R1_CAPACITY), transition_buffer(config.r2_capacity)
    dual = DualState()

    def actor_fn(states):  # the supervisor runs between DDPG blocks, so it sees the actor fixed
        return policy_action(nets.actor, hyper, states).astype(np.float64)  # its fits stay float64

    for epoch in range(config.epochs):
        if config.n_trajopt > 0:
            try:
                result, dual = run_supervisor(config.env, actor_fn, config.n_trajopt, dual, config.supervisor,
                                              streams.supervisor)
            except SupervisorError as exc:
                log.epochs.append(EpochRecord(epoch, "degraded", str(exc), []))
            else:
                final = result.final_rollout
                phases = ["trajopt_sample"] * len(result.sample_rollouts) + ["supervised"]
                for phase, batch in zip(phases, result.sample_rollouts + [final]):
                    for states, actions, rewards, dones, success in zip(
                            batch.states, batch.actions, batch.rewards, batch.dones, batch.successes):
                        for t in range(rewards.size):
                            r2.push(Transition(states[t], actions[t], states[t + 1], float(rewards[t]), bool(dones[t])))
                        log.episodes.append(EpisodeRecord(epoch, phase, None, rewards.size, float(rewards.sum()),
                                                          bool(success), None, time.perf_counter() - log.t_start))
                # the closing episode's steps, labeled with their discounted cost-to-go, supervise the learner
                values = cost_to_go(final.rewards[0])
                for t in range(values.size):
                    r1.push(SupervisionSample(final.states[0, t], final.actions[0, t], float(values[t])))
                log.epochs.append(EpochRecord(epoch, "ok", "", result.diagnostics))

        ddpg_block(nets, config, r1, r2, streams, epoch, log)

    log.r1_pushed = r1.total_pushed
    log.r2_pushed = r2.total_pushed
    return nets, log
