"""The benchmark's workloads, driven through the package's public functions.

``guided_train`` and ``pure_train`` are short training runs; ``eval_sweep``
evaluates one fixed actor over a grid of hole clearances and offsets. Each
repeat returns an :class:`Outcome`: its wall time, the work it did, its
failure accounting and the checksums that two repeats of one seed must share.
"""
from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from guided_ddpg import guided, trajopt
from guided_ddpg.ddpg import DdpgHyper, make_agent
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.exceptions import InputError, NumericalError, SupervisorError
from guided_ddpg.guided import TrainConfig
from guided_ddpg.harness import load_agent_checkpoint, pure_ddpg_config, save_agent_checkpoint
from guided_ddpg.trajopt import SupervisorConfig


@dataclass(frozen=True)
class Sizes:
    horizon: int
    hidden: tuple[int, ...]
    batch: int


# "paper" is the paper's network and episode size; "tiny" is the smoke-test shape.
SIZES = {
    "paper": Sizes(horizon=100, hidden=(64, 64), batch=64),
    "tiny": Sizes(horizon=6, hidden=(8,), batch=8),
}

# eval_sweep grid: 5 clearances x 5 hole offsets (both signs) x 20 episodes.
CLEARANCES = (0.0001, 0.0002, 0.0005, 0.001, 0.002)
HOLE_OFFSETS = (-0.002, -0.001, 0.0, 0.001, 0.002)
EPISODES_PER_CELL = 20
ACTOR_SEED_TAG = 0xE7A5
TRAIN_SEED_TAG = 0x7A1B


@dataclass
class Outcome:
    """One repeat of a workload."""

    wall_s: float
    env_steps: int
    updates: int
    eval_episodes: int
    attempted: int
    failed: int
    checksums: dict
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def env_and_hyper(sizes: Sizes) -> tuple[InsertionEnvConfig, DdpgHyper]:
    env = InsertionEnvConfig(horizon=sizes.horizon)
    hyper = DdpgHyper.for_env(
        env, actor_hidden=sizes.hidden, critic_hidden=sizes.hidden,
        batch_size=sizes.batch, supervision_batch_size=sizes.batch,
    )
    return env, hyper


def train_seeds(seed: int, count: int) -> list:
    """Training seeds of one bench run: the bench seed, then seeds derived from it."""
    return [seed] + [int(np.random.SeedSequence([seed, TRAIN_SEED_TAG, j]).generate_state(1)[0])
                     for j in range(1, count)]


def train_config(workload: str, seed: int, sizes: Sizes) -> TrainConfig:
    env, hyper = env_and_hyper(sizes)
    if workload == "guided_train":
        return TrainConfig(
            env=env, hyper=hyper, supervisor=SupervisorConfig(samples_per_subiter=5),
            epochs=3, n_ddpg=5, n_inc=5, n_trajopt=3, seed=seed,
        )
    # pure_train: 45 episodes push 45 * horizon transitions into a ring of 20 * horizon.
    return pure_ddpg_config(TrainConfig(
        env=env, hyper=hyper, epochs=3, n_ddpg=10, n_inc=5,
        r2_capacity=20 * sizes.horizon, seed=seed,
    ))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params_finite(net: dict) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in net["weights"] + net["biases"])


def _schedule_problems(config: TrainConfig, log) -> list:
    """Compare the episode log with what the config's schedule must produce."""
    problems = []
    horizon = config.env.horizon
    ok_epochs = sum(rec.status == "ok" for rec in log.epochs)
    ddpg = log.episodes_by_phase("ddpg")
    expected_ddpg = sum(config.n_ddpg + e * config.n_inc for e in range(config.epochs))
    if len(ddpg) != expected_ddpg:
        problems.append(f"{len(ddpg)} exploratory episodes, schedule gives {expected_ddpg}")
    if any(not 1 <= e.steps <= horizon for e in log.episodes):
        problems.append("an episode ran outside 1..horizon steps")
    samples = len(log.episodes_by_phase("trajopt_sample"))
    if samples != ok_epochs * config.n_trajopt * config.supervisor.samples_per_subiter:
        problems.append(f"{samples} supervisor sample episodes for {ok_epochs} ok epochs")
    if log.r1_pushed != ok_epochs * horizon:
        problems.append(f"{log.r1_pushed} supervision samples for {ok_epochs} ok epochs")
    if log.r2_pushed != sum(e.steps for e in log.episodes):
        problems.append(f"{log.r2_pushed} transitions pushed for {sum(e.steps for e in log.episodes)} steps")
    expected_evals = expected_ddpg // config.eval_every if config.eval_every > 0 else 0
    if len(log.evals) != expected_evals:
        problems.append(f"{len(log.evals)} evaluations, schedule gives {expected_evals}")
    return problems


@contextmanager
def counting_supervisor_steps():
    """Count the env steps of every supervisor rollout, kept or discarded.

    A degraded epoch drops its sample rollouts from the log, though they ran.
    The count wraps ``trajopt.rollout``, which runs once per episode, so it
    costs nothing measurable.
    """
    real = trajopt.rollout
    counted = [0]

    def rollout(*args, **kwargs):
        roll = real(*args, **kwargs)
        counted[0] += roll.steps
        return roll

    trajopt.rollout = rollout
    try:
        yield counted
    finally:
        trajopt.rollout = real


def train_once(config: TrainConfig, workdir: Path) -> Outcome:
    """One training run; checksums cover the log CSV and the final actor and critic."""
    with counting_supervisor_steps() as supervisor_steps:
        t0 = time.perf_counter()
        try:
            nets, log = guided.train(config)
        except (NumericalError, SupervisorError) as exc:
            wall = time.perf_counter() - t0
            return Outcome(wall, 0, 0, 0, attempted=1, failed=1,
                           checksums={"aborted": f"{type(exc).__name__}: {exc}"})
        wall = time.perf_counter() - t0

    log_path = workdir / "training_log.csv"
    log.write_csv(log_path)
    ckpt_path = workdir / "agent.json"
    save_agent_checkpoint(ckpt_path, nets, config.hyper)
    payload = json.loads(ckpt_path.read_text(encoding="utf-8"))
    checksums = {
        "training_log_csv": _sha256(log_path.read_bytes()),
        "actor": _sha256(json.dumps(payload["actor"], sort_keys=True).encode()),
        "critic": _sha256(json.dumps(payload["critic"], sort_keys=True).encode()),
    }
    problems = _schedule_problems(config, log)
    if not (_params_finite(payload["actor"]) and _params_finite(payload["critic"])):
        problems.append("non-finite final parameters")

    ddpg_steps = sum(e.steps for e in log.episodes_by_phase("ddpg"))
    updates = ddpg_steps  # one update triple per exploratory step
    eval_steps = sum(round(ev.mean_steps * config.eval_episodes) for ev in log.evals)
    attempted_epochs = sum(rec.status != "skipped" for rec in log.epochs)
    degraded = sum(rec.status == "degraded" for rec in log.epochs)
    ran, logged = supervisor_steps[0], sum(e.steps for e in log.episodes if e.phase != "ddpg")
    if not (ran == logged or (degraded and ran > logged)):  # only a degraded epoch drops rollouts
        problems.append(f"{ran} supervisor steps ran, {logged} logged")
    dual_statuses = [d.status for rec in log.epochs for d in rec.diagnostics]
    return Outcome(
        wall_s=wall,
        env_steps=ddpg_steps + ran + eval_steps,
        updates=updates,
        eval_episodes=len(log.evals) * config.eval_episodes,
        attempted=1 + attempted_epochs,
        failed=degraded,
        checksums=checksums,
        summary={
            "episodes": len(log.episodes),
            "update_triples": updates,
            "degraded_epochs": degraded,
            "dual_searches": len(dual_statuses),
            "dual_max_iterations": dual_statuses.count("max_iterations"),
            "final_eval_success_rate": log.evals[-1].success_rate if log.evals else None,
        },
        problems=problems,
    )


@dataclass
class EvalSetup:
    actor: object
    hyper: DdpgHyper
    cells: list  # (env, seed) per grid cell
    save_s: float
    load_s: float


def eval_setup(seed: int, sizes: Sizes, workdir: Path) -> EvalSetup:
    """The fixed actor, written and read back as a checkpoint, and the sweep grid."""
    env, hyper = env_and_hyper(sizes)
    nets = make_agent(hyper, [seed, ACTOR_SEED_TAG])
    path = workdir / "eval_actor.json"
    t0 = time.perf_counter()
    save_agent_checkpoint(path, nets, hyper)
    t1 = time.perf_counter()
    actor, loaded_hyper = load_agent_checkpoint(path)
    t2 = time.perf_counter()

    # One spawned seed per cell, so negative offsets never reach a seed list.
    seeds = iter(np.random.SeedSequence(seed).spawn(len(CLEARANCES) * len(HOLE_OFFSETS)))
    cells = []
    for clearance in CLEARANCES:
        for offset in HOLE_OFFSETS:
            cell_env = replace(env, hole_half_width=env.peg_half_width + clearance,
                               hole_center_offset=offset, success_tolerance=None, target_point=None)
            cells.append((cell_env, next(seeds)))
    return EvalSetup(actor, loaded_hyper, cells, t1 - t0, t2 - t1)


def eval_once(setup: EvalSetup, episodes_per_cell: int = EPISODES_PER_CELL) -> Outcome:
    """Noise-free evaluation of the fixed actor in every cell of the grid."""
    t0 = time.perf_counter()
    results, failed = [], 0
    for env, cell_seed in setup.cells:
        try:
            results.append(guided.evaluate_policy(setup.actor, setup.hyper, env, episodes_per_cell, cell_seed))
        except (NumericalError, InputError) as exc:
            results.append(type(exc).__name__)
            failed += 1
    wall = time.perf_counter() - t0

    ok = [m for m in results if not isinstance(m, str)]
    text = repr([m if isinstance(m, str) else (m.success_rate, m.mean_return, m.mean_steps) for m in results])
    return Outcome(
        wall_s=wall,
        env_steps=sum(round(m.mean_steps * episodes_per_cell) for m in ok),
        updates=0,
        eval_episodes=len(ok) * episodes_per_cell,
        attempted=len(results),
        failed=failed,
        checksums={"sweep_results": _sha256(text.encode())},
        summary={
            "success_rate": float(np.mean([m.success_rate for m in ok])) if ok else None,
            "mean_return": float(np.mean([m.mean_return for m in ok])) if ok else None,
            "mean_steps": float(np.mean([m.mean_steps for m in ok])) if ok else None,
        },
    )


def reference_problems(sizes_name: str, workdir: Path, reference: dict) -> list:
    """Compare a short sweep at the reference seed with the stored values."""
    ref = reference[sizes_name]
    outcome = eval_once(eval_setup(ref["seed"], SIZES[sizes_name], workdir), ref["episodes_per_cell"])
    got = outcome.summary
    problems = []
    if outcome.failed or got["success_rate"] is None:
        return [f"reference sweep had {outcome.failed} failed cells"]
    if abs(got["success_rate"] - ref["success_rate"]) > ref["success_rate_atol"]:
        problems.append(f"reference success rate {got['success_rate']!r} != {ref['success_rate']!r}")
    if abs(got["mean_return"] - ref["mean_return"]) > ref["mean_return_rtol"] * abs(ref["mean_return"]):
        problems.append(f"reference mean return {got['mean_return']!r} != {ref['mean_return']!r}")
    return problems
