"""The learning gate: guided and pure DDPG at a fixed budget, judged against a stored reference.

The paper's own metrics must not regress, and a change that moves the
learner's bits moves every learning curve, so such a change is judged here.
Each arm trains through ``guided.train`` on the seeds of a schedule: the
guided arm on ``TrainConfig(epochs=8, seed=s)``, the pure arm on its
``pure_ddpg_config``, seeds 0-9. Per arm and seed it reads:

- ``auc``: the mean success rate over the run's in-training evaluations
  (23 of 20 episodes at the default schedule);
- ``final``: the success rate of 50 noise-free episodes after training, with
  the actor in float64 as a checkpoint loads it;
- ``to_0.5`` and ``to_0.9``: the exploratory episodes run when an evaluation
  first reached 0.5, and ``harness.SUCCESS_THRESHOLD``; a seed that never
  does is censored at the schedule's end, its count of exploratory
  episodes, and counted as not reached;
- ``degraded``: the supervisor epochs that degraded;
- ``supervised``: the success of the supervisor's own closing episodes
  (the ``supervised`` rows of the training log), over the epochs that ran it.

Over seeds, each figure is aggregated by its interquartile mean (IQM) with a
95 % stratified-bootstrap confidence interval (Agarwal et al.,
arXiv:2108.13264), in numpy; the one stratum is the one task.

``tests/gate.json`` holds the reference: the schedule, the margin, the
per-seed figures, the aggregates and ``golden.platform_fingerprint()``. The
verdict checks the AUC and the final success of both arms. For each, it
resamples the tree's seeds and the reference's, each with replacement, and
takes the 95 % interval of the difference of their IQMs; the check fails
when that whole interval lies below minus the reference's margin. The
learning curves are bimodal over seeds (a seed mostly learns or mostly does
not), so ten seeds resolve only large drops: see ROADMAP item 12 for what the
gate can and cannot tell apart. From the repository root::

    PYTHONPATH=src python tests/gate.py           # judge this tree; exit 0 on pass, 1 on fail
    PYTHONPATH=src python tests/gate.py --write   # regenerate tests/gate.json

At the default schedule a seed takes about a minute; the gate trains two at
a time, so a run takes about ten minutes on two cores. Each worker runs BLAS
on one thread (:func:`worker_pool`), as the benchmark does: two workers each
running a thread per core contend, and a guided seed took about four times
as long.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT, ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from golden import platform_fingerprint  # noqa: E402
from guided_ddpg.ddpg import DdpgHyper  # noqa: E402
from guided_ddpg.envs import InsertionEnvConfig  # noqa: E402
from guided_ddpg.guided import TrainConfig, train  # noqa: E402
from guided_ddpg.harness import SUCCESS_THRESHOLD, final_evaluation, pure_ddpg_config  # noqa: E402
from guided_ddpg.trajopt import SupervisorConfig  # noqa: E402
from perfbench.run import THREAD_ENV  # noqa: E402

REFERENCE = Path(__file__).with_name("gate.json")
MARGIN = 0.0  # a check fails when its whole difference interval lies below -margin; --write stores it
ARMS = ("guided", "pure")
FIGURES = ("auc", "final", "to_0.5", "to_0.9")
JUDGED = ("auc", "final")  # the figures the verdict checks, in each arm
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0x6A7E


@dataclass(frozen=True)
class Schedule:
    seeds: tuple[int, ...]
    config: TrainConfig
    final_episodes: int


SCHEDULES = {
    "default": Schedule(seeds=tuple(range(10)), config=TrainConfig(epochs=8), final_episodes=50),
    # a few seconds in all: the smoke test's shape
    "tiny": Schedule(
        seeds=(0, 1),
        config=TrainConfig(
            env=InsertionEnvConfig(horizon=6),
            hyper=DdpgHyper(batch_size=8, supervision_batch_size=8, actor_hidden=(8,), critic_hidden=(8,)),
            supervisor=SupervisorConfig(samples_per_subiter=3),
            epochs=2, n_ddpg=2, n_inc=1, n_trajopt=1, eval_every=1, eval_episodes=3,
        ),
        final_episodes=5,
    ),
}


def run_seed(schedule_name: str, arm: str, seed: int) -> dict:
    """Train one arm on one seed and read its figures."""
    schedule = SCHEDULES[schedule_name]
    config = replace(schedule.config, seed=seed)
    if arm == "pure":
        config = pure_ddpg_config(config)
    t0 = time.perf_counter()
    nets, log = train(config)
    wall = time.perf_counter() - t0
    final = final_evaluation(nets, config, schedule.final_episodes)
    supervised = log.episodes_by_phase("supervised")
    return {
        "seed": seed,
        "auc": float(np.mean([ev.success_rate for ev in log.evals])) if log.evals else 0.0,
        "final": final.success_rate,
        "to_0.5": log.rollouts_to_threshold(0.5),
        "to_0.9": log.rollouts_to_threshold(SUCCESS_THRESHOLD),
        "budget": len(log.episodes_by_phase("ddpg")),
        "degraded": sum(rec.status == "degraded" for rec in log.epochs),
        "supervised_successes": sum(e.success for e in supervised),
        "supervised_episodes": len(supervised),
        "wall_s": round(wall, 1),
    }


def iqm(values: np.ndarray) -> np.ndarray:
    """Interquartile mean along the last axis: the mean of the middle half, a quarter cut from each end."""
    values = np.sort(values, axis=-1)
    n = values.shape[-1]
    cut = n // 4
    return values[..., cut:n - cut].mean(axis=-1)


def resampled_iqms(values, rng: np.random.Generator) -> np.ndarray:
    """The IQMs of :data:`BOOTSTRAP_RESAMPLES` resamples of ``values`` with replacement (one stratum)."""
    values = np.asarray(values, dtype=float)
    return iqm(values[rng.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))])


def bootstrap_ci(values, rng: np.random.Generator) -> list:
    """95 % percentile interval of the IQM over seeds resampled with replacement."""
    low, high = np.quantile(resampled_iqms(values, rng), [0.025, 0.975])
    return [float(low), float(high)]


def difference_ci(values, reference_values, rng: np.random.Generator) -> list:
    """95 % percentile interval of ``IQM(values) - IQM(reference_values)``, each side's seeds resampled."""
    low, high = np.quantile(resampled_iqms(values, rng) - resampled_iqms(reference_values, rng), [0.025, 0.975])
    return [float(low), float(high)]


def aggregate(rows: list) -> dict:
    """IQM and bootstrap interval of each figure over seeds; a censored seed counts at its budget."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    out = {}
    for figure in FIGURES:
        values = [row["budget"] if row[figure] is None else row[figure] for row in rows]
        out[figure] = {"iqm": float(iqm(np.asarray(values, dtype=float))), "ci": bootstrap_ci(values, rng)}
        if figure.startswith("to_"):
            out[figure]["reached"] = sum(row[figure] is not None for row in rows)
    out["degraded"] = sum(row["degraded"] for row in rows)
    out["supervised"] = {"successes": sum(row["supervised_successes"] for row in rows),
                         "episodes": sum(row["supervised_episodes"] for row in rows)}
    return out


@contextmanager
def worker_pool(max_workers: int):
    """A process pool whose workers run BLAS on one thread.

    OpenBLAS reads its thread count once, when it loads, so the workers are
    spawned, not forked from this process's loaded numpy, with ``THREAD_ENV``
    set; this process's environment is restored when the pool has shut down.
    """
    saved = {name: os.environ.get(name) for name in THREAD_ENV}
    os.environ.update(THREAD_ENV)
    try:
        with ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_gate(schedule_name: str) -> dict:
    """Every arm on every seed of the schedule, two at a time, per seed and aggregated."""
    tasks = [(schedule_name, arm, seed) for arm in ARMS for seed in SCHEDULES[schedule_name].seeds]
    with worker_pool(min(2, len(tasks))) as pool:
        rows = list(pool.map(run_seed, *zip(*tasks)))
    arms = {}
    for arm in ARMS:
        per_seed = [row for task, row in zip(tasks, rows) if task[1] == arm]
        arms[arm] = {"per_seed": per_seed, "aggregate": aggregate(per_seed)}
    return {"schedule": schedule_name, "seeds": list(SCHEDULES[schedule_name].seeds), "margin": MARGIN,
            "platform": platform_fingerprint(), "arms": arms}


def verdict(result: dict, reference: dict) -> tuple[bool, list]:
    """Pass or fail of ``result`` against ``reference``, with a line per check that says why.

    Each arm's AUC and final success is a check. A check fails when the whole
    95 % interval of its IQM difference from the reference lies below minus
    the reference's margin: the two sets of seeds then show a drop past it.
    """
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    margin = reference["margin"]
    passed, lines = True, []
    for arm in ARMS:
        for figure in JUDGED:
            got, ref = ([row[figure] for row in run["arms"][arm]["per_seed"]] for run in (result, reference))
            low, high = difference_ci(got, ref, rng)
            holds = high >= -margin
            passed = passed and holds
            lines.append(f"{arm} {figure}: IQM {iqm(np.asarray(got)):.3f} against the reference's "
                         f"{iqm(np.asarray(ref)):.3f}, difference 95 % CI {low:+.3f} to {high:+.3f}: "
                         + ("holds" if holds else f"lower by more than the margin {margin}"))
    return passed, lines


def separation(result: dict) -> str:
    guided, pure = (result["arms"][arm]["aggregate"]["auc"]["ci"] for arm in ARMS)
    if guided[0] > pure[1]:
        return "guided above pure"
    if pure[0] > guided[1]:
        return "pure above guided"
    return "the arms' intervals overlap"


def report(result: dict) -> str:
    lines = []
    for arm in ARMS:
        data = result["arms"][arm]
        agg = data["aggregate"]
        lines.append(f"{arm}:")
        for row in data["per_seed"]:
            lines.append(f"  seed {row['seed']}: auc {row['auc']:.3f}  final {row['final']:.2f}  "
                         f"to_0.5 {row['to_0.5']}  to_0.9 {row['to_0.9']}  degraded {row['degraded']}  "
                         f"supervised {row['supervised_successes']}/{row['supervised_episodes']}  "
                         f"{row['wall_s']} s")
        for figure in FIGURES:
            reached = f"  reached on {agg[figure]['reached']} of {len(data['per_seed'])}" \
                if "reached" in agg[figure] else ""
            lines.append(f"  {figure}: IQM {agg[figure]['iqm']:.3f}, 95 % CI "
                         f"{agg[figure]['ci'][0]:.3f}-{agg[figure]['ci'][1]:.3f}{reached}")
        lines.append(f"  degraded epochs {agg['degraded']}, supervisor's own success "
                     f"{agg['supervised']['successes']} of {agg['supervised']['episodes']}")
    lines.append(f"AUC: {separation(result)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store this tree's figures as the reference")
    parser.add_argument("--schedule", choices=sorted(SCHEDULES), default="default")
    args = parser.parse_args(argv)
    reference = None
    if not args.write:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if reference["schedule"] != args.schedule or reference["seeds"] != list(SCHEDULES[args.schedule].seeds):
            print(f"{REFERENCE} holds schedule {reference['schedule']!r} on seeds {reference['seeds']}, "
                  f"not {args.schedule!r}")
            return 2
    result = run_gate(args.schedule)
    print(report(result))
    if args.write:
        REFERENCE.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote the reference to {REFERENCE}")
        return 0
    if reference["platform"] != result["platform"]:
        print(f"note: the reference was made on another platform: {reference['platform']}")
    passed, lines = verdict(result, reference)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
