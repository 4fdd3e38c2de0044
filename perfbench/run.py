"""Benchmark of the guided-DDPG package: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload guided_train --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats the workload untraced for about ``--seconds`` seconds
and prints the end-to-end metrics. ``--trace 1`` runs pairs of one untraced
and one traced repeat and prints the per-layer metrics, the tracing overhead
among them. The number of repeats follows from ``--seconds`` alone, so the
work of a run, and its failure count, depend only on the arguments. Training
repeats cycle through seeds derived from the bench seed; repeats of one seed
must produce the same checksums. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# One BLAS/OpenMP thread: at 64-wide layers extra threads gain nothing, and
# pinning keeps the figures independent of the machine's core count.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("guided_train", "pure_train", "eval_sweep")

SETUP_PROBES = 7

# Wall time of one untraced repeat on a 2-vCPU Xeon VM when the shared host is
# slow. A run makes round(seconds / REPEAT_S) repeats, at least two, whatever
# the machine's speed.
REPEAT_S = {"guided_train": 7.5, "pure_train": 7.0, "eval_sweep": 5.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TRAJOPT_STAGES = ("fit_dynamics", "linearize_policy", "quadratize", "update_trajectory",
                  "lqg_backward", "lqg_forward", "kl_divergence", "expected_cost")
UPDATES = ("ddpg.critic_update", "ddpg.critic_update_sup", "ddpg.actor_update", "ddpg.actor_update_sup")

PER_LAYER = {
    "updates_per_s": "1/s",
    "eval_episodes_per_s": "1/s",
    "failed_share": "share",
    "envs.env_step.calls": "count",
    "envs.env_step.us_p50": "us",
    "envs.env_step.us_p99": "us",
    "envs.rollout.ms_p50": "ms",
    "ddpg.policy_action.calls": "count",
    "ddpg.policy_action.us_p50": "us",
    **{f"{u}.{stat}": unit for u in UPDATES
       for stat, unit in (("calls", "count"), ("us_p50", "us"), ("us_p99", "us"))},
    "ddpg.target_update.calls": "count",
    "ddpg.target_update.us_p50": "us",
    "nets.adam_step.us_p50": "us",
    "nets.soft_update.us_p50": "us",
    "nets.mlp_backward.us_p50": "us",
    "replay.push.us_p50": "us",
    "replay.sample_rows.us_p50": "us",
    "replay.bytes_per_transition": "B",
    "replay.bytes_per_supervision_sample": "B",
    "trajopt.calls": "count",
    "trajopt.run_supervisor.s_per_epoch": "s",
    **{f"trajopt.{fn}.ms_p50": "ms" for fn in TRAJOPT_STAGES},
    "trajopt.update_trajectory.dual_iters": "count",
    "trajopt.update_trajectory.converged_ratio": "share",
    "trajopt.lqg_backward.npd_retries": "count",
    "guided.ddpg_block.self_s": "s",
    "guided.evaluate_policy.s": "s",
    "guided.supervisor_share": "share",
    "harness.save_agent_checkpoint.ms": "ms",
    "harness.load_agent_checkpoint.ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_probes(workload: str, seed: int, sizes_name: str, workdir: Path) -> list:
    """Set the workload up in fresh interpreters; the first, unmeasured, warms the bytecode cache."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    results = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload, str(seed), sizes_name, str(workdir)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results[1:]


def schedule(workload: str, seconds: float, trace: bool) -> list:
    """``(seed index, traced)`` per repeat.

    Untraced, ``n`` training repeats cycle through ``n - 1`` seeds, so the
    first seed runs twice and the determinism check always has a pair. Traced,
    each seed runs once untraced and once traced. ``eval_sweep`` has one seed.
    """
    n = max(2, round(seconds / REPEAT_S[workload]))
    if trace:
        plan = [(j, traced) for j in range(n // 2) for traced in (False, True)]
    else:
        plan = [(i % (n - 1), False) for i in range(n)]
    if workload == "eval_sweep":  # one fixed actor: every repeat is the same sweep
        plan = [(0, traced) for _, traced in plan]
    return plan


def measure(run_once, plan, tracer, speed):
    """Run the repeats of ``plan``, sampling host speed before each and after the last.

    Returns ``(seed index, traced, outcome)`` per repeat.
    """
    from perfbench.spans import ROOT_SPAN

    done = []
    for j, traced in plan:
        speed.sample()
        if traced:
            with tracer.installed(), tracer.span(ROOT_SPAN):
                done.append((j, True, run_once(j)))
        else:
            done.append((j, False, run_once(j)))
    speed.sample()
    return done


def replay_bytes(n: int = 4096) -> tuple[float, float]:
    """Bytes held per stored transition and per supervision sample, by tracemalloc."""
    import numpy as np
    from guided_ddpg.envs import Transition
    from guided_ddpg.replay import SupervisionSample, supervision_buffer, transition_buffer

    def held_per_item(make_buffer, make_item) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            buf = make_buffer(n)
            for i in range(n):
                buf.push(make_item(float(i)))
            return (tracemalloc.get_traced_memory()[0] - base) / n
        finally:
            tracemalloc.stop()

    per_transition = held_per_item(
        transition_buffer, lambda x: Transition(np.full(6, x), np.full(2, x), np.full(6, x + 1.0), -x, False))
    per_sample = held_per_item(
        supervision_buffer, lambda x: SupervisionSample(np.full(6, x), np.full(2, x), -x))
    return per_transition, per_sample


def _median_rate(outcomes, attr: str) -> float:
    return statistics.median(getattr(o, attr) / o.wall_s for o in outcomes)


def end_to_end_metrics(plain, probes, scale: float) -> dict:
    """Timings scaled to the reference host speed (see speed.py)."""
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes) * scale,
        "wall_s": statistics.median(o.wall_s for o in plain) * scale,
        "env_steps_per_s": _median_rate(plain, "env_steps") / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload: str, plain, traced, tracer, probes) -> dict:
    from perfbench.spans import SpanTable

    table = SpanTable(tracer)
    repeats = len(traced)
    us, ms = 1e6, 1e3
    outcomes = plain + traced
    traced_wall = sum(o.wall_s for o in traced)
    searches = table.calls("trajopt.update_trajectory")
    per_transition, per_sample = replay_bytes()
    values = {
        "updates_per_s": _median_rate(plain, "updates"),
        "eval_episodes_per_s": _median_rate(plain, "eval_episodes") if workload == "eval_sweep" else 0.0,
        "failed_share": sum(o.failed for o in outcomes) / sum(o.attempted for o in outcomes),
        "envs.env_step.calls": table.calls("envs.env_step") / repeats,
        "envs.env_step.us_p50": table.percentile_s("envs.env_step", 50) * us,
        "envs.env_step.us_p99": table.percentile_s("envs.env_step", 99) * us,
        "envs.rollout.ms_p50": table.percentile_s("envs.rollout", 50) * ms,
        "ddpg.policy_action.calls": table.calls("ddpg.policy_action") / repeats,
        "ddpg.policy_action.us_p50": table.percentile_s("ddpg.policy_action", 50) * us,
        "ddpg.target_update.calls": table.calls("ddpg.target_update") / repeats,
        "ddpg.target_update.us_p50": table.percentile_s("ddpg.target_update", 50) * us,
        "nets.adam_step.us_p50": table.percentile_s("nets.adam_step", 50) * us,
        "nets.soft_update.us_p50": table.percentile_s("nets.soft_update", 50) * us,
        "nets.mlp_backward.us_p50": table.percentile_s("nets.mlp_backward", 50) * us,
        "replay.push.us_p50": table.percentile_s("replay.push", 50) * us,
        "replay.sample_rows.us_p50": table.percentile_s("replay.sample_rows", 50) * us,
        "replay.bytes_per_transition": per_transition,
        "replay.bytes_per_supervision_sample": per_sample,
        "trajopt.calls": sum(table.calls(f"trajopt.{fn}") for fn in TRAJOPT_STAGES + ("run_supervisor",)) / repeats,
        "trajopt.run_supervisor.s_per_epoch": table.percentile_s("trajopt.run_supervisor", 50),
        "trajopt.update_trajectory.dual_iters": tracer.counts.get("trajopt.update_trajectory.dual_iters", 0) / repeats,
        "trajopt.update_trajectory.converged_ratio":
            tracer.counts.get("trajopt.update_trajectory.converged", 0) / searches if searches else 0.0,
        "trajopt.lqg_backward.npd_retries":
            table.errors("trajopt.lqg_backward", "NotPositiveDefiniteError") / repeats,
        "guided.ddpg_block.self_s": table.self_total_s("guided.ddpg_block") / repeats,
        "guided.evaluate_policy.s": table.total_s("guided.evaluate_policy") / repeats,
        "guided.supervisor_share": table.total_s("trajopt.run_supervisor") / traced_wall,
        "harness.save_agent_checkpoint.ms": statistics.median(p["save_s"] for p in probes) * ms,
        "harness.load_agent_checkpoint.ms": statistics.median(p["load_s"] for p in probes) * ms,
        "trace.overhead_pct":
            (statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0) * 100.0,
    }
    for name in UPDATES:
        values[f"{name}.calls"] = table.calls(name) / repeats
        values[f"{name}.us_p50"] = table.percentile_s(name, 50) * us
        values[f"{name}.us_p99"] = table.percentile_s(name, 99) * us
    for fn in TRAJOPT_STAGES:
        values[f"trajopt.{fn}.ms_p50"] = table.percentile_s(f"trajopt.{fn}", 50) * ms
    return values


def main(argv=None, sizes_name: str = "paper") -> int:
    args = parse_args(argv)
    if not (SRC / "guided_ddpg" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'guided_ddpg'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import guided_ddpg
    from perfbench import workloads
    from perfbench.spans import Tracer
    from perfbench.speed import SpeedProbe

    if Path(guided_ddpg.__file__).resolve().parent != SRC / "guided_ddpg":
        print(f"error: imported guided_ddpg from {guided_ddpg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        sizes = workloads.SIZES[sizes_name]
        speed = SpeedProbe()
        speed.sample()
        probes = run_probes(args.workload, args.seed, sizes_name, workdir)
        problems = []
        plan = schedule(args.workload, args.seconds, bool(args.trace))
        if args.workload == "eval_sweep":
            problems += workloads.reference_problems(
                sizes_name, workdir, json.loads(REFERENCE.read_text(encoding="utf-8")))
            setup = workloads.eval_setup(args.seed, sizes, workdir)
            seeds = [args.seed]
            run_once = lambda j: workloads.eval_once(setup)  # noqa: E731
        else:
            seeds = workloads.train_seeds(args.seed, 1 + max(j for j, _ in plan))
            configs = [workloads.train_config(args.workload, s, sizes) for s in seeds]
            run_once = lambda j: workloads.train_once(configs[j], workdir)  # noqa: E731

        tracer = Tracer() if args.trace else None
        done = measure(run_once, plan, tracer, speed)
        plain = [o for _, traced, o in done if not traced]
        traced = [o for _, traced, o in done if traced]
        outcomes = [o for _, _, o in done]
        checksums = {}
        for j, _, o in done:
            checksums.setdefault(seeds[j], []).append(o.checksums)
        for seed, sums in checksums.items():
            if any(c != sums[0] for c in sums):
                problems.append(f"repeats of one workload and seed {seed} disagree: " + json.dumps(sums))
        for o in outcomes:
            problems += [p for p in o.problems if p not in problems]

        if tracer is None:
            values, units = end_to_end_metrics(plain, probes, speed.scale()), END_TO_END
        else:
            values, units = per_layer_metrics(args.workload, plain, traced, tracer, probes), PER_LAYER
            tracer.write(WORK / f"trace_{args.workload}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload, "seed": args.seed, "sizes": sizes_name,
        "repeats_untraced": len(plain), "repeats_traced": len(traced),
        "seeds": [seeds[j] for j, _, _ in done], "walls_s": [o.wall_s for o in outcomes],
        "setups_s": [p["setup_s"] for p in probes], "speed_scale": speed.scale(),
        "checksums": {seed: sums[0] for seed, sums in checksums.items()},
        "summaries": [o.summary for o in outcomes], "problems": problems,
    }
    print("# " + json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.exit(main())
