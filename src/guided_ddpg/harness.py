"""Experiment runner: spec files, multi-seed training, evaluation, sweeps.

A spec is a flat ``key = value`` file (SI units, ``#`` comments). Training
artifacts are one directory per seed (deterministic log CSV, timings CSV,
checkpoint, summary JSON) plus aggregate learning curves and a comparison
table over seeds. Evaluation and adaptability sweeps run from checkpoints
without touching any training state.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .ddpg import DdpgHyper
from .envs import InsertionEnvConfig
from .exceptions import SpecError
from .guided import TrainConfig, TrainingLog, evaluate_policy, train
from .nets import MlpParams, mlp_from_dict, mlp_to_dict
from .trajopt import SupervisorConfig

ALGORITHMS = ("guided_ddpg", "pure_ddpg")

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    algorithm: str
    train: TrainConfig
    seeds: tuple[int, ...]
    eval_episodes: int = 50
    sweep_clearances: tuple[float, ...] = ()
    sweep_hole_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise SpecError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise SpecError(f"seeds must be non-empty and >= 0, got {self.seeds}")
        if self.eval_episodes < 1:
            raise SpecError("eval_episodes must be >= 1")


def _parse_int(v: str) -> int:
    return int(v)


def _parse_float(v: str) -> float:
    return float(v)


def _parse_bool(v: str) -> bool:
    lowered = v.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {v!r}")


def _parse_int_list(v: str) -> tuple[int, ...]:
    return tuple(int(x) for x in v.split(",") if x.strip())


def _parse_float_list(v: str) -> tuple[float, ...]:
    return tuple(float(x) for x in v.split(",") if x.strip())


def _parse_float_pair(v: str) -> tuple[float, float]:
    parts = _parse_float_list(v)
    if len(parts) == 1:
        return (parts[0], parts[0])
    if len(parts) != 2:
        raise ValueError("expected one or two comma-separated numbers")
    return parts  # type: ignore[return-value]


# key -> (section, field, parser). Sections: spec, train, env, hyper, supervisor.
_SPEC_KEYS: dict = {}


def _register(section: str, names: dict) -> None:
    for key, parser in names.items():
        _SPEC_KEYS[key] = (section, key, parser)


_register("spec", {
    "algorithm": str,
    "seeds": _parse_int_list,
    "eval_episodes": _parse_int,
    "sweep_clearances": _parse_float_list,
    "sweep_hole_offsets": _parse_float_list,
})
_register("train", {
    "epochs": _parse_int, "n_ddpg": _parse_int, "n_inc": _parse_int, "n_trajopt": _parse_int,
    "r1_capacity": _parse_int, "r2_capacity": _parse_int, "seed": _parse_int,
    "eval_every": _parse_int, "train_eval_episodes": _parse_int,
    "success_threshold": _parse_float, "stop_at_threshold": _parse_bool,
    "max_rollouts": _parse_int, "kl_step": _parse_float, "eta_init": _parse_float,
})
_register("env", {
    "peg_half_width": _parse_float, "hole_half_width": _parse_float, "hole_depth": _parse_float,
    "hole_center_offset": _parse_float, "wall_stiffness": _parse_float, "wall_damping": _parse_float,
    "mass": _parse_float, "dt": _parse_float, "horizon": _parse_int, "action_bound": _parse_float,
    "start_height": _parse_float, "reset_range": _parse_float, "action_cost_weight": _parse_float,
    "workspace_half_width": _parse_float, "workspace_height": _parse_float,
    "success_tolerance": _parse_float,
})
_register("hyper", {
    "discount": _parse_float, "target_rate": _parse_float, "batch_size": _parse_int,
    "supervision_batch_size": _parse_int, "supervision_decay": _parse_float,
    "actor_lr": _parse_float, "critic_lr": _parse_float,
    "actor_hidden": _parse_int_list, "critic_hidden": _parse_int_list,
    "noise_scale": _parse_float_pair, "noise_theta": _parse_float, "noise_dt": _parse_float,
})
_register("supervisor", {
    "samples_per_subiter": _parse_int, "exploration_std": _parse_float_pair,
    "dynamics_reg": _parse_float, "smoothing": _parse_float,
    "terminal_weight": _parse_float, "max_dual_iterations": _parse_int,
})


def parse_spec(path) -> ExperimentSpec:
    """Parse and validate a flat key-value experiment spec."""
    sections: dict = {"spec": {}, "train": {}, "env": {}, "hyper": {}, "supervisor": {}}
    problems = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SPEC_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        section, name, parser = _SPEC_KEYS[key]
        try:
            sections[section][name] = parser(value)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key!r}: {exc}")
    if "algorithm" not in sections["spec"]:
        problems.append("missing required key 'algorithm'")
    if "seeds" not in sections["spec"]:
        problems.append("missing required key 'seeds'")
    if problems:
        raise SpecError(f"invalid spec {path}:\n  " + "\n  ".join(problems))

    try:
        env = InsertionEnvConfig(**sections["env"])
        hyper = DdpgHyper.for_env(env, **sections["hyper"])
        supervisor = SupervisorConfig(**sections["supervisor"])
        train_kwargs = dict(sections["train"])
        if "train_eval_episodes" in train_kwargs:
            train_kwargs["eval_episodes"] = train_kwargs.pop("train_eval_episodes")
        config = TrainConfig(env=env, hyper=hyper, supervisor=supervisor, **train_kwargs)
        spec = ExperimentSpec(train=config, **sections["spec"])
    except (ValueError, TypeError) as exc:
        raise SpecError(f"invalid spec {path}: {exc}") from exc
    return spec


def pure_ddpg_config(config: TrainConfig) -> TrainConfig:
    """Strip supervision: no optimizer epochs and zero supervision weight."""
    hyper = replace(config.hyper, supervision_decay=0.0)
    return replace(config, hyper=hyper, n_trajopt=0)


def save_agent_checkpoint(path, nets, hyper: DdpgHyper) -> None:
    payload = {
        "format": "agent-checkpoint",
        "version": 1,
        "action_bound": hyper.action_bound,
        "obs_scale": list(hyper.obs_scale),
        "actor": mlp_to_dict(nets.actor),
        "critic": mlp_to_dict(nets.critic),
        "target_actor": mlp_to_dict(nets.target_actor),
        "target_critic": mlp_to_dict(nets.target_critic),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_agent_checkpoint(path) -> tuple[MlpParams, DdpgHyper]:
    """Load the greedy policy: actor parameters plus the scaling it was trained with.

    Raises :class:`SpecError` for a file that is not a well-formed agent checkpoint.
    """
    text = Path(path).read_text(encoding="utf-8")  # a missing file stays an OSError
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise SpecError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "agent-checkpoint" or payload.get("version") != 1:
        raise SpecError(f"unrecognized checkpoint header in {path}")
    missing = [key for key in ("action_bound", "obs_scale", "actor") if key not in payload]
    if missing:
        raise SpecError(f"checkpoint {path} lacks {missing}")
    actor = mlp_from_dict(payload["actor"])
    try:
        hyper = DdpgHyper(action_bound=float(payload["action_bound"]),
                          obs_scale=tuple(float(s) for s in payload["obs_scale"]))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"checkpoint {path}: bad action_bound or obs_scale: {exc}") from exc
    if len(hyper.obs_scale) != actor.input_dim or not hyper.action_bound > 0.0:
        raise SpecError(f"checkpoint {path}: obs_scale needs {actor.input_dim} entries and action_bound must be > 0")
    return actor, hyper


def _write_learning_curves(out: Path, logs: dict) -> None:
    """Median/IQR of evaluation success over seeds, on the shared n_roll grid."""
    grid = sorted({ev.n_roll for log in logs.values() for ev in log.evals})
    with open(out, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_roll", "n_seeds", "success_median", "success_q25", "success_q75",
                         "return_median"])
        for n_roll in grid:
            succ = []
            rets = []
            for log in logs.values():
                for ev in log.evals:
                    if ev.n_roll == n_roll:
                        succ.append(ev.success_rate)
                        rets.append(ev.mean_return)
            writer.writerow([
                n_roll, len(succ),
                repr(float(np.median(succ))), repr(float(np.quantile(succ, 0.25))),
                repr(float(np.quantile(succ, 0.75))), repr(float(np.median(rets))),
            ])


def _median_or_none(values: list) -> Optional[float]:
    usable = [v for v in values if v is not None]
    return float(np.median(usable)) if len(usable) == len(values) and values else None


def run_experiment(spec_path, out_dir) -> Path:
    """Train every seed in the spec and write per-seed plus aggregate artifacts."""
    spec = parse_spec(spec_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    logs: dict = {}
    per_seed_rows = []
    for seed in spec.seeds:
        config = replace(spec.train, seed=seed)
        if spec.algorithm == "pure_ddpg":
            config = pure_ddpg_config(config)
        t0 = time.perf_counter()
        nets, log = train(config)
        wall = time.perf_counter() - t0

        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        log.write_csv(seed_dir / "training_log.csv")
        log.write_timings_csv(seed_dir / "timings.csv")
        save_agent_checkpoint(seed_dir / "checkpoint.json", nets, config.hyper)
        _write_supervisor_diagnostics(seed_dir / "supervisor_diag.csv", log)

        final_eval = evaluate_policy(nets.actor, config.hyper, config.env, spec.eval_episodes,
                                     [seed, 0xE7A1])
        to_threshold = log.rollouts_to_threshold(config.success_threshold)
        summary = {
            "algorithm": spec.algorithm,
            "seed": seed,
            "csv_schema_version": CSV_SCHEMA_VERSION,
            "episodes_total": len(log.episodes),
            "ddpg_episodes": len(log.episodes_by_phase("ddpg")),
            "rollouts_to_threshold": to_threshold,
            "final_success_rate": final_eval.success_rate,
            "final_mean_return": final_eval.mean_return,
            "wall_clock_s": wall,
            "r1_pushed": log.r1_pushed,
            "r2_pushed": log.r2_pushed,
        }
        (seed_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
        logs[seed] = log
        per_seed_rows.append(summary)

    _write_learning_curves(out / "learning_curves.csv", logs)
    aggregate = {
        "algorithm": spec.algorithm,
        "seeds": list(spec.seeds),
        "median_rollouts_to_threshold": _median_or_none([r["rollouts_to_threshold"] for r in per_seed_rows]),
        "median_final_success_rate": float(np.median([r["final_success_rate"] for r in per_seed_rows])),
        "median_wall_clock_s": float(np.median([r["wall_clock_s"] for r in per_seed_rows])),
        "per_seed": per_seed_rows,
    }
    (out / "aggregate.json").write_text(json.dumps(aggregate, indent=2), encoding="utf-8")
    with open(out / "comparison_table.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "median_rollouts_to_threshold", "median_wall_clock_s",
                         "median_final_success_rate"])
        writer.writerow([
            spec.algorithm,
            aggregate["median_rollouts_to_threshold"],
            f"{aggregate['median_wall_clock_s']:.2f}",
            aggregate["median_final_success_rate"],
        ])
    return out


def _write_supervisor_diagnostics(path, log: TrainingLog) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "status", "subiter", "eta", "epsilon", "achieved_kl",
                         "expected_improvement", "actual_improvement", "mean_sample_cost", "dual_status"])
        for rec in log.epochs:
            if not rec.diagnostics:
                writer.writerow([rec.epoch, rec.status, "", "", "", "", "", "", "", rec.detail])
            for diag in rec.diagnostics:
                writer.writerow([
                    rec.epoch, rec.status, diag.subiter, repr(diag.eta), repr(diag.epsilon),
                    repr(diag.achieved_kl), repr(diag.expected_improvement),
                    repr(diag.actual_improvement), repr(diag.mean_sample_cost), diag.status,
                ])


def compare_runs(dir_a, dir_b, out_path) -> dict:
    """Merge two aggregate results into one comparison table."""
    rows = []
    for d in (dir_a, dir_b):
        agg = json.loads((Path(d) / "aggregate.json").read_text(encoding="utf-8"))
        rows.append(agg)
    with open(out_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "median_rollouts_to_threshold", "median_wall_clock_s",
                         "median_final_success_rate"])
        for agg in rows:
            writer.writerow([
                agg["algorithm"], agg["median_rollouts_to_threshold"],
                f"{agg['median_wall_clock_s']:.2f}", agg["median_final_success_rate"],
            ])
    a, b = rows
    ratio = None
    if a["median_rollouts_to_threshold"] and b["median_rollouts_to_threshold"]:
        ratio = a["median_rollouts_to_threshold"] / b["median_rollouts_to_threshold"]
    return {"runs": rows, "rollouts_ratio_a_over_b": ratio}


def adaptability_sweep(
    checkpoint_path,
    env: InsertionEnvConfig,
    clearances: tuple[float, ...],
    hole_offsets: tuple[float, ...],
    n_episodes: int,
    seed: int,
    out_path,
) -> list:
    """Evaluate one trained policy across clearances and hole offsets.

    Clearances are absolute (hole half-width minus peg half-width, meters);
    offsets shift the true hole center while the policy stays fixed. Cell
    ``(i, j)`` draws its episodes from the ``i * len(hole_offsets) + j``-th
    child of ``SeedSequence(seed)``.
    """
    actor, hyper = load_agent_checkpoint(checkpoint_path)
    clearances = clearances or (env.clearance,)
    hole_offsets = hole_offsets or (env.hole_center_offset,)
    cell_seeds = iter(np.random.SeedSequence(seed).spawn(len(clearances) * len(hole_offsets)))
    rows = []
    for clearance in clearances:
        for offset in hole_offsets:
            extremes = dict(
                hole_half_width=env.peg_half_width + clearance,
                hole_center_offset=offset,
                success_tolerance=None,
                target_point=None,
            )
            sub_env = replace(env, **extremes)
            metrics = evaluate_policy(actor, hyper, sub_env, n_episodes, next(cell_seeds))
            rows.append({
                "clearance": clearance,
                "hole_offset": offset,
                "success_rate": metrics.success_rate,
                "mean_return": metrics.mean_return,
                "mean_steps": metrics.mean_steps,
            })
    with open(out_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clearance_m", "hole_offset_m", "success_rate", "mean_return", "mean_steps"])
        for row in rows:
            writer.writerow([
                repr(float(row["clearance"])), repr(float(row["hole_offset"])),
                repr(float(row["success_rate"])), repr(float(row["mean_return"])),
                repr(float(row["mean_steps"])),
            ])
    return rows
