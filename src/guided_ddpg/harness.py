"""Experiment runner: spec files, multi-seed training, evaluation, sweeps.

A spec is a flat ``key = value`` file in the format :func:`read_config`
documents. Training writes one directory per seed (deterministic
``training_log.csv`` and ``supervisor_diag.csv``, ``timings.csv``, the actor
and critic in ``checkpoint.json``, ``summary.json``) plus, over seeds, the
deterministic ``learning_curves.csv`` and the medians in ``aggregate.json``.
Evaluation and adaptability sweeps (``sweep.csv``) run from checkpoints
without touching any training state.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .ddpg import DdpgHyper
from .envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig
from .exceptions import ConfigurationError, SpecError
from .guided import TrainConfig, TrainingLog, evaluate_policy, evaluation_arrays, train, write_table
from .nets import MlpParams, mlp_from_dict, mlp_to_dict, param_count
from .replay import SUPERVISION_ROW_WIDTH, TRANSITION_ROW_WIDTH, transition_buffer
from .trajopt import SupervisorConfig

ALGORITHMS = ("guided_ddpg", "pure_ddpg")

CSV_SCHEMA_VERSION = 1

SUCCESS_THRESHOLD = 0.9  # evaluation success rate at which a seed's rollouts-to-threshold is read


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
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            # a repeated seed would overwrite its own artifacts and count twice in the medians
            raise SpecError(f"seeds must be non-empty, distinct and >= 0, got {self.seeds}")
        if self.eval_episodes < 1:
            raise SpecError("eval_episodes must be >= 1")


# The config classes a spec sets, each with the fields it cannot set: the
# nested configs, and ``seed``, which each entry of ``seeds`` overrides.
SPEC_SECTIONS = (
    ("spec", ExperimentSpec, ("train",)),
    ("train", TrainConfig, ("env", "hyper", "supervisor", "seed")),
    ("env", InsertionEnvConfig, ()),
    ("hyper", DdpgHyper, ()),
    ("supervisor", SupervisorConfig, ()),
)


def config_keys(sections) -> dict:
    """Map each key of a config file over ``sections`` to ``(class, field, type)``."""
    keys: dict = {}
    for section, cls, skipped in sections:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.init and f.name not in skipped:
                keys[f"{section}_{f.name}" if f.name in keys else f.name] = (cls, f, hints[f.name])
    return keys


def _parse_value(text: str, hint):
    if get_origin(hint) in (Union, UnionType):
        (hint,) = (arg for arg in get_args(hint) if arg is not NoneType)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        items = tuple(_parse_value(x.strip(), args[0]) for x in text.split(",") if x.strip())
        if args[-1] is Ellipsis:
            return items
        if len(items) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated numbers, got {text!r}")
        return items
    if hint is float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value
    if hint in (int, str):
        return hint(text)
    raise TypeError(f"no reader for fields of type {hint}")


def read_config(path, sections) -> dict:
    """Read a ``key = value`` file into ``{config class: {field: value}}``.

    This is the one format of experiment specs (:func:`parse_spec`) and
    environment files (:func:`load_env_config`):

    - UTF-8 text with one ``key = value`` per line. ``#`` starts a comment;
      blank lines are skipped. Units are SI.
    - The keys are the field names of the config classes in ``sections``,
      without the fields a section lists as not settable. A name that an
      earlier section already uses gets its section's prefix, so
      ``TrainConfig.eval_episodes`` is written ``train_eval_episodes``.
      A key left out keeps its field's default; a field with no default must
      be given. No key may be given twice.
    - A value is parsed by its field's type annotation: ``int``; ``float``,
      which must be finite; ``str`` as written; ``tuple[T, ...]`` as
      comma-separated items, possibly none; ``Optional[T]`` as ``T``; and a
      pair, the point ``target_point``, as two comma-separated numbers.
    - The methods' numerical settings are constants of
      :mod:`guided_ddpg.trajopt`, :mod:`guided_ddpg.ddpg`,
      :mod:`guided_ddpg.nets`, :mod:`guided_ddpg.guided` and
      :mod:`guided_ddpg.harness`, and the simulator's physics are class
      constants of :class:`InsertionEnvConfig`, not keys: a file that sets
      one, such as ``terminal_weight``, ``discount`` or ``mass``, has an
      unknown key.

    Every problem in the file is reported in one :class:`SpecError`, each
    with its line number; a missing file stays an ``OSError``.
    """
    keys = config_keys(sections)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8 text: {exc}") from exc
    values: dict = {cls: {} for _, cls, _ in sections}
    problems = []
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
        elif key not in keys:
            problems.append(f"line {lineno}: unknown key {key!r}")
        elif key in first_line:
            problems.append(f"line {lineno}: key {key!r} already given on line {first_line[key]}")
        else:
            first_line[key] = lineno
            cls, f, hint = keys[key]
            try:
                values[cls][f.name] = _parse_value(value, hint)
            except ValueError as exc:
                problems.append(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, (cls, f, _) in keys.items():
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values[cls]:
            problems.append(f"missing required key {key!r}")
    if problems:
        raise SpecError(f"invalid config {path}:\n  " + "\n  ".join(problems))
    return values


def parse_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment spec: a :func:`read_config` file over :data:`SPEC_SECTIONS`."""
    values = read_config(path, SPEC_SECTIONS)
    try:
        env = InsertionEnvConfig(**values[InsertionEnvConfig])
        hyper = DdpgHyper.for_env(env, **values[DdpgHyper])
        supervisor = SupervisorConfig(**values[SupervisorConfig])
        config = TrainConfig(env=env, hyper=hyper, supervisor=supervisor, **values[TrainConfig])
        return ExperimentSpec(train=config, **values[ExperimentSpec])
    except (ValueError, TypeError) as exc:
        raise SpecError(f"invalid spec {path}: {exc}") from exc


def load_env_config(path) -> InsertionEnvConfig:
    """Read an environment file: a :func:`read_config` file over the fields of :class:`InsertionEnvConfig`."""
    return InsertionEnvConfig(**read_config(path, [("env", InsertionEnvConfig, ())])[InsertionEnvConfig])


def pure_ddpg_config(config: TrainConfig) -> TrainConfig:
    """Strip supervision: no optimizer epochs and zero supervision weight."""
    hyper = replace(config.hyper, supervision_decay=0.0)
    return replace(config, hyper=hyper, n_trajopt=0)


def save_agent_checkpoint(path, nets, hyper: DdpgHyper) -> None:
    """Write the actor and critic, with the nets' constant input scaling, as JSON.

    The target nets are left out: :func:`load_agent_checkpoint` reads only
    the actor, and nothing reads the targets. A version-1 file that also holds
    ``target_actor`` and ``target_critic`` still loads.
    """
    payload = {
        "format": "agent-checkpoint",
        "version": 1,
        "action_bound": hyper.action_bound,
        "obs_scale": hyper.obs_scale_array.tolist(),
        "actor": mlp_to_dict(nets.actor),
        "critic": mlp_to_dict(nets.critic),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _read_json(path):
    """The value in a JSON file; :class:`SpecError` if it is not UTF-8 JSON or nests too deep to parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))  # a missing file stays an OSError
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number; ``true`` compares equal to 1 but is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_agent_checkpoint(path) -> tuple[MlpParams, DdpgHyper]:
    """Load the greedy policy: the actor, and ``DdpgHyper()``, whose scaling it runs under.

    Raises :class:`SpecError` for a file that is not a well-formed agent checkpoint, or whose
    ``action_bound`` and ``obs_scale`` are not numbers equal to :class:`DdpgHyper`'s constants.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "agent-checkpoint" or payload.get("version") != 1:
        raise SpecError(f"unrecognized checkpoint header in {path}")
    missing = [key for key in ("action_bound", "obs_scale", "actor") if key not in payload]
    if missing:
        raise SpecError(f"checkpoint {path} lacks {missing}")
    actor = mlp_from_dict(payload["actor"])
    if actor.input_dim != STATE_DIM or actor.output_dim != ACTION_DIM:
        raise SpecError(f"checkpoint {path}: actor layer sizes {list(actor.layer_sizes)} do not map "
                        f"{STATE_DIM} state entries to {ACTION_DIM} action entries")
    hyper = DdpgHyper()
    bound, scale, constant = payload["action_bound"], payload["obs_scale"], hyper.obs_scale_array.tolist()
    if not (_is_number(bound) and bound == hyper.action_bound
            and isinstance(scale, list) and all(map(_is_number, scale)) and scale == constant):
        raise SpecError(f"checkpoint {path}: action_bound {bound!r} and obs_scale {scale!r} differ from "
                        f"the nets' constant scaling, {hyper.action_bound!r} and {constant!r}")
    return actor, hyper


def _write_learning_curves(out: Path, logs: dict) -> None:
    """Median/IQR of evaluation success over seeds, on the shared n_roll grid."""
    by_n_roll: dict = {}  # n_roll -> the evaluations at it, in seed order
    for log in logs.values():
        for ev in log.evals:
            by_n_roll.setdefault(ev.n_roll, []).append(ev)
    rows = []
    for n_roll in sorted(by_n_roll):
        succ = [ev.success_rate for ev in by_n_roll[n_roll]]
        rets = [ev.mean_return for ev in by_n_roll[n_roll]]
        rows.append([
            n_roll, len(succ),
            repr(float(np.median(succ))), repr(float(np.quantile(succ, 0.25))),
            repr(float(np.quantile(succ, 0.75))), repr(float(np.median(rets))),
        ])
    write_table(out, ["n_roll", "n_seeds", "success_median", "success_q25", "success_q75", "return_median"], rows)


def _median_or_none(values: list) -> Optional[float]:
    usable = [v for v in values if v is not None]
    return float(np.median(usable)) if len(usable) == len(values) and values else None


def _size_run(spec: ExperimentSpec) -> None:
    """Allocate and drop each array whose size the spec sets, so that a run that cannot fit fails before
    ``--out`` is made: the ``r2`` ring, the nets, a sample batch of each ring, an epoch's supervisor
    rollouts, the pointer array of the log's list of epochs and exploratory episodes, and the evaluation
    arrays. Raises :class:`ConfigurationError`, or :class:`InputError` for the evaluation arrays."""
    config, hyper, epochs = spec.train, spec.train.hyper, spec.train.epochs
    transition_buffer(config.r2_capacity)
    shapes = {
        "the nets": (param_count([STATE_DIM, *hyper.actor_hidden, ACTION_DIM])
                     + param_count([STATE_DIM + ACTION_DIM, *hyper.critic_hidden, 1]),),
        "a batch_size batch": (hyper.batch_size, TRANSITION_ROW_WIDTH),
        "a supervision_batch_size batch": (hyper.supervision_batch_size, SUPERVISION_ROW_WIDTH),
        "an epoch's supervisor rollouts": (config.n_trajopt * config.supervisor.samples_per_subiter,
                                           config.env.horizon + 1, STATE_DIM),
        "the log's epochs and exploratory episodes": (epochs * (1 + config.n_ddpg)
                                                      + config.n_inc * (epochs * (epochs - 1) // 2),),
    }
    for what, shape in shapes.items():
        try:
            np.empty(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: a dimension numpy cannot index
            raise ConfigurationError(f"{what}: an array of shape {shape} does not fit in memory") from exc
    evaluation_arrays(config.env, spec.eval_episodes)
    if config.eval_every > 0:
        evaluation_arrays(config.env, config.eval_episodes)


def run_experiment(spec_path, out_dir) -> Path:
    """Train every seed in the spec and write per-seed plus aggregate artifacts."""
    spec = parse_spec(spec_path)
    _size_run(spec)
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
        to_threshold = log.rollouts_to_threshold(SUCCESS_THRESHOLD)
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
    return out


def _write_supervisor_diagnostics(path, log: TrainingLog) -> None:
    rows = []
    for rec in log.epochs:
        if not rec.diagnostics:
            rows.append([rec.epoch, rec.status, "", "", "", "", "", "", "", rec.detail])
        for diag in rec.diagnostics:
            rows.append([
                rec.epoch, rec.status, diag.subiter, repr(diag.eta), repr(diag.epsilon),
                repr(diag.achieved_kl), repr(diag.expected_improvement),
                repr(diag.actual_improvement), repr(diag.mean_sample_cost), diag.status,
            ])
    write_table(path, ["epoch", "status", "subiter", "eta", "epsilon", "achieved_kl", "expected_improvement",
                       "actual_improvement", "mean_sample_cost", "dual_status"], rows)


_COMPARISON_COLUMNS = ("algorithm", "median_rollouts_to_threshold", "median_wall_clock_s",
                       "median_final_success_rate")


def _write_comparison(path, aggregates: list) -> None:
    write_table(path, _COMPARISON_COLUMNS, (
        [agg["algorithm"], agg["median_rollouts_to_threshold"],
         f"{agg['median_wall_clock_s']:.2f}", agg["median_final_success_rate"]]
        for agg in aggregates
    ))


def _read_aggregate(run_dir) -> dict:
    path = Path(run_dir) / "aggregate.json"
    agg = _read_json(path)
    missing = [key for key in _COMPARISON_COLUMNS if not isinstance(agg, dict) or key not in agg]
    if missing:
        raise SpecError(f"{path} lacks {missing}")
    for key in _COMPARISON_COLUMNS[1:]:
        value = agg[key]
        rate = key == "median_final_success_rate"
        high = 1.0 if rate else np.finfo(float).max  # which rejects inf and integers past it, such as 10**400
        in_range = _is_number(value) and 0.0 <= value <= high
        if not (in_range or (value is None and key == "median_rollouts_to_threshold")):
            raise SpecError(f"{path}: {key} must be {'in [0, 1]' if rate else 'a finite number >= 0'}, got {value!r}")
    return agg


def compare_runs(dir_a, dir_b, out_path) -> dict:
    """Merge two aggregate results into one table; a malformed ``aggregate.json`` raises :class:`SpecError`.

    The directory of ``out_path`` is made only once both aggregates are read.
    """
    rows = [_read_aggregate(dir_a), _read_aggregate(dir_b)]
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    _write_comparison(out_path, rows)
    a, b = (row["median_rollouts_to_threshold"] for row in rows)
    ratio = a / b if a is not None and b else None  # None when either median is None or B's is 0
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
    child of ``SeedSequence(seed)``. The directory of ``out_path`` is made
    only once every cell is evaluated, so a sweep that fails leaves none.
    """
    actor, hyper = load_agent_checkpoint(checkpoint_path)
    clearances = clearances or (env.clearance,)
    hole_offsets = hole_offsets or (env.hole_center_offset,)
    cell_seeds = iter(np.random.SeedSequence(seed).spawn(len(clearances) * len(hole_offsets)))
    rows = []
    for clearance in clearances:
        for offset in hole_offsets:
            sub_env = replace(env, hole_half_width=env.peg_half_width + clearance, hole_center_offset=offset)
            metrics = evaluate_policy(actor, hyper, sub_env, n_episodes, next(cell_seeds))
            rows.append({
                "clearance": clearance,
                "hole_offset": offset,
                "success_rate": metrics.success_rate,
                "mean_return": metrics.mean_return,
                "mean_steps": metrics.mean_steps,
            })
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["clearance_m", "hole_offset_m", "success_rate", "mean_return", "mean_steps"],
                ([repr(float(value)) for value in row.values()] for row in rows))
    return rows
