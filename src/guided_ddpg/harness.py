"""Experiment runner: spec files, multi-seed training, evaluation, sweeps.

A spec is a flat ``key = value`` file in the format :func:`read_config`
documents. Training runs the seeds in one pool of spawned worker processes
and writes one directory per seed (deterministic ``training_log.csv`` and
``supervisor_diag.csv``, ``timings.csv``, the actor and critic in
``checkpoint.json``, the seed's figures in ``summary.json``) plus, over
seeds, the deterministic ``learning_curves.csv`` and ``aggregate.json``:
each seed's figures, or the reason it failed, and each figure's
interquartile mean (IQM) with a 95 % bootstrap interval. ``compare`` reads
two ``aggregate.json`` files and gives, per figure, the interval of the
difference of their IQMs. Evaluation and adaptability sweeps
(``sweep.csv``) run from checkpoints without touching any training state.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .ddpg import DdpgHyper
from .envs import ACTION_DIM, STATE_DIM, InsertionEnvConfig
from .exceptions import InputError, NumericalError, fits_in_memory
from .guided import STREAM_FINAL_EVAL, TrainConfig, TrainingLog, evaluate_policy, evaluation_arrays, train, write_table
from .nets import MlpParams, as_float64, is_json_number, mlp_from_dict, mlp_to_dict, param_count
from .replay import SUPERVISION_ROW_WIDTH, TRANSITION_ROW_WIDTH, transition_buffer
from .trajopt import SupervisorConfig

CSV_SCHEMA_VERSION = 1

SUCCESS_THRESHOLD = 0.9  # evaluation success rate at which a seed's rollouts-to-threshold, to_0.9, is read

FIGURES = ("auc", "final", "to_0.5", "to_0.9")  # the per-seed figures aggregated by IQM and compared
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0x6A7E

# BLAS on one thread in each worker: two workers that each ran a thread per core contended, and a guided
# seed took about four times as long
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class ExperimentSpec:
    train: TrainConfig
    seeds: tuple[int, ...]
    eval_episodes: int = 50
    sweep_clearances: tuple[float, ...] = ()
    sweep_hole_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            # a repeated seed would overwrite its own artifacts and count twice in the IQMs
            raise InputError(f"seeds must be non-empty, distinct and >= 0, got {self.seeds}")
        if self.eval_episodes < 1:
            raise InputError("eval_episodes must be >= 1")


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
    if get_origin(hint) is UnionType:
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
    if hint is int:
        return int(text)
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
      which must be finite; ``tuple[T, ...]`` as comma-separated items,
      possibly none; ``T | None`` as ``T``; and a pair, the point
      ``target_point``, as two comma-separated numbers.
    - The methods' numerical settings are constants of
      :mod:`guided_ddpg.trajopt`, :mod:`guided_ddpg.ddpg`,
      :mod:`guided_ddpg.nets`, :mod:`guided_ddpg.guided` and
      :mod:`guided_ddpg.harness`, and the simulator's physics are class
      constants of :class:`InsertionEnvConfig`, not keys: a file that sets
      one, such as ``terminal_weight``, ``discount`` or ``mass``, has an
      unknown key.

    Every problem in the file is reported in one :class:`InputError`, each
    with its line number; a missing file stays an ``OSError``.
    """
    keys = config_keys(sections)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
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
        raise InputError(f"invalid config {path}:\n  " + "\n  ".join(problems))
    return values


def parse_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment spec: a :func:`read_config` file over :data:`SPEC_SECTIONS`.

    The environment of every :func:`sweep_cells` cell is built too, so a spec that trains also sweeps.
    """
    values = read_config(path, SPEC_SECTIONS)
    try:
        env = InsertionEnvConfig(**values[InsertionEnvConfig])
        hyper = DdpgHyper(**values[DdpgHyper])
        supervisor = SupervisorConfig(**values[SupervisorConfig])
        config = TrainConfig(env=env, hyper=hyper, supervisor=supervisor, **values[TrainConfig])
        spec = ExperimentSpec(train=config, **values[ExperimentSpec])
        sweep_cells(env, spec.sweep_clearances, spec.sweep_hole_offsets)
        return spec
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid spec {path}: {exc}") from exc


def load_env_config(path) -> InsertionEnvConfig:
    """Read an environment file: a :func:`read_config` file over the fields of :class:`InsertionEnvConfig`."""
    return InsertionEnvConfig(**read_config(path, [("env", InsertionEnvConfig, ())])[InsertionEnvConfig])


def pure_ddpg_config(config: TrainConfig) -> TrainConfig:
    """Strip supervision: no optimizer epochs, so no supervision sample and a zero supervision weight."""
    return replace(config, n_trajopt=0)


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
    """The value in a JSON file; :class:`InputError` if it is not UTF-8 JSON or nests too deep to parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))  # a missing file stays an OSError
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_agent_checkpoint(path) -> tuple[MlpParams, DdpgHyper]:
    """Load the greedy policy: the actor, and ``DdpgHyper()``, whose scaling it runs under.

    Raises :class:`InputError` for a file that is not a well-formed agent checkpoint, or whose
    ``action_bound`` and ``obs_scale`` are not numbers equal to :class:`DdpgHyper`'s constants.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "agent-checkpoint" or payload.get("version") != 1:
        raise InputError(f"unrecognized checkpoint header in {path}")
    missing = [key for key in ("action_bound", "obs_scale", "actor") if key not in payload]
    if missing:
        raise InputError(f"checkpoint {path} lacks {missing}")
    actor = mlp_from_dict(payload["actor"])
    if actor.input_dim != STATE_DIM or actor.output_dim != ACTION_DIM:
        raise InputError(f"checkpoint {path}: actor layer sizes {list(actor.layer_sizes)} do not map "
                         f"{STATE_DIM} state entries to {ACTION_DIM} action entries")
    hyper = DdpgHyper()
    bound, scale, constant = payload["action_bound"], payload["obs_scale"], hyper.obs_scale_array.tolist()
    if not (is_json_number(bound) and bound == hyper.action_bound
            and isinstance(scale, list) and all(map(is_json_number, scale)) and scale == constant):
        raise InputError(f"checkpoint {path}: action_bound {bound!r} and obs_scale {scale!r} differ from "
                         f"the nets' constant scaling, {hyper.action_bound!r} and {constant!r}")
    return actor, hyper


def _write_learning_curves(out: Path, curves: list) -> None:
    """Median/IQR of evaluation success over seeds, on the shared n_roll grid.

    ``curves`` holds each finished seed's ``(n_roll, success_rate, mean_return)`` evaluations, in seed order.
    """
    by_n_roll: dict = {}  # n_roll -> the evaluations at it, in seed order
    for curve in curves:
        for n_roll, success_rate, mean_return in curve:
            by_n_roll.setdefault(n_roll, []).append((success_rate, mean_return))
    rows = []
    for n_roll in sorted(by_n_roll):
        succ, rets = zip(*by_n_roll[n_roll])
        rows.append([
            n_roll, len(succ),
            repr(float(np.median(succ))), repr(float(np.quantile(succ, 0.25))),
            repr(float(np.quantile(succ, 0.75))), repr(float(np.median(rets))),
        ])
    write_table(out, ["n_roll", "n_seeds", "success_median", "success_q25", "success_q75", "return_median"], rows)


def _size_run(spec: ExperimentSpec) -> None:
    """Allocate and drop each array whose size the spec sets, so that a run that cannot fit fails before
    ``--out`` is made: the ``r2`` ring, the nets, a sample batch of each ring, an epoch's supervisor
    rollouts, the pointer array of the log's list of epochs and exploratory episodes, and the evaluation
    arrays. Raises :class:`InputError` for the first that does not fit."""
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
        with fits_in_memory(f"{what}: an array of shape {shape} does not fit in memory"):
            np.empty(shape)
    evaluation_arrays(config.env, spec.eval_episodes)
    if config.eval_every > 0:
        evaluation_arrays(config.env, config.eval_episodes)


def final_evaluation(nets, config: TrainConfig, n_episodes: int):
    """A trained seed's closing evaluation: its actor in float64, as ``eval`` and ``sweep`` run the checkpoint,
    so that their figures match the summary's."""
    return evaluate_policy(as_float64(nets.actor), config.hyper, config.env, n_episodes, [config.seed, STREAM_FINAL_EVAL])


def run_label(config: TrainConfig) -> str:
    """``pure_ddpg`` for a run with no supervisor epochs, ``n_trajopt = 0``; ``guided_ddpg`` otherwise."""
    return "pure_ddpg" if config.n_trajopt == 0 else "guided_ddpg"


def seed_figures(log: TrainingLog, final) -> dict:
    """A trained seed's figures, from its log and its :func:`final_evaluation` ``final``: ``auc``, the mean
    success rate of the in-training evaluations (0 with none); ``final`` and ``final_mean_return``; ``to_0.5``
    and ``to_0.9``, the exploratory episodes run when an evaluation first reached 0.5 and
    :data:`SUCCESS_THRESHOLD`, or ``None``; ``budget``, the exploratory episodes run; the ``degraded``
    supervisor epochs; the supervisor's own closing episodes and their successes; and the log's counters."""
    supervised = log.episodes_by_phase("supervised")
    return {
        "auc": float(np.mean([ev.success_rate for ev in log.evals])) if log.evals else 0.0,
        "final": final.success_rate,
        "to_0.5": log.rollouts_to_threshold(0.5),
        "to_0.9": log.rollouts_to_threshold(SUCCESS_THRESHOLD),
        "budget": len(log.episodes_by_phase("ddpg")),
        "degraded": sum(rec.status == "degraded" for rec in log.epochs),
        "supervised_successes": sum(e.success for e in supervised),
        "supervised_episodes": len(supervised),
        "final_mean_return": final.mean_return,
        "episodes_total": len(log.episodes),
        "r1_pushed": log.r1_pushed,
        "r2_pushed": log.r2_pushed,
    }


def train_seed(config: TrainConfig, eval_episodes: int, seed_dir: Path) -> tuple[dict, list]:
    """One worker's task in :func:`run_experiment`: train ``config``'s seed and write its artifacts into
    ``seed_dir``. Returns its ``summary.json`` and its evaluations as ``(n_roll, success_rate, mean_return)``.

    A seed whose training or closing evaluation raises :class:`NumericalError` writes nothing and returns
    ``{"seed", "reason"}`` with no evaluations.
    """
    t0 = time.perf_counter()
    try:
        nets, log = train(config)
        wall = time.perf_counter() - t0
        final = final_evaluation(nets, config, eval_episodes)
    except NumericalError as exc:
        return {"seed": config.seed, "reason": str(exc)}, []
    seed_dir.mkdir(exist_ok=True)
    log.write_csv(seed_dir / "training_log.csv")
    log.write_timings_csv(seed_dir / "timings.csv")
    save_agent_checkpoint(seed_dir / "checkpoint.json", nets, config.hyper)
    _write_supervisor_diagnostics(seed_dir / "supervisor_diag.csv", log)
    summary = {"algorithm": run_label(config), "seed": config.seed, "csv_schema_version": CSV_SCHEMA_VERSION,
               **seed_figures(log, final), "wall_s": wall}
    (seed_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return summary, [(ev.n_roll, ev.success_rate, ev.mean_return) for ev in log.evals]


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
    """95 % percentile interval of the IQM over seeds resampled with replacement (Agarwal et al.,
    arXiv:2108.13264; the one stratum is the one task)."""
    low, high = np.quantile(resampled_iqms(values, rng), [0.025, 0.975])
    return [float(low), float(high)]


def difference_ci(values, reference_values, rng: np.random.Generator) -> list:
    """95 % percentile interval of ``IQM(values) - IQM(reference_values)``, each side's seeds resampled."""
    low, high = np.quantile(resampled_iqms(values, rng) - resampled_iqms(reference_values, rng), [0.025, 0.975])
    return [float(low), float(high)]


def _censored(rows: list, figure: str) -> np.ndarray:
    """``figure`` of each seed's row; a seed that never reached a threshold counts at its budget."""
    return np.asarray([row["budget"] if row[figure] is None else row[figure] for row in rows], dtype=float)


def aggregate(rows: list) -> dict:
    """The seeds' rows split into ``per_seed``, those that finished, and ``failed``, those with a ``reason``;
    and, over the finished seeds (``None`` if none finished), the IQM and 95 % bootstrap interval of each of
    :data:`FIGURES`, the seeds that reached each threshold, and the degraded epochs and the supervisor's own
    successes in all."""
    finished = [row for row in rows if "reason" not in row]
    figures = None
    if finished:
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        figures = {}
        for figure in FIGURES:
            values = _censored(finished, figure)
            figures[figure] = {"iqm": float(iqm(values)), "ci": bootstrap_ci(values, rng)}
            if figure.startswith("to_"):
                figures[figure]["reached"] = sum(row[figure] is not None for row in finished)
        figures["degraded"] = sum(row["degraded"] for row in finished)
        figures["supervised"] = {"successes": sum(row["supervised_successes"] for row in finished),
                                 "episodes": sum(row["supervised_episodes"] for row in finished)}
    return {"aggregate": figures, "per_seed": finished, "failed": [row for row in rows if "reason" in row]}


def _exit_with_parent(parent_pid: int) -> None:
    """A worker's initializer: a daemon thread ends the worker once its parent is no longer ``parent_pid``,
    looking about every 0.5 s."""
    import threading  # here, not at the top, so that importing this module, which the benchmark times, does not grow

    def watch():
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextmanager
def worker_pool(max_workers: int):
    """A process pool whose workers run BLAS on one thread and exit with this process.

    OpenBLAS reads its thread count once, when it loads, so the workers are
    spawned, not forked from this process's loaded numpy, with :data:`THREAD_ENV`
    set; this process's environment is restored when the pool has shut down.
    An exception out of the block, such as the one ``train`` raises on SIGTERM,
    cancels the pending tasks and terminates the workers instead of waiting for
    their tasks, which can run for hours. A process killed outright runs no
    handler, so each worker also watches its parent and exits once it is gone.
    """
    # imported here, not at the top: they add about 25 ms to importing this module, which the benchmark times
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in THREAD_ENV}
    os.environ.update(THREAD_ENV)
    others = set(multiprocessing.active_children())
    try:
        with ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_exit_with_parent, initargs=(os.getpid(),)) as pool:
            try:
                yield pool
            except BaseException:
                for worker in set(multiprocessing.active_children()) - others:
                    worker.terminate()
                    worker.join()
                # then wait for the pool's manager thread, which the dead workers end: left running, it races
                # the interpreter's exit and can print an OSError traceback after train's one line
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_experiment(spec_path, out_dir) -> Path:
    """Train every seed in the spec in one :func:`worker_pool` and write per-seed plus aggregate artifacts.

    The pool has a worker per seed, up to the CPUs this process may run on. Seeds share no state, so each
    seed's artifacts have the bytes that training it alone gives. A seed that raises :class:`NumericalError`
    is recorded in ``aggregate.json`` with its reason while the others finish; :class:`NumericalError` is
    then raised, once every artifact is written.

    The workers are spawned, and each imports the caller's ``__main__`` again, so a program that calls this
    must run from a file, ``python -c`` or ``python -m``; for one read from stdin it raises :class:`InputError`
    before ``out_dir`` is made.
    """
    spec = parse_spec(spec_path)
    _size_run(spec)
    if getattr(sys.modules["__main__"], "__file__", None) == "<stdin>":  # a worker cannot read it again
        raise InputError("run_experiment's workers re-import __main__, which was read from stdin: run the program "
                         "from a file, with python -c or with python -m")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = spec.seeds
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with worker_pool(min(len(seeds), cpus)) as pool:
        results = list(pool.map(train_seed, [replace(spec.train, seed=seed) for seed in seeds],
                                [spec.eval_episodes] * len(seeds), [out / f"seed_{seed}" for seed in seeds]))
    _write_learning_curves(out / "learning_curves.csv", [curve for _, curve in results])
    result = {"algorithm": run_label(spec.train), "seeds": list(seeds), **aggregate([row for row, _ in results])}
    (out / "aggregate.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    if result["failed"]:
        raise NumericalError(f"{len(result['failed'])} of {len(seeds)} seeds failed, recorded in "
                             f"{out / 'aggregate.json'}: "
                             + "; ".join(f"seed {row['seed']}: {row['reason']}" for row in result["failed"]))
    return out


def _read_per_seed(run_dir) -> list:
    """The finished seeds' rows of ``run_dir``'s ``aggregate.json``; :class:`InputError` unless each holds
    :data:`FIGURES` and ``budget``, in range."""
    path = Path(run_dir) / "aggregate.json"
    agg = _read_json(path)
    rows = agg.get("per_seed") if isinstance(agg, dict) else None
    if not (isinstance(rows, list) and rows and all(isinstance(row, dict) for row in rows)):
        raise InputError(f"{path} lacks per_seed, a non-empty list of the finished seeds' figures")
    for row in rows:
        missing = [key for key in (*FIGURES, "budget") if key not in row]
        if missing:
            raise InputError(f"{path}: a per_seed row lacks {missing}")
        for key in (*FIGURES, "budget"):
            value, rate = row[key], key in ("auc", "final")
            # a Python float, which compares exactly with integers past it, such as 10**400; inf is past it too
            high = 1.0 if rate else float(np.finfo(float).max)
            if not ((is_json_number(value) and 0.0 <= value <= high) or (value is None and key.startswith("to_"))):
                raise InputError(f"{path}: per_seed {key} must be "
                                 f"{'in [0, 1]' if rate else 'a finite number >= 0'}, got {value!r}")
    return rows


def compare_per_seed(rows_a: list, rows_b: list) -> dict:
    """Per figure of :data:`FIGURES`, the IQM of each set of per-seed rows and the 95 % interval of
    ``IQM(A) - IQM(B)``, each set's seeds resampled."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    figures = {}
    for figure in FIGURES:
        a, b = (_censored(rows, figure) for rows in (rows_a, rows_b))
        figures[figure] = {"iqm_a": float(iqm(a)), "iqm_b": float(iqm(b)), "difference_ci": difference_ci(a, b, rng)}
    return figures


def compare_runs(dir_a, dir_b, out_path) -> dict:
    """:func:`compare_per_seed` of two runs' finished seeds, written to ``out_path`` as a table.

    A malformed ``aggregate.json`` raises :class:`InputError`. The directory of ``out_path`` is made only once
    both are read.
    """
    figures = compare_per_seed(_read_per_seed(dir_a), _read_per_seed(dir_b))
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["figure", "iqm_a", "iqm_b", "difference_ci_low", "difference_ci_high"],
                ([figure, *map(repr, (f["iqm_a"], f["iqm_b"], *f["difference_ci"]))] for figure, f in figures.items()))
    return figures


def sweep_cells(env: InsertionEnvConfig, clearances: tuple[float, ...], hole_offsets: tuple[float, ...]) -> list:
    """``(clearance, hole_offset, cell_env)`` for each cell of a sweep grid, row by row: ``env`` with its hole
    ``clearance`` wider than the peg and its center at ``hole_offset``. An empty axis holds ``env``'s own value.
    Raises :class:`InputError` naming the first cell whose environment is invalid."""
    cells = []
    for clearance in clearances or (env.clearance,):
        for offset in hole_offsets or (env.hole_center_offset,):
            try:
                cell = replace(env, hole_half_width=env.peg_half_width + clearance, hole_center_offset=offset)
            except InputError as exc:
                raise InputError(f"sweep cell with clearance {clearance} and hole offset {offset}: {exc}") from exc
            cells.append((clearance, offset, cell))
    return cells


def adaptability_sweep(
    checkpoint_path,
    env: InsertionEnvConfig,
    clearances: tuple[float, ...],
    hole_offsets: tuple[float, ...],
    n_episodes: int,
    seed: int,
    out_path,
) -> list:
    """Evaluate one trained policy across the :func:`sweep_cells` of clearances and hole offsets.

    Clearances are absolute (hole half-width minus peg half-width, meters);
    offsets shift the true hole center while the policy stays fixed. Cell
    ``(i, j)`` draws its episodes from the ``i * len(hole_offsets) + j``-th
    child of ``SeedSequence(seed)``. The directory of ``out_path`` is made
    only once every cell is evaluated, so a sweep that fails leaves none.
    """
    actor, hyper = load_agent_checkpoint(checkpoint_path)
    cells = sweep_cells(env, clearances, hole_offsets)
    rows = []
    for (clearance, offset, cell_env), cell_seed in zip(cells, np.random.SeedSequence(seed).spawn(len(cells))):
        metrics = evaluate_policy(actor, hyper, cell_env, n_episodes, cell_seed)
        rows.append({"clearance": clearance, "hole_offset": offset, **vars(metrics)})
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["clearance_m", "hole_offset_m", "success_rate", "mean_return", "mean_steps"],
                ([repr(float(value)) for value in row.values()] for row in rows))
    return rows
