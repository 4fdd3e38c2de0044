import csv
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import guided_ddpg.harness as harness_mod
from guided_ddpg import exceptions
from guided_ddpg.cli import main as cli_main
from guided_ddpg.exceptions import InputError, NumericalError
from guided_ddpg.harness import (
    BOOTSTRAP_SEED,
    FIGURES,
    SPEC_SECTIONS,
    THRESHOLDS,
    ExperimentSpec,
    adaptability_sweep,
    aggregate,
    bootstrap_ci,
    compare_runs,
    config_keys,
    difference_ci,
    iqm,
    load_agent_checkpoint,
    parse_spec,
    pure_ddpg_config,
    run_experiment,
    save_agent_checkpoint,
    train_seed,
    worker_pool,
)
from guided_ddpg.ddpg import DdpgHyper, make_agent, policy_action
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.guided import STREAM_FINAL_EVAL, TrainConfig, evaluate_policy, train
from guided_ddpg.nets import mlp_init, mlp_to_dict
from guided_ddpg.trajopt import SupervisorConfig

TINY_SPEC = """
# tiny smoke-test experiment
seeds = 0,1
eval_episodes = 2

epochs = 1
n_ddpg = 2
n_inc = 0
n_trajopt = 1
samples_per_subiter = 3
eval_every = 2
train_eval_episodes = 2
r2_capacity = 500

horizon = 6
actor_hidden = 8
critic_hidden = 8
batch_size = 8
supervision_batch_size = 8

sweep_clearances = 0.0005,0.0002
sweep_hole_offsets = 0.0,0.0005
"""


# a JSON array nested deeper than Python's recursion limit
NESTED_JSON = "[" * 100000 + "]" * 100000


@pytest.fixture
def tiny_spec_path(tmp_path):
    path = tmp_path / "tiny.spec"
    path.write_text(TINY_SPEC)
    return path


# The settings that became constants of trajopt, ddpg, nets, guided, harness and InsertionEnvConfig,
# each with the value it had as a default; the two run controls that could end training before its
# schedule, each with a value it accepted; and algorithm, which n_trajopt = 0 replaced.
REMOVED_SETTINGS = {
    "eta_init": "1.0", "dynamics_reg": "1e-6", "exploration_std": "1.0, 1.0", "smoothing": "1e-4",
    "terminal_weight": "1.0", "max_dual_iterations": "20", "noise_scale": "1.0, 1.0", "noise_theta": "0.15",
    "noise_dt": "1.0", "stop_at_threshold": "false", "max_rollouts": "100",
    "actor_lr": "0.001", "critic_lr": "0.001", "discount": "0.99", "target_rate": "0.001",
    "r1_capacity": "2000", "success_threshold": "0.9",
    "peg_half_width": "0.005", "hole_depth": "0.02", "wall_stiffness": "10000.0", "wall_damping": "100.0",
    "mass": "2.0", "dt": "0.01", "action_bound": "5.0", "start_height": "0.005", "reset_range": "0.003",
    "action_cost_weight": "0.0001", "workspace_half_width": "0.02", "workspace_height": "0.02",
    "kl_step": "100.0", "supervision_decay": "10.0", "algorithm": "guided_ddpg",
}


def spec_with_line(tiny_spec_path, line: str):
    """A copy of the tiny spec in which ``line`` sets its key: it replaces the line that sets it, if any."""
    key = line.split("=")[0].strip()
    kept = [old for old in tiny_spec_path.read_text().splitlines() if old.split("=")[0].strip() != key]
    path = tiny_spec_path.with_name("edited.spec")
    path.write_text("\n".join(kept + [line]) + "\n")
    return path


class TestSpecParsing:
    def test_parses_sections(self, tiny_spec_path):
        spec = parse_spec(tiny_spec_path)
        assert spec.seeds == (0, 1)
        assert spec.train.env.horizon == 6
        assert spec.train.hyper.batch_size == 8
        assert spec.train.supervisor.samples_per_subiter == 3
        assert spec.sweep_clearances == (0.0005, 0.0002)

    def test_unknown_key_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("seeds = 0\nwarp_speed = 9\n")
        with pytest.raises(InputError, match="warp_speed"):
            parse_spec(path)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("epochs = 3\n")
        with pytest.raises(InputError, match="missing required key 'seeds'"):
            parse_spec(path)

    def test_bad_value_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("seeds = 0\nepochs = many\n")
        with pytest.raises(InputError, match="line 2"):
            parse_spec(path)

    def test_seeds_is_the_one_required_key(self, tmp_path):
        path = tmp_path / "seeds.spec"
        path.write_text("seeds = 3\n")
        assert parse_spec(path) == ExperimentSpec(train=TrainConfig(), seeds=(3,))


class TestConfigReader:
    @staticmethod
    def _spec_path(tmp_path, lines: str):
        path = tmp_path / "s.spec"
        path.write_text("# a spec\nseeds = 0\n" + lines)
        return path

    def test_every_key_parses_back_to_its_default(self, tmp_path):
        # success_tolerance and target_point default to None, which no value spells,
        # so they are written as numbers
        env = InsertionEnvConfig(success_tolerance=0.001, target_point=(0.0, -0.02))
        hyper = DdpgHyper.for_env(env)
        spec = ExperimentSpec(train=TrainConfig(env=env, hyper=hyper, n_trajopt=0), seeds=(3,))
        owners = {ExperimentSpec: spec, TrainConfig: spec.train, InsertionEnvConfig: spec.train.env,
                  DdpgHyper: spec.train.hyper, SupervisorConfig: spec.train.supervisor}
        lines = []
        for key, (cls, field, _) in config_keys(SPEC_SECTIONS).items():
            value = getattr(owners[cls], field.name)
            lines.append(f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}")
        path = tmp_path / "defaults.spec"
        path.write_text("\n".join(lines))
        assert parse_spec(path) == spec

    @pytest.mark.parametrize("key", ["sweep_clearances", "success_tolerance", "hole_half_width",
                                     "sweep_hole_offsets", "hole_center_offset"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        with pytest.raises(InputError, match=f"line 3: bad value for '{key}'"):
            parse_spec(self._spec_path(tmp_path, f"{key} = {value}\n"))

    def test_target_point_in_spec(self, tmp_path):
        spec = parse_spec(self._spec_path(tmp_path, "target_point = 0.001, -0.015\n"))
        assert spec.train.env.target_point == (0.001, -0.015)

    def test_duplicate_key_reported_with_both_lines(self, tmp_path):
        path = self._spec_path(tmp_path, "epochs = 1\nhorizon = 9\nepochs = 3\nwarp = 1\nhorizon = 9\n")
        with pytest.raises(InputError) as exc:
            parse_spec(path)
        message = str(exc.value)
        assert "line 5: key 'epochs' already given on line 3" in message
        assert "line 7: key 'horizon' already given on line 4" in message
        assert "line 6: unknown key 'warp'" in message

    # the supervisor settings that became constants are rejected whatever value a spec gives them
    @pytest.mark.parametrize("line", ["exploration_std = -1.0", "exploration_std = 1.0, -0.5",
                                      "terminal_weight = -1"])
    def test_bad_supervisor_config_rejected(self, tmp_path, line):
        with pytest.raises(InputError, match=f"line 3: unknown key '{line.split()[0]}'"):
            parse_spec(self._spec_path(tmp_path, line + "\n"))

    @pytest.mark.parametrize("key", list(REMOVED_SETTINGS))
    def test_removed_setting_is_an_unknown_key(self, tmp_path, tiny_spec_path, capsys, key):
        # each is given a value it once accepted, so only the key can be at fault
        line = f"{key} = {REMOVED_SETTINGS[key]}"
        assert key not in config_keys(SPEC_SECTIONS)
        with pytest.raises(InputError, match=f"line 3: unknown key '{key}'"):
            parse_spec(self._spec_path(tmp_path, line + "\n"))
        out = tmp_path / "o"
        assert cli_main(["train", "--spec", str(spec_with_line(tiny_spec_path, line)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key '{key}'" in err and "Traceback" not in err
        assert not out.exists()
        env = InsertionEnvConfig(horizon=6)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
        ckpt, env_cfg = tmp_path / "ckpt.json", tmp_path / "env.cfg"
        save_agent_checkpoint(ckpt, make_agent(hyper, 0), hyper)
        env_cfg.write_text(f"horizon = 6\n{line}\n")
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--env-config", str(env_cfg), "--episodes", "1"]) == 2
        err = capsys.readouterr().err
        assert f"line 2: unknown key '{key}'" in err and "Traceback" not in err


class TestPureDdpgTransform:
    def test_strips_supervision(self, tiny_spec_path):
        spec = parse_spec(tiny_spec_path)
        pure = pure_ddpg_config(spec.train)
        assert pure == replace(spec.train, n_trajopt=0)


def read_log_rows(seed_dir, row_type: str) -> list:
    with open(seed_dir / "training_log.csv", newline="", encoding="utf-8") as fh:
        return [row for row in csv.DictReader(fh) if row["row_type"] == row_type]


class TestRunExperiment:
    def test_artifacts_created(self, tiny_spec_path, tmp_path):
        out = run_experiment(tiny_spec_path, tmp_path / "run")
        assert THRESHOLDS == (0.5, 0.9)
        summaries = []
        for seed in (0, 1):
            seed_dir = out / f"seed_{seed}"
            assert (seed_dir / "checkpoint.json").exists()
            # one timing per episode row, in the log's order, on a clock that never runs back
            with open(seed_dir / "timings.csv", newline="", encoding="utf-8") as fh:
                timings = list(csv.DictReader(fh))
            episodes = read_log_rows(seed_dir, "episode")
            assert episodes and [row["episode"] for row in timings] == [row["episode"] for row in episodes]
            clock = [float(row["wall_clock_s"]) for row in timings]
            assert clock[0] >= 0.0 and all(a <= b for a, b in zip(clock, clock[1:]))
            summary = json.loads((seed_dir / "summary.json").read_text())
            assert (summary["algorithm"], summary["seed"]) == ("guided_ddpg", seed)
            assert summary["episodes_total"] == len(episodes)
            assert summary["budget"] == sum(row["phase"] == "ddpg" for row in episodes)
            evals = read_log_rows(seed_dir, "eval")
            assert evals
            for rate in THRESHOLDS:
                first = next((int(row["n_roll"]) for row in evals if float(row["success_rate"]) >= rate), None)
                assert summary[f"to_{rate}"] == first, rate
            assert summary["auc"] == np.mean([float(row["success_rate"]) for row in evals])
            # the final figures are the ones the saved checkpoint evaluates to, in float64
            actor, hyper = load_agent_checkpoint(seed_dir / "checkpoint.json")
            spec = parse_spec(tiny_spec_path)
            final = evaluate_policy(actor, hyper, spec.train.env, spec.eval_episodes, [seed, STREAM_FINAL_EVAL])
            assert (summary["final"], summary["final_mean_return"]) == (final.success_rate, final.mean_return)
            summaries.append(summary)
        # the over-seed artifacts and nothing else: no table that copies aggregate.json
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.json", "learning_curves.csv", "seed_0", "seed_1"]
        result = json.loads((out / "aggregate.json").read_text())
        assert result == {"algorithm": "guided_ddpg", "seeds": [0, 1], **aggregate(summaries)}
        assert result["failed"] == [] and set(result["aggregate"]) == {*FIGURES, "degraded", "supervised"}

    def test_rollouts_to_threshold_is_read_at_each_of_the_thresholds(self, tiny_spec_path, tmp_path, monkeypatch):
        # the tiny runs never reach 0.9, so a threshold every evaluation meets in its place shows which one is
        # read, and under which key; the worker's task runs in this process, where the patch holds
        monkeypatch.setattr(harness_mod, "THRESHOLDS", (0.5, 0.0))
        spec = parse_spec(tiny_spec_path)
        for seed in (0, 1):
            seed_dir = tmp_path / f"seed_{seed}"
            summary, curve = train_seed(replace(spec.train, seed=seed), spec.eval_episodes, seed_dir)
            first_eval = read_log_rows(seed_dir, "eval")[0]
            assert [key for key in summary if key.startswith("to_")] == ["to_0.5", "to_0.0"]
            assert summary["to_0.0"] == int(first_eval["n_roll"]) == curve[0][0]
            assert json.loads((seed_dir / "summary.json").read_text())["to_0.0"] == int(first_eval["n_roll"])

    def test_a_pure_run_records_no_supervisor_epoch(self, tiny_spec_path, tmp_path):
        # an epoch without a supervisor is no epoch at all to the log, the diagnostics table and the summary
        pure = pure_ddpg_config(parse_spec(tiny_spec_path).train)
        _, log = train(pure)
        assert log.epochs == []
        summary, _ = train_seed(pure, 2, tmp_path / "seed_0")
        with open(tmp_path / "seed_0" / "supervisor_diag.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 and rows[0][:3] == ["epoch", "status", "subiter"]
        assert summary["degraded"] == 0 == json.loads((tmp_path / "seed_0" / "summary.json").read_text())["degraded"]

    def test_empty_run_is_valid(self, tmp_path):
        path = tmp_path / "empty.spec"
        path.write_text("seeds = 0\nepochs = 0\nn_trajopt = 0\nhorizon = 5\n")
        out = run_experiment(path, tmp_path / "run")
        summary = json.loads((out / "seed_0" / "summary.json").read_text())
        assert summary["episodes_total"] == 0 and summary["algorithm"] == "pure_ddpg"
        assert json.loads((out / "aggregate.json").read_text())["algorithm"] == "pure_ddpg"

    def test_determinism_byte_identical_csv(self, tiny_spec_path, tmp_path):
        out_a = run_experiment(tiny_spec_path, tmp_path / "a")
        out_b = run_experiment(tiny_spec_path, tmp_path / "b")
        for seed in (0, 1):
            csv_a = (out_a / f"seed_{seed}" / "training_log.csv").read_bytes()
            csv_b = (out_b / f"seed_{seed}" / "training_log.csv").read_bytes()
            assert csv_a == csv_b
        assert (out_a / "learning_curves.csv").read_bytes() == (out_b / "learning_curves.csv").read_bytes()

    def test_compare_runs(self, tiny_spec_path, tmp_path):
        out_a = run_experiment(tiny_spec_path, tmp_path / "a")
        out_b = run_experiment(tiny_spec_path, tmp_path / "b")
        figures = compare_runs(out_a, out_b, tmp_path / "comparison.csv")
        assert (tmp_path / "comparison.csv").exists()
        assert list(figures) == list(FIGURES)
        assert all(figure["iqm_a"] == figure["iqm_b"] for figure in figures.values())


def raise_on_seed_1(config):
    if config.seed == 1:
        raise NumericalError("critic loss is non-finite; parameters unchanged")
    return train(config)


class TestFailedSeed:
    # a patch reaches no spawned worker, so these run the worker's task, or the whole pool, in this process

    def test_worker_records_the_reason_and_writes_nothing(self, tiny_spec_path, tmp_path, monkeypatch):
        monkeypatch.setattr(harness_mod, "train", raise_on_seed_1)
        spec = parse_spec(tiny_spec_path)
        row, curve = train_seed(replace(spec.train, seed=1), spec.eval_episodes, tmp_path / "seed_1")
        assert (row, curve) == ({"seed": 1, "reason": "critic loss is non-finite; parameters unchanged"}, [])
        assert not (tmp_path / "seed_1").exists()

    def test_aggregate_takes_the_figures_over_the_finished_seeds(self):
        rows = [dict(seed=s, auc=a, final=a, budget=100, degraded=1, supervised_successes=1, supervised_episodes=2,
                     **{"to_0.5": 10 * s, "to_0.9": None}) for s, a in enumerate((0.2, 0.4, 0.6, 0.8))]
        failed = {"seed": 4, "reason": "target critic produced non-finite values"}
        result = aggregate([*rows[:2], failed, *rows[2:]])
        assert result == {**aggregate(rows), "failed": [failed]}
        assert result["per_seed"] == rows and result["aggregate"]["auc"]["iqm"] == 0.5
        assert result["aggregate"]["degraded"] == 4 and result["aggregate"]["to_0.5"]["reached"] == 4
        assert aggregate([failed]) == {"aggregate": None, "per_seed": [], "failed": [failed]}

    def test_train_exits_3_after_the_other_seeds_write_everything(self, tiny_spec_path, tmp_path, monkeypatch,
                                                                  capsys):
        monkeypatch.setattr(harness_mod, "train", raise_on_seed_1)
        monkeypatch.setattr(harness_mod, "worker_pool", lambda max_workers: ThreadPoolExecutor(1))
        out = tmp_path / "run"
        assert cli_main(["train", "--spec", str(tiny_spec_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "1 of 2 seeds failed" in err and "seed 1: critic loss is non-finite" in err
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.json", "learning_curves.csv", "seed_0"]
        result = json.loads((out / "aggregate.json").read_text())
        assert [row["seed"] for row in result["per_seed"]] == [0] and result["seeds"] == [0, 1]
        assert result["failed"] == [{"seed": 1, "reason": "critic loss is non-finite; parameters unchanged"}]
        # seed 0's artifacts are the ones a run of it alone writes, its wall time aside
        alone = run_experiment(spec_with_line(tiny_spec_path, "seeds = 0"), tmp_path / "alone")
        for table in ("training_log.csv", "supervisor_diag.csv", "checkpoint.json", "learning_curves.csv"):
            path = table if table == "learning_curves.csv" else f"seed_0/{table}"
            assert (out / path).read_bytes() == (alone / path).read_bytes()
        figures = [{key: value for key, value in json.loads((run / "seed_0" / "summary.json").read_text()).items()
                    if key != "wall_s"} for run in (out, alone)]
        assert figures[0] == figures[1]


def process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerPool:
    def test_worker_pool_runs_blas_on_one_thread(self, monkeypatch):
        # a worker that inherits this process's BLAS, or this environment, runs two threads on two or more cores
        from golden import openblas_threads  # golden imports this module

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        environment = dict(os.environ)
        with worker_pool(1) as pool:
            assert pool.submit(openblas_threads).result(timeout=120) == 1
        assert dict(os.environ) == environment

    def test_importing_harness_and_running_its_worker_pool_leave_the_environment_alone(self):
        # the pool of guided_ddpg.harness, which the gate runs through run_experiment
        code = ("import os; before = dict(os.environ); import guided_ddpg.harness as h\n"
                "if __name__ == '__main__':\n"
                "    with h.worker_pool(1) as pool:\n"
                "        assert pool.submit(os.getenv, 'OPENBLAS_NUM_THREADS').result(timeout=120) == '1'\n"
                "    assert dict(os.environ) == before")
        # unset, so that an import or a pool which sets them shows
        env = {name: value for name, value in os.environ.items() if not name.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_an_exception_out_of_the_block_leaves_no_thread_of_the_pool_running(self):
        # the pool's manager thread, left running, raced the interpreter's exit and could print a traceback
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            with worker_pool(1) as pool:
                pool.submit(time.sleep, 60)
                raise KeyboardInterrupt
        assert set(threading.enumerate()) - before == set()

    @pytest.mark.skipif(sys.platform == "win32", reason="SIGTERM, SIGINT and SIGKILL are POSIX signals")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL],
                             ids=lambda s: signal.Signals(s).name)
    def test_an_interrupted_train_exits_1_and_leaves_no_worker_running(self, tiny_spec_path, tmp_path, signum):
        # a SIGTERM killed train alone, and its spawned workers trained on, orphaned; a SIGKILL, which runs no
        # handler in train, still did
        spec = spec_with_line(tiny_spec_path, "epochs = 100000")  # hours of training, so the workers are busy
        workers = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        # train in a program that prints its workers' pids once they are all started, or after 60 s
        code = ("import multiprocessing, sys, threading, time\nfrom guided_ddpg.cli import main\n"
                "def report():\n"
                "    deadline = time.monotonic() + 60\n"
                f"    while len(multiprocessing.active_children()) < {workers} and time.monotonic() < deadline:\n"
                "        time.sleep(0.05)\n"
                "    print(*(child.pid for child in multiprocessing.active_children()), flush=True)\n"
                "threading.Thread(target=report, daemon=True).start()\n"
                f"sys.exit(main(['train', '--spec', {str(spec)!r}, '--out', {str(tmp_path / 'run')!r}]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        # stderr goes to a file: a worker that outlives train would hold a pipe open, and reading it would hang
        with open(tmp_path / "stderr.txt", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=err,
                                    text=True)
            pids = []
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(pids) == workers
                proc.send_signal(signum)
                if signum == signal.SIGKILL:  # stderr unchecked: the resource tracker warns of leaked semaphores
                    assert proc.wait(timeout=30) == -signal.SIGKILL
                else:
                    assert proc.wait(timeout=30) == 1
                    err.seek(0)
                    assert err.read().splitlines() == [f"interrupted: {signal.Signals(signum).name} received"]
                deadline = time.monotonic() + 10
                while (alive := [pid for pid in pids if process_exists(pid)]) and time.monotonic() < deadline:
                    time.sleep(0.1)
                assert alive == []
            finally:  # a failed run leaves nothing running either
                for pid in pids:
                    if process_exists(pid):
                        os.kill(pid, signal.SIGKILL)
                proc.kill()
                proc.wait(timeout=30)
                proc.stdout.close()

    def test_a_program_read_from_stdin_is_refused_before_out_is_made(self, tiny_spec_path, tmp_path):
        # each spawned worker re-runs __main__ from its path, which for stdin is "<stdin>": the pool broke
        # with BrokenProcessPool and left an empty --out
        out = tmp_path / "run"
        code = ("from guided_ddpg.exceptions import InputError\nfrom guided_ddpg.harness import run_experiment\n"
                "try:\n"
                f"    run_experiment({str(tiny_spec_path)!r}, {str(out)!r})\n"
                "except InputError as exc:\n"
                "    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-"], input=code, env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert "read from stdin" in proc.stdout and "python -c" in proc.stdout, proc.stdout
        assert not out.exists()


def iqm_of(values) -> float:
    return float(iqm(np.asarray(values, dtype=float)))


class TestIqmAndBootstrap:
    def test_iqm_is_the_mean_of_the_middle_half(self):
        assert iqm(np.array([0.0, 1.0, 2.0, 100.0])) == 1.5
        assert iqm(np.array([9.0, -50.0, 1.0, 2.0, 3.0, 4.0, 70.0, 5.0])) == 3.5
        assert iqm(np.array([0.25, 0.75])) == 0.5
        assert np.array_equal(iqm(np.array([[4.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 5.0]])), [2.5, 1.0])

    def test_bootstrap_interval_brackets_the_iqm_and_repeats(self):
        values = [0.083, 0.013, 0.061, 0.474]
        low, high = bootstrap_ci(values, np.random.default_rng(BOOTSTRAP_SEED))
        assert min(values) <= low <= iqm_of(values) <= high <= max(values)
        assert [low, high] == bootstrap_ci(values, np.random.default_rng(BOOTSTRAP_SEED))

    def test_a_seed_that_never_reaches_a_threshold_is_censored_at_its_budget(self):
        rows = [dict(seed=s, auc=a, final=a, budget=100, degraded=0, supervised_successes=0, supervised_episodes=1,
                     **{"to_0.5": None, "to_0.9": None}) for s, a in enumerate((0.1, 0.2, 0.3, 0.4))]
        assert aggregate(rows)["aggregate"]["to_0.9"] == {"iqm": 100.0, "ci": [100.0, 100.0], "reached": 0}

    def test_difference_interval_brackets_the_difference_and_repeats(self):
        got, ref = [0.0, 0.1, 0.1, 0.9], [0.3, 0.3, 0.2, 0.4]
        low, high = difference_ci(got, ref, np.random.default_rng(BOOTSTRAP_SEED))
        assert low <= iqm_of(got) - iqm_of(ref) <= high
        assert [low, high] == difference_ci(got, ref, np.random.default_rng(BOOTSTRAP_SEED))
        # the spread of both sides widens it past either side's own
        assert high - low > max(np.diff(bootstrap_ci(v, np.random.default_rng(0)))[0] for v in (got, ref))


def seed_row(seed: int, **figures) -> dict:
    """A per-seed row of ``aggregate.json``: 100 exploratory episodes, neither threshold reached, unless
    ``figures`` says otherwise."""
    return {"seed": seed, "auc": 0.5, "final": 0.5, "budget": 100, "to_0.5": None, "to_0.9": None, **figures}


def write_aggregate(run: Path, rows) -> Path:
    """``run`` made, holding an ``aggregate.json`` whose finished seeds are ``rows``."""
    run.mkdir()
    (run / "aggregate.json").write_text(json.dumps({"algorithm": "guided_ddpg", "per_seed": rows}))
    return run


class TestCompareRuns:
    def test_interval_of_the_iqm_difference_per_figure(self, tmp_path):
        a = [seed_row(s, auc=x, final=x / 2, **{"to_0.5": 20 * s}) for s, x in enumerate((0.1, 0.5, 0.9, 0.3))]
        b = [seed_row(s, auc=x, **{"to_0.9": 50}) for s, x in enumerate((0.2, 0.2, 0.4, 0.0, 0.6))]
        figures = compare_runs(write_aggregate(tmp_path / "a", a), write_aggregate(tmp_path / "b", b),
                               tmp_path / "comparison.csv")
        rng = np.random.default_rng(BOOTSTRAP_SEED)
        for name in FIGURES:
            # a threshold not reached counts at the budget
            got, ref = ([100 if row[name] is None else row[name] for row in rows] for rows in (a, b))
            assert figures[name] == {"iqm_a": iqm_of(got), "iqm_b": iqm_of(ref),
                                     "difference_ci": difference_ci(got, ref, rng)}
        assert figures["to_0.9"]["difference_ci"] == [50.0, 50.0]
        with open(tmp_path / "comparison.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["figure", "iqm_a", "iqm_b", "difference_ci_low", "difference_ci_high"]
        assert [[float(x) for x in row[1:]] for row in table[1:]] == [
            [figures[name]["iqm_a"], figures[name]["iqm_b"], *figures[name]["difference_ci"]] for name in FIGURES]

    def test_a_run_against_itself_brackets_zero(self, tmp_path):
        run = write_aggregate(tmp_path / "a", [seed_row(s, auc=s / 10) for s in range(8)])
        for figure in compare_runs(run, run, tmp_path / "comparison.csv").values():
            low, high = figure["difference_ci"]
            assert figure["iqm_a"] == figure["iqm_b"] and low <= 0.0 <= high


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        env = InsertionEnvConfig()
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
        nets = make_agent(hyper, 3)
        path = tmp_path / "ckpt.json"
        save_agent_checkpoint(path, nets, hyper)
        actor, loaded_hyper = load_agent_checkpoint(path)
        assert np.array_equal(actor.vector, nets.actor.vector)
        assert loaded_hyper == DdpgHyper() and loaded_hyper.action_bound == hyper.action_bound
        states = np.random.default_rng(0).normal(size=(4, 6)) * 0.01
        assert np.allclose(policy_action(actor, loaded_hyper, states),
                           policy_action(nets.actor, hyper, states))

    def test_every_net_records_tanh_hidden_layers(self, tmp_path):
        hyper = DdpgHyper.for_env(InsertionEnvConfig(), actor_hidden=(8,), critic_hidden=(8, 8))
        path = tmp_path / "ckpt.json"
        save_agent_checkpoint(path, make_agent(hyper, 0), hyper)
        payload = json.loads(path.read_text())
        for net, output in (("actor", "tanh"), ("critic", "identity")):
            assert payload[net]["hidden_activation"] == "tanh"
            assert payload[net]["output_activation"] == output

    def test_payload_holds_only_the_actor_and_critic_nets(self, tmp_path):
        hyper = DdpgHyper.for_env(InsertionEnvConfig(), actor_hidden=(8,), critic_hidden=(8,))
        nets = make_agent(hyper, 0)
        path = tmp_path / "ckpt.json"
        save_agent_checkpoint(path, nets, hyper)
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["action_bound", "actor", "critic", "format", "obs_scale", "version"]
        assert payload["action_bound"] == 5.0 and payload["obs_scale"] == DdpgHyper.obs_scale_array.tolist()
        assert payload["actor"] == mlp_to_dict(nets.actor)
        assert payload["critic"] == mlp_to_dict(nets.critic)

    def test_file_with_target_nets_still_loads(self, tmp_path):
        # earlier versions wrote the target nets too, under the same version 1 header
        hyper = DdpgHyper.for_env(InsertionEnvConfig(), actor_hidden=(8,), critic_hidden=(8,))
        nets = make_agent(hyper, 5)
        nets.targets += 1.0  # targets that differ from the actor and critic cannot be mistaken for them
        path = tmp_path / "ckpt.json"
        save_agent_checkpoint(path, nets, hyper)
        payload = json.loads(path.read_text())
        payload["target_actor"] = mlp_to_dict(nets.target_actor)
        payload["target_critic"] = mlp_to_dict(nets.target_critic)
        path.write_text(json.dumps(payload))
        actor, loaded_hyper = load_agent_checkpoint(path)
        assert np.array_equal(actor.vector, nets.actor.vector)
        assert actor.layer_sizes == nets.actor.layer_sizes
        assert loaded_hyper == DdpgHyper()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for header in ('{"format": "other", "version": 1}', '{"format": "agent-checkpoint", "version": 9}', "[1, 2]"):
            path.write_text(header)
            with pytest.raises(InputError, match="header"):
                load_agent_checkpoint(path)


class TestSweep:
    def test_grid_evaluated(self, tmp_path):
        env = InsertionEnvConfig(horizon=6)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
        nets = make_agent(hyper, 0)
        ckpt = tmp_path / "ckpt.json"
        save_agent_checkpoint(ckpt, nets, hyper)
        rows = adaptability_sweep(ckpt, env, (0.0005, 0.0001), (0.0, 0.0005), 2, 0,
                                  tmp_path / "sweep.csv")
        assert len(rows) == 4
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("clearance_m,hole_offset_m,success_rate")

    def test_cell_seeds_are_spawned_over_grid_indices(self, tmp_path):
        env = InsertionEnvConfig(horizon=6)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
        nets = make_agent(hyper, 0)
        ckpt = tmp_path / "ckpt.json"
        save_agent_checkpoint(ckpt, nets, hyper)
        clearances, offsets = (0.0005, 0.0001), (-0.0005, 0.0, 0.0005)
        rows = adaptability_sweep(ckpt, env, clearances, offsets, 3, 4, tmp_path / "sweep.csv")
        actor, loaded_hyper = load_agent_checkpoint(ckpt)
        children = np.random.SeedSequence(4).spawn(len(clearances) * len(offsets))
        for k, row in enumerate(rows):
            clearance, offset = clearances[k // len(offsets)], offsets[k % len(offsets)]
            assert (row["clearance"], row["hole_offset"]) == (clearance, offset)
            cell_env = replace(env, hole_half_width=env.peg_half_width + clearance,
                               hole_center_offset=offset, success_tolerance=None, target_point=None)
            expected = evaluate_policy(actor, loaded_hyper, cell_env, 3, children[k])
            assert (row["success_rate"], row["mean_return"], row["mean_steps"]) == (
                expected.success_rate, expected.mean_return, expected.mean_steps)


class TestCli:
    def test_train_and_eval_and_sweep(self, tiny_spec_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["train", "--spec", str(tiny_spec_path), "--out", str(out)]) == 0
        ckpt = out / "seed_0" / "checkpoint.json"
        capsys.readouterr()  # discard the train command's status line

        assert cli_main(["eval", "--checkpoint", str(ckpt), "--episodes", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["success_rate"] <= 1.0

        assert cli_main(["sweep", "--checkpoint", str(ckpt), "--spec", str(tiny_spec_path),
                         "--out", str(tmp_path / "sweep")]) == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()

        assert cli_main(["compare", "--run-a", str(out), "--run-b", str(out),
                         "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()

    def test_train_without_sched_getaffinity(self, tiny_spec_path, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; train ended in an AttributeError traceback there,
        # after --out was made
        monkeypatch.delattr(os, "sched_getaffinity")
        out = tmp_path / "run"
        assert cli_main(["train", "--spec", str(tiny_spec_path), "--out", str(out)]) == 0
        assert (out / "aggregate.json").exists()

    @pytest.mark.parametrize("error", [cls for cls in vars(exceptions).values() if isinstance(cls, type)
                                       and issubclass(cls, Exception) and cls.__module__ == exceptions.__name__]
                             + [OSError], ids=lambda cls: cls.__name__)
    def test_each_exception_type_exits_with_its_documented_code(self, tmp_path, capsys, monkeypatch, error):
        # README's exit codes: every exception type of the package, including one added later, has one
        codes = [code for root, code in ((exceptions.InputError, 2), (exceptions.NumericalError, 3), (OSError, 1))
                 if issubclass(error, root)]
        assert len(codes) == 1, f"{error.__name__} has no documented exit code"

        def raise_error(spec_path, out_dir):
            raise error("the message")

        monkeypatch.setattr("guided_ddpg.cli.run_experiment", raise_error)
        assert cli_main(["train", "--spec", str(tmp_path / "any.spec"), "--out", str(tmp_path / "o")]) == codes[0]
        err = capsys.readouterr().err
        assert "the message" in err and "Traceback" not in err

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("seeds = 0\nepochs = many\n")
        assert cli_main(["train", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line", ["seeds = 0,0", "seed = 3"])
    def test_duplicate_seeds_or_seed_key_exit_code(self, tiny_spec_path, tmp_path, capsys, line):
        spec = spec_with_line(tiny_spec_path, line)
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "already given" not in err

    def test_duplicate_key_exit_code(self, tiny_spec_path, tmp_path, capsys):
        spec = tmp_path / "twice.spec"
        spec.write_text(tiny_spec_path.read_text() + "epochs = 3\n")
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        epochs_line = TINY_SPEC.splitlines().index("epochs = 1") + 1
        last_line = len(TINY_SPEC.splitlines()) + 1
        assert f"line {last_line}: key 'epochs' already given on line {epochs_line}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_duplicate_key_in_env_config_exit_code(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(self._checkpoint_payload(tmp_path)))
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("horizon = 6\nhorizon = 7\n")
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--episodes", "1", "--env-config", str(env_cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 2: key 'horizon' already given on line 1" in err and "Traceback" not in err

    def test_non_utf8_spec_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "latin.spec"
        spec.write_bytes(b"seeds = 0 # \xff\xfe\n")
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", '{"algorithm": "x"}', '{"per_seed": []}', '{"per_seed": [1]}'])
    def test_malformed_aggregate_exit_code(self, tmp_path, capsys, text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "aggregate.json").write_text(text)
        assert cli_main(["compare", "--run-a", str(run), "--run-b", str(run), "--out", str(tmp_path / "cmp")]) == 2
        assert "aggregate.json" in capsys.readouterr().err

    @staticmethod
    def _compare_exit_code(tmp_path, key: str, value: str) -> int:
        """``compare`` of a run with itself, whose second seed's ``key`` reads the JSON text ``value``."""
        fields = {"seed": "1", "auc": "0.5", "final": "0.5", "to_0.5": "25", "to_0.9": "null", "budget": "100"}
        good, bad = ("{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}" for row in (fields, {**fields, key: value}))
        run = tmp_path / "run"
        run.mkdir()
        (run / "aggregate.json").write_text(f'{{"algorithm": "guided_ddpg", "per_seed": [{good}, {bad}]}}')
        return cli_main(["compare", "--run-a", str(run), "--run-b", str(run), "--out", str(tmp_path / "cmp")])

    @pytest.mark.parametrize("key,value", [("final", '"slow"'), ("auc", "null"), ("to_0.9", '"12"'),
                                           ("budget", "true")])
    def test_aggregate_field_of_wrong_type_exit_code(self, tmp_path, capsys, key, value):
        assert self._compare_exit_code(tmp_path, key, value) == 2
        err = capsys.readouterr().err
        assert "input error" in err and key in err and "Traceback" not in err

    # each exited 0 as a median: json reads NaN, Infinity and -1e400 (-inf), and comparison.csv held inf,
    # nan and -inf; an integer past float64's range ended in an OverflowError traceback with exit 1
    @pytest.mark.parametrize("key,value", [("budget", "Infinity"), ("final", "NaN"), ("to_0.9", "-1e400"),
                                           ("final", "-3"), ("auc", "1.5"), ("budget", "-0.5"),
                                           ("to_0.5", "-25"), ("to_0.5", "1e400"),
                                           pytest.param("budget", "1" + "0" * 400, id="budget-10**400")])
    def test_aggregate_field_not_finite_or_out_of_range_exit_code(self, tmp_path, capsys, key, value):
        out = tmp_path / "cmp"
        assert self._compare_exit_code(tmp_path, key, value) == 2
        err = capsys.readouterr().err
        assert "input error" in err and key in err and "Traceback" not in err
        assert not out.exists()

    def test_compare_of_incomplete_aggregate_leaves_no_out(self, tmp_path, capsys):
        run = write_aggregate(tmp_path / "run", [{"seed": 0, "auc": 0.5, "final": 0.5, "to_0.5": None}])
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--run-a", str(run), "--run-b", str(run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lacks ['to_0.9', 'budget']" in err
        assert not out.exists()

    def test_sweep_of_non_json_checkpoint_leaves_no_out(self, tiny_spec_path, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{not json")
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--checkpoint", str(ckpt), "--spec", str(tiny_spec_path), "--out", str(out)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    # terminal_weight, success_threshold, actor_lr and critic_lr are no longer keys; a spec that sets
    # one, in range or not, exits 2 on the parse
    @pytest.mark.parametrize("line", ["terminal_weight = -1", "success_threshold = 7", "eval_every = -1",
                                      "kl_step = 0", "actor_lr = 0", "critic_lr = -1", "actor_hidden = 0",
                                      "critic_hidden = 8,0"])
    def test_out_of_range_setting_exit_code(self, tiny_spec_path, tmp_path, capsys, line):
        spec = spec_with_line(tiny_spec_path, line)
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()  # rejected when the spec is parsed

    @pytest.mark.parametrize("line", ["hole_center_offset = 0.03", "hole_center_offset = 1e300"])
    def test_slot_outside_the_workspace_exit_code(self, tiny_spec_path, tmp_path, capsys, line):
        # the first trained on a slot outside the box; the second exited 3 after --out was made
        spec = spec_with_line(tiny_spec_path, line)
        with np.errstate(all="ignore"):
            assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "workspace box must contain the slot" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_sweep_cell_outside_the_workspace_exit_code(self, tiny_spec_path, tmp_path, capsys):
        spec = tmp_path / "far.spec"
        spec.write_text(tiny_spec_path.read_text().replace(
            "sweep_hole_offsets = 0.0,0.0005", "sweep_hole_offsets = 0.0,0.03"))
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(self._checkpoint_payload(tmp_path)))
        assert cli_main(["sweep", "--checkpoint", str(ckpt), "--spec", str(spec),
                         "--out", str(tmp_path / "sweep")]) == 2
        err = capsys.readouterr().err
        assert "workspace box must contain the slot" in err and "Traceback" not in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("line", ["sweep_clearances = -1", "sweep_hole_offsets = 0.0,0.03"])
    def test_a_spec_that_sweep_rejects_exits_2_at_train_before_out(self, tiny_spec_path, tmp_path, line):
        # train accepted sweep_clearances = -1 and exited 0, and sweep on the same spec then exited 2
        spec = spec_with_line(tiny_spec_path, line)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(self._checkpoint_payload(tmp_path)))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        errors = []
        for args in (["train", "--spec", str(spec)], ["sweep", "--checkpoint", str(ckpt), "--spec", str(spec)]):
            out = tmp_path / args[0]
            proc = subprocess.run([sys.executable, "-m", "guided_ddpg.cli", *args, "--out", str(out)], env=env,
                                  capture_output=True, text=True, timeout=120, check=False)
            assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
            assert not out.exists()
            errors.append(proc.stderr)
        assert errors[0] == errors[1] and "invalid spec" in errors[0] and "sweep cell" in errors[0]

    def test_far_start_exit_code(self, tiny_spec_path, tmp_path, capsys):
        # with the start 1e150 from the target, the cube of the supervisor's cost norm overflowed Python's
        # float pow, a traceback with exit 1; the start pose is a constant, so the target is what lies far
        # since the learner runs in float32, such a target is past the distance bound and rejected up front
        spec = spec_with_line(tiny_spec_path, "target_point = 0.0, -1e150")
        with np.errstate(all="ignore"):
            code = cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("down", ["-4.3e9", "-5e18", "-1e30"])
    def test_target_past_the_float32_bound_exit_code(self, tiny_spec_path, tmp_path, capsys, down):
        # the float32 learner trained through overflow warnings at -1e30 and -5e18 (and exited 3 after --out
        # at -1e150, above); each is now rejected before --out, as is the first distance past the bound
        spec = spec_with_line(tiny_spec_path, f"target_point = 0.0, {down}")
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "fourth power overflows float32" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_far_start_trains_without_a_linalg_warning(self, tiny_spec_path, tmp_path):
        # with the start 1e150 up, scipy's posv printed two LinAlgWarning blocks on the supervisor's
        # ill-conditioned fits; the start pose is a constant, so the target is what lies far here, as
        # far as the float32 bound admits. A fresh interpreter shows what a user sees on stderr, which
        # pytest's own capture would hide
        spec = spec_with_line(tiny_spec_path, "target_point = 0.0, -4.29e9")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "guided_ddpg.cli", "train", "--spec", str(spec),
                               "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True,
                              timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        assert "LinAlgWarning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr

    def test_target_too_far_from_the_start_exit_code(self, tiny_spec_path, tmp_path, capsys):
        # every return was -inf: train exited 3 after --out was made, eval printed -Infinity with exit 0
        spec = spec_with_line(tiny_spec_path, "target_point = 0.0, -1e300")
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "too far from the start pose" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text("horizon = 6\ntarget_point = 0.0, -1e300\n")
        text = json.dumps(self._checkpoint_payload(tmp_path))
        assert self._eval_exit_code(tmp_path, text, "--env-config", str(env_cfg)) == 2
        assert "too far from the start pose" in capsys.readouterr().err

    def test_missing_checkpoint_exit_code(self, tmp_path):
        code = cli_main(["eval", "--checkpoint", str(tmp_path / "nope.json")])
        assert code == 1

    @staticmethod
    def _checkpoint_payload(tmp_path) -> dict:
        env = InsertionEnvConfig(horizon=6)
        hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
        path = tmp_path / "good.json"
        save_agent_checkpoint(path, make_agent(hyper, 0), hyper)
        return json.loads(path.read_text())

    def _eval_exit_code(self, tmp_path, text: str, *extra) -> int:
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        return cli_main(["eval", "--checkpoint", str(path), "--episodes", "1", *extra])

    def test_checkpoint_invalid_json_exit_code(self, tmp_path, capsys):
        assert self._eval_exit_code(tmp_path, "{not json") == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [-5.0, 0.0])
    def test_checkpoint_non_positive_action_bound_exit_code(self, tmp_path, capsys, bound):
        payload = self._checkpoint_payload(tmp_path)
        payload["action_bound"] = bound
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2
        err = capsys.readouterr().err
        assert "action_bound" in err and "constant scaling" in err and "Traceback" not in err

    def test_checkpoint_missing_actor_exit_code(self, tmp_path):
        payload = self._checkpoint_payload(tmp_path)
        del payload["actor"]
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2

    def test_checkpoint_truncated_weight_row_exit_code(self, tmp_path):
        payload = self._checkpoint_payload(tmp_path)
        payload["actor"]["weights"][0][3].pop()
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2

    def test_checkpoint_unknown_activation_exit_code(self, tmp_path, capsys):
        payload = self._checkpoint_payload(tmp_path)
        for activation in ("sigmoid", "relu"):
            payload["actor"]["hidden_activation"] = activation
            assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2
            err = capsys.readouterr().err
            assert activation in err and "Traceback" not in err

    @pytest.mark.parametrize("sizes", [[3, 4, 2], [6, 4, 3]], ids=["3-4-2", "6-4-3"])
    def test_checkpoint_actor_of_wrong_shape_exit_code(self, tmp_path, capsys, sizes):
        # an actor must map the 6 state entries to the 2 action entries; [3, 4, 2] with three
        # obs_scale entries used to load and fail on broadcasting, [6, 4, 3] inside env_step
        payload = self._checkpoint_payload(tmp_path)
        payload["actor"] = mlp_to_dict(mlp_init(sizes, "tanh", seed=0))
        payload["obs_scale"] = payload["obs_scale"][: sizes[0]]
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2
        err = capsys.readouterr().err
        assert str(sizes) in err and "Traceback" not in err

    @pytest.mark.parametrize("obs_scale", [[1.0, float("nan"), 1.0, 1.0, 1.0, 1.0], [1.0] * 5],
                             ids=["nan", "five"])
    def test_checkpoint_bad_obs_scale_exit_code(self, tmp_path, capsys, obs_scale):
        payload = self._checkpoint_payload(tmp_path)
        payload["obs_scale"] = obs_scale
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2
        err = capsys.readouterr().err
        assert "obs_scale" in err and "constant scaling" in err and "Traceback" not in err

    # each loaded with exit 0: the bound through float("5") and float(True), the scale as (1, ..., 6)
    @pytest.mark.parametrize("key,value", [("obs_scale", "123456"), ("action_bound", "5"), ("action_bound", True),
                                           ("obs_scale", [True if s == 1.0 else s for s in DdpgHyper.obs_scale_array])],
                             ids=["scale-string", "bound-string", "bound-true", "scale-true"])
    def test_checkpoint_scaling_of_the_wrong_type_exit_code(self, tmp_path, capsys, key, value):
        payload = self._checkpoint_payload(tmp_path)
        payload[key] = value
        assert self._eval_exit_code(tmp_path, json.dumps(payload)) == 2
        err = capsys.readouterr().err
        assert key in err and "constant scaling" in err and "Traceback" not in err

    @staticmethod
    def _actor_of_width(width: int, written_sizes: list) -> dict:
        """A ``6-width-2`` actor entry whose ``layer_sizes`` reads ``written_sizes``."""
        return dict(mlp_to_dict(mlp_init([6, width, 2], "tanh", seed=0)), layer_sizes=written_sizes)

    # all but the last loaded with exit 0: numpy parsed "1" and True, and int() truncated 4.5 to 4 and True
    # to 1; the integer past float64's range ended in an OverflowError traceback with exit 1
    @pytest.mark.parametrize("edit", [
        lambda actor: actor["weights"][0][0].__setitem__(0, "1"),
        lambda actor: actor["biases"][-1].__setitem__(0, True),
        lambda actor: actor.update(TestCli._actor_of_width(4, [6, 4.5, 2])),
        lambda actor: actor.update(TestCli._actor_of_width(1, [6, True, 2])),
        lambda actor: actor["weights"][-1][0].__setitem__(0, 10**400),
    ], ids=["weight-string", "bias-true", "size-4.5", "size-true", "weight-10**400"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_checkpoint_actor_entry_not_a_number_exit_code(self, tiny_spec_path, tmp_path, capsys, command, edit):
        payload = self._checkpoint_payload(tmp_path)
        edit(payload["actor"])
        path, out = tmp_path / "ckpt.json", tmp_path / "out"
        path.write_text(json.dumps(payload))
        argv = [command, "--checkpoint", str(path), *(["--episodes", "1"] if command == "eval" else
                                                       ["--spec", str(tiny_spec_path), "--out", str(out)])]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "malformed network entry" in err and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_integral_float_layer_size_loads(self, tmp_path):
        payload = self._checkpoint_payload(tmp_path)
        payload["actor"] = self._actor_of_width(4, [6.0, 4.0, 2])
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        actor, _ = load_agent_checkpoint(path)
        assert actor.layer_sizes == (6, 4, 2) and actor.vector.dtype == np.float64

    # each ended in a RecursionError or UnicodeDecodeError traceback with exit 1, except compare on the
    # bytes, which exited 2 already
    @pytest.mark.parametrize("content", [NESTED_JSON.encode(), b"\xff\xfe"], ids=["nested", "not-utf8"])
    @pytest.mark.parametrize("command", ["eval", "sweep", "compare"])
    def test_unparsable_json_file_exit_code(self, tiny_spec_path, tmp_path, capsys, command, content):
        out = tmp_path / "out"
        if command == "compare":
            run = tmp_path / "run"
            run.mkdir()
            path = run / "aggregate.json"
            argv = ["compare", "--run-a", str(run), "--run-b", str(run), "--out", str(out)]
        else:
            path = tmp_path / "ckpt.json"
            argv = [command, "--checkpoint", str(path), *(["--episodes", "1"] if command == "eval" else
                                                           ["--spec", str(tiny_spec_path), "--out", str(out)])]
        path.write_bytes(content)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "not valid JSON" in captured.err and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_unallocatable_evaluation_exit_code(self, tiny_spec_path, tmp_path, capsys):
        # 10**15 episodes need more than a 47-bit address space, so the allocation fails at once
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(self._checkpoint_payload(tmp_path)))
        assert cli_main(["eval", "--checkpoint", str(ckpt), "--episodes", str(10**15)]) == 2
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and "Traceback" not in err
        spec = spec_with_line(tiny_spec_path, f"eval_episodes = {10**15}")
        assert cli_main(["sweep", "--checkpoint", str(ckpt), "--spec", str(spec),
                         "--out", str(tmp_path / "sweep")]) == 2
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["eval_episodes", "train_eval_episodes"])
    def test_unallocatable_evaluation_rejected_before_out_exists(self, tiny_spec_path, tmp_path, capsys, key):
        # the final evaluation used to fail only after a seed had trained and written its artifacts
        spec = spec_with_line(tiny_spec_path, f"{key} = {10**15}")
        out = tmp_path / "out"
        assert cli_main(["train", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "do not fit in memory" in err and "Traceback" not in err
        assert not out.exists()

    # each size is past numpy's largest dimension, except batch_size, whose sample batch would need 128 TB;
    # each ended in a traceback with exit 1, the last four after --out was made
    @pytest.mark.parametrize("line", [f"horizon = {10**23}", f"r2_capacity = {10**23}",
                                      f"train_eval_episodes = {10**23}", f"actor_hidden = 8, {10**23}",
                                      f"n_ddpg = {10**23}", f"supervision_batch_size = {10**23}",
                                      f"samples_per_subiter = {10**23}", f"batch_size = {10**12}"])
    def test_unallocatable_run_rejected_before_out_exists(self, tiny_spec_path, tmp_path, capsys, line):
        out = tmp_path / "out"
        assert cli_main(["train", "--spec", str(spec_with_line(tiny_spec_path, line)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fit in memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_unallocatable_evaluation_of_a_checkpoint_exit_code(self, tmp_path, capsys):
        text = json.dumps(self._checkpoint_payload(tmp_path))
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text(f"horizon = {10**23}\n")
        for extra in (["--env-config", str(env_cfg)], ["--episodes", str(10**23)]):
            path = tmp_path / "ckpt.json"
            path.write_text(text)
            assert cli_main(["eval", "--checkpoint", str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert "do not fit in memory" in err and "Traceback" not in err

    def test_negative_seed_exit_code(self, tiny_spec_path, tmp_path):
        with pytest.raises(SystemExit) as exc:  # argparse rejects it before any command runs
            self._eval_exit_code(tmp_path, json.dumps(self._checkpoint_payload(tmp_path)), "--seed", "-1")
        assert exc.value.code == 2
        spec = tmp_path / "neg_seed.spec"
        spec.write_text(tiny_spec_path.read_text().replace("seeds = 0,1", "seeds = 0,-1"))
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_empty_evaluation_exit_code(self, tmp_path, episodes):
        with pytest.raises(SystemExit) as exc:  # argparse rejects it before any command runs
            cli_main(["eval", "--checkpoint", str(tmp_path / "any.json"), "--episodes", episodes])
        assert exc.value.code == 2

    def test_spec_with_empty_training_evaluations_exit_code(self, tiny_spec_path, tmp_path, capsys):
        spec = tmp_path / "no_eval.spec"
        spec.write_text(tiny_spec_path.read_text().replace("train_eval_episodes = 2", "train_eval_episodes = 0"))
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "eval_episodes must be >= 1" in capsys.readouterr().err

    def test_unallocatable_replay_capacity_exit_code(self, tiny_spec_path, tmp_path, capsys):
        spec = tmp_path / "huge.spec"
        spec.write_text(tiny_spec_path.read_text().replace("r2_capacity = 500", "r2_capacity = 10000000000000"))
        assert cli_main(["train", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "does not fit in memory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # the rings are sized before --out is made

    @pytest.mark.parametrize("value,code", [("0.1", 2), ("0.0, -0.02", 0)])
    def test_env_config_target_point(self, tmp_path, value, code):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text(f"horizon = 6\ntarget_point = {value}\n")
        text = json.dumps(self._checkpoint_payload(tmp_path))
        assert self._eval_exit_code(tmp_path, text, "--env-config", str(env_cfg)) == code

    def test_non_utf8_env_config_exit_code(self, tmp_path, capsys):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_bytes(b"horizon = 6 # \xff\xfe\n")
        text = json.dumps(self._checkpoint_payload(tmp_path))
        assert self._eval_exit_code(tmp_path, text, "--env-config", str(env_cfg)) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_sweep_with_negative_hole_offset(self, tiny_spec_path, tmp_path, capsys):
        spec = tmp_path / "neg.spec"
        spec.write_text(tiny_spec_path.read_text().replace(
            "sweep_hole_offsets = 0.0,0.0005", "sweep_hole_offsets = -0.0005,0.0005"))
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(self._checkpoint_payload(tmp_path)))
        assert cli_main(["sweep", "--checkpoint", str(ckpt), "--spec", str(spec),
                         "--out", str(tmp_path / "sweep")]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == 4
