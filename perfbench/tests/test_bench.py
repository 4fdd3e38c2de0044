"""Tiny-size smoke tests of the benchmark (horizon 6, hidden 8, batch 8).

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from guided_ddpg import guided  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.SIZES["tiny"]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def bench(capsys, workload, trace, seed=3, seconds=0.01):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    sizes_name="tiny")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][2:])


def test_benchmark_json_matches_printed_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_repeat_schedule_follows_from_the_arguments_alone():
    assert run.schedule("guided_train", 30, False) == [(0, False), (1, False), (2, False), (0, False)]
    assert run.schedule("guided_train", 30, True) == [(0, False), (0, True), (1, False), (1, True)]
    assert run.schedule("eval_sweep", 0.01, False) == [(0, False), (0, False)]
    assert run.schedule("eval_sweep", 15, False) == [(0, False)] * 3
    assert run.schedule("eval_sweep", 0.01, True) == [(0, False), (0, True)]
    seeds = workloads.train_seeds(5, 3)
    assert seeds[0] == 5 and len(set(seeds)) == 3
    assert workloads.train_seeds(5, 2) == seeds[:2]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    result, details = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_longer_runs_repeat_over_several_seeds(capsys, workload):
    result, details = bench(capsys, workload, 0, seconds=16)
    assert result["correct"], details["problems"]
    n = round(16 / run.REPEAT_S[workload])
    assert details["repeats_untraced"] == n
    distinct = 1 if workload == "eval_sweep" else n - 1
    assert len(set(details["seeds"])) == distinct and details["seeds"][0] == 3


def test_traced_run_confirms_bypass_predictions(capsys):
    metrics = {w: bench(capsys, w, 1)[0]["metrics"] for w in run.WORKLOADS}
    value = lambda w, name: metrics[w][name]["value"]  # noqa: E731
    assert value("guided_train", "trajopt.calls") > 0
    assert value("guided_train", "ddpg.critic_update_sup.calls") > 0
    assert value("pure_train", "trajopt.calls") == 0
    assert value("eval_sweep", "trajopt.calls") == 0
    for name in run.UPDATES + ("ddpg.target_update",):
        assert value("eval_sweep", f"{name}.calls") == 0
    assert value("pure_train", "ddpg.critic_update_sup.calls") == 0
    assert value("pure_train", "ddpg.actor_update_sup.calls") == 0
    assert value("pure_train", "ddpg.critic_update.calls") > 0
    assert value("eval_sweep", "envs.env_step.calls") == 25 * workloads.EPISODES_PER_CELL * TINY.horizon


@pytest.mark.parametrize("workload", ("guided_train", "pure_train"))
def test_traced_training_gives_untraced_checksums(tmp_path, workload):
    config = workloads.train_config(workload, 5, TINY)
    original = guided.critic_update
    plain = workloads.train_once(config, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        traced = workloads.train_once(config, tmp_path)
    assert guided.critic_update is original
    assert tracer.spans
    assert set(plain.checksums) == {"training_log_csv", "actor", "critic"}
    assert traced.checksums == plain.checksums
    assert plain.problems == []


def test_traced_sweep_gives_untraced_checksums(tmp_path):
    setup = workloads.eval_setup(5, TINY, tmp_path)
    plain = workloads.eval_once(setup)
    with Tracer().installed():
        traced = workloads.eval_once(setup)
    assert traced.checksums == plain.checksums
    assert plain.eval_episodes == 25 * workloads.EPISODES_PER_CELL


def test_disagreeing_repeats_are_not_correct(capsys, monkeypatch):
    real = workloads.eval_once
    calls = []

    def drifting(*args):
        outcome = real(*args)
        calls.append(1)
        outcome.checksums = {"sweep_results": str(len(calls))}
        return outcome

    monkeypatch.setattr(workloads, "eval_once", drifting)
    result, details = bench(capsys, "eval_sweep", 0)
    assert not result["correct"]
    assert "disagree" in details["problems"][0]


def test_reference_mismatch_is_not_correct(capsys, monkeypatch, tmp_path):
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    reference["tiny"]["mean_return"] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", path)
    result, details = bench(capsys, "eval_sweep", 0)
    assert not result["correct"]
    assert "reference mean return" in details["problems"][0]


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
