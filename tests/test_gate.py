"""The learning gate, ``tests/gate.py``: its figures, its verdict and a run on the tiny schedule."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
from golden import openblas_threads, platform_fingerprint


def arm_result(aucs) -> dict:
    rows = [dict(seed=s, auc=a, final=a, budget=100, degraded=0, supervised_successes=0, supervised_episodes=1,
                 wall_s=0.0, **{"to_0.5": None, "to_0.9": None}) for s, a in enumerate(aucs)]
    return {"per_seed": rows, "aggregate": gate.aggregate(rows)}


def result_of(guided_aucs, pure_aucs=(0.0, 0.0, 0.0, 0.0)) -> dict:
    return {"margin": gate.MARGIN, "arms": {"guided": arm_result(guided_aucs), "pure": arm_result(pure_aucs)}}


def test_iqm_is_the_mean_of_the_middle_half():
    assert gate.iqm(np.array([0.0, 1.0, 2.0, 100.0])) == 1.5
    assert gate.iqm(np.array([9.0, -50.0, 1.0, 2.0, 3.0, 4.0, 70.0, 5.0])) == 3.5
    assert gate.iqm(np.array([0.25, 0.75])) == 0.5
    assert np.array_equal(gate.iqm(np.array([[4.0, 1.0, 3.0, 2.0], [1.0, 1.0, 1.0, 5.0]])), [2.5, 1.0])


def test_bootstrap_interval_brackets_the_iqm_and_repeats():
    values = [0.083, 0.013, 0.061, 0.474]
    low, high = gate.bootstrap_ci(values, np.random.default_rng(gate.BOOTSTRAP_SEED))
    assert min(values) <= low <= gate.iqm(np.array(values)) <= high <= max(values)
    assert [low, high] == gate.bootstrap_ci(values, np.random.default_rng(gate.BOOTSTRAP_SEED))


def test_a_seed_that_never_reaches_a_threshold_is_censored_at_its_budget():
    agg = arm_result([0.1, 0.2, 0.3, 0.4])["aggregate"]
    assert agg["to_0.9"] == {"iqm": 100.0, "ci": [100.0, 100.0], "reached": 0}


def test_difference_interval_brackets_the_difference_and_repeats():
    got, ref = [0.0, 0.1, 0.1, 0.9], [0.3, 0.3, 0.2, 0.4]
    low, high = gate.difference_ci(got, ref, np.random.default_rng(gate.BOOTSTRAP_SEED))
    assert low <= gate.iqm(np.array(got)) - gate.iqm(np.array(ref)) <= high
    assert [low, high] == gate.difference_ci(got, ref, np.random.default_rng(gate.BOOTSTRAP_SEED))
    # the spread of both sides widens it past either side's own
    assert high - low > max(np.diff(gate.bootstrap_ci(v, np.random.default_rng(0)))[0] for v in (got, ref))


REFERENCE_AUCS = (0.083, 0.013, 0.061, 0.474, 0.404, 0.135, 0.085, 0.596, 0.0, 0.3)


@pytest.mark.parametrize("aucs, passed", [
    (REFERENCE_AUCS, True),                                  # unchanged
    (REFERENCE_AUCS[::-1], True),                            # the same seeds' figures in another order
    ((0.0, 0.3, 0.2, 0.05, 0.5, 0.1, 0.0, 0.6, 0.15, 0.1), True),  # lower, within the seeds' spread
    ((0.0,) * 10, False),                                    # no seed learns
    ((0.0,) * 9 + (0.3,), False),                            # one seed learns a little
])
def test_verdict_fails_a_drop_the_seeds_resolve(aucs, passed):
    assert gate.verdict(result_of(aucs), result_of(REFERENCE_AUCS))[0] is passed


@pytest.mark.parametrize("arm", gate.ARMS)
@pytest.mark.parametrize("figure", gate.JUDGED)
def test_verdict_checks_both_arms_auc_and_final(arm, figure):
    reference = result_of((0.5,) * 4, (0.5,) * 4)
    result = result_of((0.5,) * 4, (0.5,) * 4)
    assert gate.verdict(result, reference)[0]
    for row in result["arms"][arm]["per_seed"]:
        row[figure] = 0.0
    passed, lines = gate.verdict(result, reference)
    assert not passed
    assert [line for line in lines if "margin" in line] == [next(line for line in lines
                                                                if line.startswith(f"{arm} {figure}:"))]


def test_verdict_reads_the_margin_from_the_reference():
    # every seed 0.04 lower: the interval is the one point -0.04
    reference, result = result_of((0.3,) * 4), result_of((0.26,) * 4)
    assert gate.verdict(result, {**reference, "margin": 0.0})[0] is False
    assert gate.verdict(result, {**reference, "margin": 0.05})[0] is True


def test_separation_reads_the_auc_intervals():
    assert gate.separation(result_of((0.8, 0.9, 0.85, 0.95), (0.0, 0.1, 0.05, 0.0))) == "guided above pure"
    assert gate.separation(result_of((0.1, 0.3, 0.2, 0.0), (0.2, 0.1, 0.3, 0.0))) == "the arms' intervals overlap"


def test_tiny_schedule_writes_a_reference_and_passes_against_it(tmp_path, capsys, monkeypatch):
    reference = tmp_path / "gate.json"
    monkeypatch.setattr(gate, "REFERENCE", reference)
    assert gate.main(["--schedule", "tiny", "--write"]) == 0
    stored = json.loads(reference.read_text(encoding="utf-8"))
    assert stored["schedule"] == "tiny" and stored["margin"] == gate.MARGIN
    assert stored["platform"] == platform_fingerprint()
    for arm in gate.ARMS:
        rows = stored["arms"][arm]["per_seed"]
        assert [row["seed"] for row in rows] == list(gate.SCHEDULES["tiny"].seeds)
        # 2 + 3 exploratory episodes, each followed by an evaluation
        assert all(row["budget"] == 5 and 0.0 <= row["auc"] <= 1.0 for row in rows)
        assert set(stored["arms"][arm]["aggregate"]) == {*gate.FIGURES, "degraded", "supervised"}
    # one supervised episode per ok epoch in the guided arm, none in the pure one
    assert all(row["supervised_episodes"] + row["degraded"] == 2 for row in stored["arms"]["guided"]["per_seed"])
    assert all(row["supervised_episodes"] == 0 for row in stored["arms"]["pure"]["per_seed"])
    capsys.readouterr()

    assert gate.main(["--schedule", "tiny"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")

    for row in stored["arms"]["guided"]["per_seed"]:
        row["auc"] = 1.0  # a reference no tiny run can come near
    reference.write_text(json.dumps(stored), encoding="utf-8")
    assert gate.main(["--schedule", "tiny"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("FAIL\n") and "guided auc: " in out


def test_reference_of_another_schedule_is_refused(tmp_path, capsys, monkeypatch):
    reference = tmp_path / "gate.json"
    reference.write_text(json.dumps({"schedule": "default", "seeds": list(range(10))}), encoding="utf-8")
    monkeypatch.setattr(gate, "REFERENCE", reference)
    assert gate.main(["--schedule", "tiny"]) == 2
    assert "not 'tiny'" in capsys.readouterr().out


def test_the_stored_reference_is_the_default_schedule():
    stored = json.loads(gate.REFERENCE.read_text(encoding="utf-8"))
    assert stored["schedule"] == "default" and stored["seeds"] == list(range(10))
    assert stored["margin"] == gate.MARGIN
    assert all([row["seed"] for row in stored["arms"][arm]["per_seed"]] == list(range(10)) for arm in gate.ARMS)


def test_gate_workers_run_blas_on_one_thread(monkeypatch):
    # a worker that inherits this process's BLAS, or this environment, runs two threads on two or more cores
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    environment = dict(os.environ)
    with gate.worker_pool(1) as pool:
        assert pool.submit(openblas_threads).result(timeout=120) == 1
    assert dict(os.environ) == environment


def test_importing_the_gate_leaves_the_environment_alone():
    tests = Path(__file__).resolve().parent
    code = "import os; before = dict(os.environ); import gate; assert dict(os.environ) == before"
    # unset, so that an import which sets them shows
    env = {name: value for name, value in os.environ.items() if not name.endswith("_NUM_THREADS")}
    subprocess.run([sys.executable, "-c", code], cwd=tests, env=env, check=True, timeout=120)
