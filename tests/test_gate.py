"""The learning gate, ``tests/gate.py``: its specs, its verdict and a run on the tiny schedule."""
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import gate
from golden import platform_fingerprint
from guided_ddpg.ddpg import DdpgHyper
from guided_ddpg import harness
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.exceptions import NumericalError
from guided_ddpg.guided import TrainConfig, train
from guided_ddpg.harness import FIGURES, aggregate, parse_spec
from guided_ddpg.trajopt import SupervisorConfig


def arm_result(aucs) -> dict:
    rows = [dict(seed=s, auc=a, final=a, budget=100, degraded=0, supervised_successes=0, supervised_episodes=1,
                 wall_s=0.0, **{"to_0.5": None, "to_0.9": None}) for s, a in enumerate(aucs)]
    return {"per_seed": rows, "aggregate": aggregate(rows)["aggregate"]}


def result_of(guided_aucs, pure_aucs=(0.0, 0.0, 0.0, 0.0)) -> dict:
    return {"margin": gate.MARGIN, "arms": {"guided": arm_result(guided_aucs), "pure": arm_result(pure_aucs)}}


# the schedules' configs before they became spec files, which the stored reference was trained on
TINY = TrainConfig(
    env=InsertionEnvConfig(horizon=6),
    hyper=DdpgHyper(batch_size=8, supervision_batch_size=8, actor_hidden=(8,), critic_hidden=(8,)),
    supervisor=SupervisorConfig(samples_per_subiter=3),
    epochs=2, n_ddpg=2, n_inc=1, n_trajopt=1, eval_every=1, eval_episodes=3,
)
SCHEDULES = {"default": (TrainConfig(epochs=8), tuple(range(10)), 50), "tiny": (TINY, (0, 1), 5)}


@pytest.mark.parametrize("schedule", gate.SCHEDULES)
def test_the_arms_specs_are_the_schedule_and_differ_only_in_n_trajopt(schedule):
    config, seeds, final_episodes = SCHEDULES[schedule]
    guided, pure = (parse_spec(gate.spec_path(schedule, arm)) for arm in gate.ARMS)
    assert (guided.train, guided.seeds, guided.eval_episodes) == (config, seeds, final_episodes)
    assert pure == replace(guided, train=replace(guided.train, n_trajopt=0))
    assert guided.train.n_trajopt > 0


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


def test_equal_figures_names_the_seeds_whose_figures_moved():
    reference = result_of(REFERENCE_AUCS, (0.1, 0.2, 0.3, 0.4))
    assert gate.equal_figures(reference, reference) == [
        "guided: every figure but wall_s equals the reference's on 10 of 10 seeds",
        "pure: every figure but wall_s equals the reference's on 4 of 4 seeds",
    ]
    result = result_of(REFERENCE_AUCS, (0.1, 0.2, 0.3, 0.4))
    result["arms"]["guided"]["per_seed"][3]["auc"] += 1e-12  # a last-place move the verdict passes
    result["arms"]["guided"]["per_seed"][7]["degraded"] = 1
    for row in result["arms"]["pure"]["per_seed"]:
        row["wall_s"] = 9.9  # timing is not a figure
    assert gate.verdict(result, reference)[0]
    assert gate.equal_figures(result, reference) == [
        "guided: every figure but wall_s equals the reference's on 8 of 10 seeds; seeds 3, 7 differ",
        "pure: every figure but wall_s equals the reference's on 4 of 4 seeds",
    ]


def test_separation_reads_the_auc_intervals():
    high, low, mixed = (0.8, 0.9, 0.85, 0.95), (0.0, 0.1, 0.05, 0.0), (0.1, 0.3, 0.2, 0.0)
    assert gate.separation(result_of(high, low)) == "guided above pure"
    assert gate.separation(result_of(low, high)) == "pure above guided"
    assert gate.separation(result_of(mixed, (0.2, 0.1, 0.3, 0.0))) == "the interval of the difference contains 0"


def test_tiny_schedule_writes_a_reference_and_passes_against_it(tmp_path, capsys, monkeypatch):
    reference = tmp_path / "gate.json"
    monkeypatch.setattr(gate, "REFERENCE", reference)
    assert gate.main(["--schedule", "tiny", "--write"]) == 0
    stored = json.loads(reference.read_text(encoding="utf-8"))
    assert stored["schedule"] == "tiny" and stored["margin"] == gate.MARGIN
    assert stored["platform"] == platform_fingerprint()
    for arm in gate.ARMS:
        rows = stored["arms"][arm]["per_seed"]
        assert [row["seed"] for row in rows] == [0, 1]
        # 2 + 3 exploratory episodes, each followed by an evaluation
        assert all(row["budget"] == 5 and 0.0 <= row["auc"] <= 1.0 for row in rows)
        assert set(rows[0]) == set(gate.ROW)
        assert set(stored["arms"][arm]["aggregate"]) == {*FIGURES, "degraded", "supervised"}
    # one supervised episode per ok epoch in the guided arm, none in the pure one
    assert all(row["supervised_episodes"] + row["degraded"] == 2 for row in stored["arms"]["guided"]["per_seed"])
    assert all(row["supervised_episodes"] == 0 for row in stored["arms"]["pure"]["per_seed"])
    capsys.readouterr()

    assert gate.main(["--schedule", "tiny"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS\n") and "guided: every figure but wall_s equals the reference's on 2 of 2 seeds\n" in out

    for row in stored["arms"]["guided"]["per_seed"]:
        row["auc"] = 1.0  # a reference no tiny run can come near
    reference.write_text(json.dumps(stored), encoding="utf-8")
    assert gate.main(["--schedule", "tiny"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("FAIL\n") and "guided auc: " in out and "on 0 of 2 seeds; seeds 0, 1 differ" in out


def test_a_failed_seed_fails_the_gate_and_writes_no_reference(tmp_path, capsys, monkeypatch):
    def raise_on_seed_1(config):
        if config.seed == 1:
            raise NumericalError("critic loss is non-finite; parameters unchanged")
        return train(config)

    # a patch reaches no spawned worker, so the seeds train in this process
    monkeypatch.setattr(harness, "train", raise_on_seed_1)
    monkeypatch.setattr(harness, "worker_pool", lambda max_workers: ThreadPoolExecutor(1))
    reference = tmp_path / "gate.json"
    monkeypatch.setattr(gate, "REFERENCE", reference)
    assert gate.main(["--schedule", "tiny", "--write"]) == 1
    assert not reference.exists()
    assert capsys.readouterr().out.endswith("the reference is not written\n")

    stored = {"schedule": "tiny", "seeds": [0, 1], "margin": 1.0,  # a margin no surviving seed could fail
              "arms": {arm: arm_result((0.0, 0.0)) for arm in gate.ARMS}}
    reference.write_text(json.dumps(stored), encoding="utf-8")
    assert gate.main(["--schedule", "tiny"]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 seeds failed" in out and "seed 1: critic loss is non-finite" in out
    assert out.endswith("FAIL\n")


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
