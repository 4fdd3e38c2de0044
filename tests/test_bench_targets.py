"""Fast checks of what the benchmark relies on in the package.

The traced benchmark replaces package attributes by name at run time, and it
measures replay memory by pushing item objects through the buffer factories.
Its own smoke tests are slow, so this checks here that every boundary it wraps
still exists and is callable, that the update spans still find the
supervision batch and are entered once per exploratory step, that replay
stays within its memory budget, and that a tiny training run passes the
benchmark's own checks of its schedule, buffer counts, supervisor steps and
determinism. It also pins how the benchmark counts supervisor steps: it wraps
``trajopt.rollout`` and adds up ``.steps`` of every batch the wrap returns,
so each batch must count every environment step it ran.
"""
import inspect
import sys
from pathlib import Path

import pytest

from guided_ddpg import ddpg, guided, trajopt

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import replay_bytes  # noqa: E402
from perfbench.spans import wrap_targets  # noqa: E402
from perfbench.workloads import SIZES, counting_supervisor_steps, train_config, train_once  # noqa: E402

# what one exploratory step calls, in order, through the names the bench wraps
STEP_CALLS = ["critic_update", "adam_step", "actor_update", "adam_step", "target_update", "soft_update"]


def test_every_wrap_target_resolves_to_a_callable():
    targets = wrap_targets()
    assert targets
    for owner, attr, _name, _hook in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("update", ["critic_update", "actor_update"])
def test_supervision_batch_is_the_fourth_argument(update):
    # the bench names a span ``_sup`` by reading positional argument 3
    parameters = list(inspect.signature(getattr(guided, update)).parameters)
    assert parameters.index("sup_batch") == 3


@pytest.mark.parametrize("workload", ["guided_train", "pure_train"])
def test_each_exploratory_step_makes_one_update_triple(monkeypatch, workload):
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("critic_update", "actor_update", "target_update"):
        counting(guided, name)
    for name in ("adam_step", "soft_update"):
        counting(ddpg, name)
    _, log = guided.train(train_config(workload, 0, SIZES["tiny"]))
    steps = sum(e.steps for e in log.episodes_by_phase("ddpg"))
    assert steps > 0
    assert calls == STEP_CALLS * steps


def test_replay_holds_only_packed_rows():
    # 16 and 9 float64 columns are 128 and 72 B; the bounds leave room for the ring's header
    per_transition, per_sample = replay_bytes()
    assert per_transition <= 200.0
    assert per_sample <= 100.0


@pytest.mark.parametrize("workload", ["guided_train", "pure_train"])
def test_tiny_training_workload_passes_its_checks_and_repeats(workload, tmp_path):
    config = train_config(workload, 3, SIZES["tiny"])
    outcomes = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        outcomes.append(train_once(config, tmp_path / run))
    for outcome in outcomes:
        assert outcome.problems == []
        assert outcome.failed == 0
    assert outcomes[0].checksums == outcomes[1].checksums


def test_each_supervisor_batch_counts_n_times_horizon_steps(monkeypatch):
    config = train_config("guided_train", 3, SIZES["tiny"])
    real, batches = trajopt.rollout, []

    def recording(*args, **kwargs):
        batch = real(*args, **kwargs)
        batches.append(batch)
        return batch

    monkeypatch.setattr(trajopt, "rollout", recording)
    _, log = guided.train(config)
    assert [rec.status for rec in log.epochs] == ["ok"] * config.epochs
    n = config.supervisor.samples_per_subiter
    # each sub-iteration's n episodes as one batch, then the closing episode as a batch of one
    assert [len(b.states) for b in batches] == ([n] * config.n_trajopt + [1]) * config.epochs
    assert [b.steps for b in batches] == [len(b.states) * config.env.horizon for b in batches]


def test_the_bench_counter_sees_every_supervisor_step():
    config = train_config("guided_train", 3, SIZES["tiny"])
    with counting_supervisor_steps() as counted:
        _, log = guided.train(config)
    ok_epochs = sum(rec.status == "ok" for rec in log.epochs)
    assert ok_epochs == config.epochs
    per_epoch = config.n_trajopt * config.supervisor.samples_per_subiter + 1
    assert counted[0] == ok_epochs * per_epoch * config.env.horizon
    assert counted[0] == sum(e.steps for e in log.episodes if e.phase != "ddpg")
