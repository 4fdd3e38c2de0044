"""The exit-code contract of ``guided-ddpg``, as properties over input edits.

Each example sets one key of a tiny spec, of an environment file or of a
tiny checkpoint to an extreme value and runs ``train``, ``eval`` or
``sweep`` in-process. Whatever the edit, the command exits with one of the
codes its test allows and without a traceback; exit 2 leaves no ``--out``
behind; exit 0 leaves every artifact written and readable.
"""
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guided_ddpg.cli import main as cli_main
from guided_ddpg.ddpg import DdpgHyper, make_agent
from guided_ddpg.envs import STATE_DIM, InsertionEnvConfig
from guided_ddpg.harness import SPEC_SECTIONS, config_keys, save_agent_checkpoint
from test_harness import TINY_SPEC

# The last is an integer past numpy's largest dimension, so no size set to it can be allocated.
EXTREMES = ("0", "-1", "1e-12", "-1e-12", "1e150", "1e300", "1e-300", "100000000000000000000000")
SEED_ARTIFACTS = ("training_log.csv", "timings.csv", "checkpoint.json", "supervisor_diag.csv", "summary.json")
SPEC_KEYS = sorted(config_keys(SPEC_SECTIONS))
ENV_KEYS = sorted(config_keys([("env", InsertionEnvConfig, ())]))
ENV_FILE = "horizon = 6\n"
# Where each checkpoint edit writes: the bound, each input scale, the actor's first weight and last bias.
CHECKPOINT_ENTRIES = (("action_bound",), *(("obs_scale", i) for i in range(STATE_DIM)),
                      ("actor", "weights", 0, 0, 0), ("actor", "biases", -1, 0))


def edited(text: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in place of the line that sets ``key``, if any."""
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


def run_cli(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout), np.errstate(all="ignore"):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_contract(code: int, stderr: str, allowed, out: Path | None = None) -> None:
    """``code`` is one of ``allowed``, stderr holds no traceback, and exit 2 left no ``out``."""
    assert code in allowed, stderr
    assert "Traceback" not in stderr
    if code == 2 and out is not None:
        assert not out.exists()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def strict_json(text: str):
    """``json.loads`` that fails on ``NaN``, ``Infinity`` and ``-Infinity``, which Python writes but JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_readable(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        strict_json(text)
    else:
        assert next(csv.reader(io.StringIO(text)), None), f"{path.name} has no header row"


def assert_eval_result(stdout: str) -> None:
    assert set(strict_json(stdout)) == {"success_rate", "mean_return", "mean_steps"}


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory) -> str:
    """A tiny checkpoint, built once: a fresh 8-unit actor for a 6-step environment."""
    env = InsertionEnvConfig(horizon=6)
    hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
    save_agent_checkpoint(path, make_agent(hyper, 0), hyper)
    return path.read_text(encoding="utf-8")


# 300 examples exhaust the 24 keys x 8 values: hypothesis stops once every pair has run.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(key=st.sampled_from(SPEC_KEYS), value=st.sampled_from(EXTREMES))
def test_train_keeps_the_exit_code_contract(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "edited.spec", Path(tmp) / "out"
        spec.write_text(edited(TINY_SPEC, key, value))
        code, _, stderr = run_cli(["train", "--spec", str(spec), "--out", str(out)])
        assert_contract(code, stderr, (0, 2, 3), out)
        if code == 0:
            aggregate = strict_json((out / "aggregate.json").read_text(encoding="utf-8"))
            for seed in aggregate["seeds"]:
                for name in SEED_ARTIFACTS:
                    assert_readable(out / f"seed_{seed}" / name)
            for path in out.rglob("*.*"):
                assert_readable(path)


# 150 examples exhaust the 5 keys x 8 values; an environment file never makes a numerical failure.
@settings(max_examples=150, derandomize=True, deadline=None)
@given(key=st.sampled_from(ENV_KEYS), value=st.sampled_from(EXTREMES))
def test_eval_with_an_edited_env_config_keeps_the_exit_code_contract(checkpoint_text, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, env_file = Path(tmp) / "checkpoint.json", Path(tmp) / "env.cfg"
        ckpt.write_text(checkpoint_text, encoding="utf-8")
        env_file.write_text(edited(ENV_FILE, key, value))
        code, stdout, stderr = run_cli(["eval", "--checkpoint", str(ckpt), "--env-config", str(env_file),
                                        "--episodes", "2"])
    assert_contract(code, stderr, (0, 2))
    if code == 0:
        assert_eval_result(stdout)


# 100 examples exhaust the 9 entries x 8 values.
@settings(max_examples=100, derandomize=True, deadline=None)
@given(entry=st.sampled_from(CHECKPOINT_ENTRIES), value=st.sampled_from(EXTREMES))
def test_eval_of_an_edited_checkpoint_keeps_the_exit_code_contract(checkpoint_text, entry, value):
    payload = strict_json(checkpoint_text)
    *parents, last = entry
    node = payload
    for part in parents:
        node = node[part]
    node[last] = float(value)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint.json"
        ckpt.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, stderr = run_cli(["eval", "--checkpoint", str(ckpt), "--episodes", "2"])
    assert_contract(code, stderr, (0, 2, 3))
    if code == 0:
        assert_eval_result(stdout)


# 300 examples exhaust the 24 keys x 8 values.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(key=st.sampled_from(SPEC_KEYS), value=st.sampled_from(EXTREMES))
def test_sweep_keeps_the_exit_code_contract(checkpoint_text, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, spec, out = Path(tmp) / "checkpoint.json", Path(tmp) / "edited.spec", Path(tmp) / "out"
        ckpt.write_text(checkpoint_text, encoding="utf-8")
        spec.write_text(edited(TINY_SPEC, key, value))
        code, _, stderr = run_cli(["sweep", "--checkpoint", str(ckpt), "--spec", str(spec), "--out", str(out)])
        assert_contract(code, stderr, (0, 2, 3), out)
        if code == 0:
            assert_readable(out / "sweep.csv")


def overflowing_checkpoint(checkpoint_text: str) -> str:
    """The tiny checkpoint with the actor's first weight and ``obs_scale[0]`` at 1e300:
    each is finite, but their product overflows the first layer's matmul."""
    payload = strict_json(checkpoint_text)
    payload["actor"]["weights"][0][0][0] = 1e300
    payload["obs_scale"][0] = 1e300
    return json.dumps(payload)


def test_eval_of_a_checkpoint_whose_actor_overflows_exits_2(checkpoint_text, tmp_path):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(overflowing_checkpoint(checkpoint_text), encoding="utf-8")
    code, stdout, stderr = run_cli(["eval", "--checkpoint", str(ckpt), "--episodes", "2"])
    assert_contract(code, stderr, (2,))
    assert "overflow" in stderr
    assert stdout == ""


def test_sweep_of_a_checkpoint_whose_actor_overflows_exits_2_before_out(checkpoint_text, tmp_path):
    ckpt, spec, out = tmp_path / "checkpoint.json", tmp_path / "tiny.spec", tmp_path / "out"
    ckpt.write_text(overflowing_checkpoint(checkpoint_text), encoding="utf-8")
    spec.write_text(TINY_SPEC)
    code, stdout, stderr = run_cli(["sweep", "--checkpoint", str(ckpt), "--spec", str(spec), "--out", str(out)])
    assert_contract(code, stderr, (2,), out)
    assert "overflow" in stderr
    assert stdout == "" and not out.exists()
