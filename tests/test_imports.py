"""scipy loads on the first supervisor solve and on no other path.

Each case runs in a fresh interpreter: other tests import scipy into the
pytest process, so ``sys.modules`` there says nothing.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_TRAIN = """
from guided_ddpg.ddpg import DdpgHyper
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.guided import TrainConfig, train
from guided_ddpg.harness import pure_ddpg_config
from guided_ddpg.trajopt import SupervisorConfig

env = InsertionEnvConfig(horizon=6)
config = TrainConfig(
    env=env, hyper=DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,), batch_size=8,
                                     supervision_batch_size=8, supervision_decay=5.0),
    supervisor=SupervisorConfig(samples_per_subiter=3), epochs=1, n_ddpg=2, n_inc=0, n_trajopt=1,
    r1_capacity=50, r2_capacity=500, eval_every=1, eval_episodes=2, kl_step=20.0,
)
"""

CASES = {
    "import_package": ("import guided_ddpg", False),
    "import_cli": ("from guided_ddpg import cli", False),
    "pure_train": (TINY_TRAIN + "_, log = train(pure_ddpg_config(config))\nassert log.evals", False),
    "evaluate_policy": (
        "from guided_ddpg.ddpg import DdpgHyper, make_agent\n"
        "from guided_ddpg.envs import InsertionEnvConfig\n"
        "from guided_ddpg.guided import evaluate_policy\n"
        "env = InsertionEnvConfig(horizon=6)\n"
        "hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))\n"
        "evaluate_policy(make_agent(hyper, 0).actor, hyper, env, 3, seed=0)",
        False,
    ),
    "guided_train": (TINY_TRAIN + "_, log = train(config)\nassert log.epochs[0].status == 'ok'", True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_loads_only_for_the_supervisor(case):
    code, loads_scipy = CASES[case]
    script = code + "\nimport sys\nprint(sorted(k for k in sys.modules if k.startswith('scipy')))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().splitlines()[-1]
    assert (loaded != "[]") == loads_scipy, loaded
