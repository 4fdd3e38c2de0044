"""scipy loads on no path of the package, and the supervisor imports no learner module.

The supervisor's solves, its last use, run on numpy alone, and no test
imports scipy either. Each case below runs in a fresh interpreter, so that
``sys.modules`` shows only what that path loads. An AST scan of every module
catches an import, deferred ones included, that no case reaches. A second
scan pins the layering: ``trajopt`` returns trajectories, and the learner
(``ddpg``, ``replay``, ``guided``) labels and stores them, so ``trajopt``
imports only ``envs`` and ``exceptions`` from the package.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.name for path in (SRC / "guided_ddpg").glob("*.py"))

TINY_TRAIN = """
from guided_ddpg.ddpg import DdpgHyper
from guided_ddpg.envs import InsertionEnvConfig
from guided_ddpg.guided import TrainConfig, train
from guided_ddpg.harness import pure_ddpg_config
from guided_ddpg.trajopt import SupervisorConfig

env = InsertionEnvConfig(horizon=6)
config = TrainConfig(
    env=env, hyper=DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,), batch_size=8,
                                     supervision_batch_size=8),
    supervisor=SupervisorConfig(samples_per_subiter=3), epochs=1, n_ddpg=2, n_inc=0, n_trajopt=1,
    r2_capacity=500, eval_every=1, eval_episodes=2,
)
"""

CASES = {
    "import_package": "import guided_ddpg",
    "import_cli": "from guided_ddpg import cli",
    "pure_train": TINY_TRAIN + "_, log = train(pure_ddpg_config(config))\nassert log.evals",
    "evaluate_policy": (
        "from guided_ddpg.ddpg import DdpgHyper, make_agent\n"
        "from guided_ddpg.envs import InsertionEnvConfig\n"
        "from guided_ddpg.guided import evaluate_policy\n"
        "env = InsertionEnvConfig(horizon=6)\n"
        "hyper = DdpgHyper.for_env(env, actor_hidden=(8,), critic_hidden=(8,))\n"
        "evaluate_policy(make_agent(hyper, 0).actor, hyper, env, 3, seed=0)"
    ),
    "guided_train": TINY_TRAIN + "_, log = train(config)\nassert log.epochs[0].status == 'ok'",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_no_path_loads_scipy(case):
    script = CASES[case] + "\nimport sys\nprint(sorted(k for k in sys.modules if k.startswith('scipy')))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip().splitlines()[-1]
    assert loaded == "[]", loaded


def scipy_imports(source: str) -> list:
    """``"line N: module"`` for each import of scipy in ``source``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in modules if name.split(".")[0] == "scipy"]
    return found


def test_the_scan_finds_deferred_and_from_imports():
    source = ("import numpy as np\nimport scipy\n\ndef f():\n    import scipy.linalg as la\n"
              "    from scipy.linalg.lapack import dpotrs\n    from .scipy import x\n    import scipyx\n")
    assert scipy_imports(source) == ["line 2: scipy", "line 5: scipy.linalg", "line 6: scipy.linalg.lapack"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    assert scipy_imports((SRC / "guided_ddpg" / module).read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set:
    """The package's modules that ``source``, a module of the package, imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # relative: from .x import y, or from . import x
            names = [f"guided_ddpg.{node.module}" if node.module else f"guided_ddpg.{alias.name}"
                     for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names
                  if name.startswith("guided_ddpg.") and name.split(".")[1] != "__init__"}
    return found


def test_the_layering_scan_finds_relative_absolute_and_deferred_imports():
    source = ("import numpy as np\nfrom .envs import rollout\nfrom . import replay, nets\n\ndef f():\n"
              "    import guided_ddpg.ddpg\n    from guided_ddpg import harness\n    from .exceptions import InputError\n")
    assert package_imports(source) == {"envs", "replay", "nets", "ddpg", "harness", "exceptions"}


def test_the_supervisor_imports_only_the_environment_and_the_exceptions():
    source = (SRC / "guided_ddpg" / "trajopt.py").read_text(encoding="utf-8")
    assert package_imports(source) <= {"envs", "exceptions"}
