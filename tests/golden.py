"""Golden sha256 checksums of the package's deterministic outputs.

The determinism contract says that the same config and seed give the same
bytes. ``tests/test_golden.py`` checks that against ``tests/golden.json``:

- ``training_log.csv``, actor and critic of the benchmark's tiny
  ``guided_train`` and ``pure_train`` runs (``perfbench.workloads.train_once``)
  at seeds 0 and 7;
- the ``sweep_results`` of the benchmark's tiny ``eval_sweep`` at seeds 0 and 7;
- the same outputs of short runs at the benchmark's paper sizes, at seeds 0
  and 7 (:data:`PAPER_SCHEDULES`, and :data:`PAPER_EPISODES_PER_CELL`
  episodes per sweep cell). numpy's matmul bits depend on the shape (at
  64x64 float32, ``h @ w.T`` and ``h @ np.ascontiguousarray(w.T)`` differ
  below 19 rows), so the tiny runs alone leave the 64-wide products at 64
  rows that every benchmark workload runs unpinned;
- the deterministic tables of a command-line run of the tiny experiment spec
  of ``tests/test_harness.py``: each seed's ``training_log.csv`` and
  ``supervisor_diag.csv``, ``learning_curves.csv``, and the ``sweep.csv`` of
  seed 0's checkpoint.

The bits depend on numpy and on the BLAS kernels it runs, so the file also
stores a platform fingerprint; the test skips on another platform. A
``DYNAMIC_ARCH`` OpenBLAS picks its kernels when it loads, by CPU, so the
fingerprint holds the core it picked as well as the build it reports.

A change that is meant to keep every byte leaves ``golden.json`` as it is.
A change that moves the numbers regenerates it::

    PYTHONPATH=src python tests/golden.py --write

Without ``--write`` the script prints each checksum that differs from the file.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT, ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from guided_ddpg.cli import main as cli_main  # noqa: E402
from perfbench.workloads import SIZES, eval_once, eval_setup, train_config, train_once  # noqa: E402
from test_harness import TINY_SPEC  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 7)
PAPER_SCHEDULES = {
    "guided_train": dict(epochs=1, n_ddpg=2, n_inc=0),
    "pure_train": dict(epochs=1, n_ddpg=3, n_inc=0),
}
PAPER_EPISODES_PER_CELL = 2


def openblas_function(name: str, restype):
    """numpy's bundled OpenBLAS's ``name`` function (``get_corename``, ...) through ctypes, or ``None``.

    ``None`` for a numpy without a bundled OpenBLAS, or whose library lacks it.
    The function takes no arguments and returns ``restype``.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                function = getattr(lib, f"{prefix}{name}{suffix}", None)
                if function is not None:
                    function.argtypes, function.restype = [], restype
                    return function
    return None


def openblas_corename():
    """The kernel set numpy's bundled OpenBLAS chose at run time, or ``None``."""
    get = openblas_function("get_corename", ctypes.c_char_p)
    return None if get is None else get().decode()


def openblas_threads():
    """The thread count numpy's bundled OpenBLAS runs with in this process, or ``None``."""
    get = openblas_function("get_num_threads", ctypes.c_int)
    return None if get is None else get()


def platform_fingerprint() -> dict:
    """The numpy version, the BLAS build that numpy reports and the OpenBLAS core it runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_configuration": blas.get("openblas configuration"),
        "openblas_corename": openblas_corename(),
    }


def platform_mismatch() -> dict:
    """``{key: (stored, here)}`` for each fingerprint entry that differs from ``golden.json``'s.

    Empty on the platform the stored bits were made on; tests that pin the
    bits of a BLAS or LAPACK kernel skip elsewhere.
    """
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))["platform"]
    return {key: (stored.get(key), value) for key, value in platform_fingerprint().items()
            if stored.get(key) != value}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"guided-ddpg {' '.join(argv)} exited {code}")


def compute_checksums(workdir: Path) -> dict:
    """``{name: sha256}`` of every output the golden file pins."""
    sums = {}
    for workload in ("guided_train", "pure_train"):
        for seed in SEEDS:
            outcome = train_once(train_config(workload, seed, SIZES["tiny"]), workdir)
            for key, value in outcome.checksums.items():
                sums[f"{workload}/seed_{seed}/{key}"] = value
            paper = replace(train_config(workload, seed, SIZES["paper"]), **PAPER_SCHEDULES[workload])
            for key, value in train_once(paper, workdir).checksums.items():
                sums[f"paper/{workload}/seed_{seed}/{key}"] = value
    for seed in SEEDS:
        outcome = eval_once(eval_setup(seed, SIZES["tiny"], workdir))
        sums[f"eval_sweep/seed_{seed}/sweep_results"] = outcome.checksums["sweep_results"]
        outcome = eval_once(eval_setup(seed, SIZES["paper"], workdir), PAPER_EPISODES_PER_CELL)
        sums[f"paper/eval_sweep/seed_{seed}/sweep_results"] = outcome.checksums["sweep_results"]

    spec = workdir / "tiny.spec"
    spec.write_text(TINY_SPEC, encoding="utf-8")
    run = workdir / "run"
    _cli("train", "--spec", str(spec), "--out", str(run))
    _cli("sweep", "--checkpoint", str(run / "seed_0" / "checkpoint.json"), "--spec", str(spec),
         "--out", str(workdir / "sweep"))
    for seed_dir in sorted(run.glob("seed_*")):
        for table in ("training_log.csv", "supervisor_diag.csv"):
            sums[f"cli/{seed_dir.name}/{table}"] = _sha256(seed_dir / table)
    sums["cli/learning_curves.csv"] = _sha256(run / "learning_curves.csv")
    sums["cli/sweep.csv"] = _sha256(workdir / "sweep" / "sweep.csv")
    return sums


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name} with the computed checksums")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sums = compute_checksums(Path(tmp))
    golden = {"platform": platform_fingerprint(), "sha256": sums}
    if args.write:
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(sums)} checksums to {GOLDEN}")
        return 0
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if stored["platform"] != golden["platform"]:
        print(f"platform differs from {GOLDEN.name}: {stored['platform']} != {golden['platform']}")
    differing = sorted(name for name in stored["sha256"].keys() | sums.keys()
                       if stored["sha256"].get(name) != sums.get(name))
    for name in differing:
        print(f"{name}: stored {stored['sha256'].get(name)}, computed {sums.get(name)}")
    print(f"{len(differing)} of {len(sums)} checksums differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
