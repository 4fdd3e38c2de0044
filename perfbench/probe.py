"""One set-up of a workload in a fresh interpreter, timed from before the imports.

Run as ``python -m perfbench.probe <workload> <seed> <sizes> <workdir>`` with
the package's ``src`` directory on ``PYTHONPATH``. Prints one JSON line:
``setup_s`` (imports, config construction and, for ``eval_sweep``, the
checkpoint write and read) plus the checkpoint write and read times alone.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> None:
    workload, seed, sizes_name, workdir = argv
    from perfbench import workloads

    sizes = workloads.SIZES[sizes_name]
    save_s = load_s = 0.0
    if workload == "eval_sweep":
        setup = workloads.eval_setup(int(seed), sizes, Path(workdir))
        save_s, load_s = setup.save_s, setup.load_s
    else:
        workloads.train_config(workload, int(seed), sizes)
    setup_s = time.perf_counter() - _T0
    print(json.dumps({"setup_s": setup_s, "save_s": save_s, "load_s": load_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
