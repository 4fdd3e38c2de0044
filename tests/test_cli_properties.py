"""The exit-code contract of ``guided-ddpg train``, as a property over spec edits.

Each example sets one key of the tiny spec to an extreme value and runs the
command in-process. Whatever the edit, the command exits 0, 2 or 3 without a
traceback; exit 2 leaves no ``--out`` behind; exit 0 leaves every artifact
written and readable.
"""
import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from guided_ddpg.cli import main as cli_main
from guided_ddpg.harness import SPEC_SECTIONS, config_keys
from test_harness import TINY_SPEC

EXTREMES = ("0", "-1", "1e-12", "-1e-12", "1e300", "1e-300")
SEED_ARTIFACTS = ("training_log.csv", "timings.csv", "checkpoint.json", "supervisor_diag.csv", "summary.json")


def edited_spec(key: str, value: str) -> str:
    """The tiny spec with ``key = value`` in place of the line that sets ``key``, if any."""
    kept = [line for line in TINY_SPEC.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


def assert_readable(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text)
    else:
        assert next(csv.reader(io.StringIO(text)), None), f"{path.name} has no header row"


# 300 examples exhaust the 44 keys x 6 values (about 4 s): hypothesis stops once every pair has run.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(key=st.sampled_from(sorted(config_keys(SPEC_SECTIONS))), value=st.sampled_from(EXTREMES))
def test_train_keeps_the_exit_code_contract(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "edited.spec", Path(tmp) / "out"
        spec.write_text(edited_spec(key, value))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = cli_main(["train", "--spec", str(spec), "--out", str(out)])
        assert code in (0, 2, 3), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            assert not out.exists()
        if code == 0:
            aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
            for seed in aggregate["seeds"]:
                for name in SEED_ARTIFACTS:
                    assert_readable(out / f"seed_{seed}" / name)
            for path in out.rglob("*.*"):
                assert_readable(path)
