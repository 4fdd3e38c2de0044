"""The benchmark's correctness check, run against the stored reference values.

``perfbench/run.py`` marks a run correct only when a short sweep of a fixed
actor reproduces ``perfbench/reference.json``: success rate exactly, mean
return to 1e-6 relative. That sweep goes through ``evaluate_policy``, so a
change to evaluation that moves the numbers fails here, not only inside the
benchmark.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"


@pytest.mark.parametrize("sizes_name", ["tiny", "paper"])
def test_reference_sweep_matches_stored_values(sizes_name, tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert workloads.reference_problems(sizes_name, tmp_path, reference) == []
