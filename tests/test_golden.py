"""The determinism contract, pinned: outputs hash to the stored golden checksums.

``tests/golden.py`` documents what is hashed and regenerates the file. The
bits depend on numpy and its BLAS kernels, so on a platform whose fingerprint
differs from the stored one the checks skip and name the difference.
"""
import json

import pytest

from golden import GOLDEN, compute_checksums, platform_mismatch

STORED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    mismatch = platform_mismatch()
    if mismatch:
        pytest.skip(f"golden checksums were made on another platform; (stored, here): {mismatch}")
    return compute_checksums(tmp_path_factory.mktemp("golden"))


def test_the_same_outputs_are_hashed(computed):
    assert sorted(computed) == sorted(STORED["sha256"])


@pytest.mark.parametrize("name", sorted(STORED["sha256"]))
def test_output_matches_golden_checksum(name, computed):
    assert computed[name] == STORED["sha256"][name], f"{name} changed; see tests/golden.py"
