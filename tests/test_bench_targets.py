"""The traced benchmark replaces package attributes by name at run time.

Its own smoke tests are slow, so this checks here that every boundary it wraps
still exists and is callable.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import wrap_targets  # noqa: E402


def test_every_wrap_target_resolves_to_a_callable():
    targets = wrap_targets()
    assert targets
    for owner, attr, _name, _hook in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
