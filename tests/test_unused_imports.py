"""Every name that a module of the package imports is used in that module.

A name counts as used when it appears as an ``ast.Name`` anywhere in the
module, annotations included. An import on a line marked ``# noqa: F401`` is
exempt: the mark keeps a name that another module reaches by attribute.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guided_ddpg"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``"line N: name"`` for each imported name of ``source`` that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_the_check_finds_an_unused_import_and_honours_the_mark():
    source = ("from __future__ import annotations\nimport os\nimport sys  # noqa: F401\n"
              "import scipy.linalg\nfrom a import (\n    b as c,\n    d,\n)\n\n"
              "def f(x: d) -> None:\n    return scipy.linalg.solve(c, x)\n")
    assert unused_imports(source) == ["line 2: os"]


def test_modules_exist():
    assert "guided.py" in MODULES and "trajopt.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
