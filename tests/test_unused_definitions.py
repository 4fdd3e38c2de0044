"""Every definition of the package is used by the package or by the benchmark.

A definition is a module's top-level function, class or constant, or a
method of a top-level class whose name is not a dunder. It counts as used
when some module of the package loads its name, as an ``ast.Name`` or as the
attribute of an ``ast.Attribute``, or when a file of ``perfbench/`` imports it,
names it in a string (the benchmark wraps its targets by name) or reads it as
an attribute of a name that the same file imports from the package, as in
``DdpgHyper.for_env``. Code that only tests use is deleted, not kept here.

Every parameter of a top-level function or method is read in its body too, or
updated there in place (``vector -= step``), except those in
:data:`UNREAD_PARAMETERS`, each with its reason.

Every annotated field of a class of the package is read as an attribute, by
name, somewhere in the package or in ``perfbench/``: a field that is only
written holds a value nobody uses.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "guided_ddpg"
BENCH = ROOT / "perfbench"

UNREAD_PARAMETERS = {
    "cli.py: _raise_interrupted(frame)": "signal.signal calls a handler with (signum, frame); the handler names the "
                                         "signal and has no use for the interrupted frame",
    "ddpg.py: DdpgHyper.for_env(env)": "the benchmark builds its learner as DdpgHyper.for_env(env, ...); every task "
                                       "shares one scaling, so env is not read (ROADMAP item 1)",
}


def definitions(tree: ast.Module) -> list:
    """``(line, name)`` of each top-level function, class, constant and non-dunder method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.lineno, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend((m.lineno, m.name) for m in node.body if isinstance(m, ast.FunctionDef))
    return [(line, name) for line, name in found if not (name.startswith("__") and name.endswith("__"))]


def loaded_names(tree: ast.AST) -> set:
    """Every name that ``tree`` reads as a variable or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def bench_names(tree: ast.AST, package: str) -> set:
    """Every name that ``tree`` imports from a module, every string constant in it, and every
    attribute it reads off a name that it imports from ``package``."""
    names, from_package = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if (node.module or "").split(".")[0] == package:
                from_package.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in from_package:
            names.add(node.attr)
    return names


def unused_definitions(modules: dict, bench: list, package: str) -> list:
    """``"module line N: name"`` for each definition in ``modules`` (name to source) of ``package`` that
    nothing uses."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = set().union(*(loaded_names(tree) for tree in trees.values()),
                       *(bench_names(ast.parse(source), package) for source in bench))
    return [f"{module} line {line}: {name}" for module, tree in sorted(trees.items())
            for line, name in definitions(tree) if name not in used]


def unread_parameters(modules: dict) -> list:
    """``"module: function(parameter)"`` for each parameter of a top-level function or method in ``modules``
    (name to source) that its body neither reads nor updates in place; ``self`` and ``cls`` are not counted."""
    found = []
    for module, source in sorted(modules.items()):
        tree = ast.parse(source)
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{node.name}.{m.name}", m) for node in tree.body if isinstance(node, ast.ClassDef)
                      for m in node.body if isinstance(m, ast.FunctionDef)]
        for name, function in functions:
            args = function.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            read = loaded_names(function) | {node.target.id for node in ast.walk(function)
                                             if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
            found += [f"{module}: {name}({param})" for param in params
                      if param not in read and param not in ("self", "cls")]
    return found


def unread_fields(modules: dict, others: list) -> list:
    """``"module line N: Class.field"`` for each annotated field of a class in ``modules`` (name to source) whose
    name no source in ``modules`` or ``others`` reads as an attribute, ``x.field`` in a load."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = {node.attr for tree in [*trees.values(), *map(ast.parse, others)] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module} line {item.lineno}: {cls.name}.{item.target.id}" for module, tree in sorted(trees.items())
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read]


def test_the_check_finds_an_unread_field():
    module = ("from dataclasses import dataclass\n\n@dataclass\nclass Point:\n    x: float\n    y: float\n"
              "    label: str = ''\n    unit: str = 'm'\n\n"
              "def norm(p):\n    p.label = 'seen'\n    unit = p.x\n    return unit\n")
    bench = "def show(p):\n    return p.y\n"
    # written but never read, or read only as a bare name: both are unread
    assert unread_fields({"mod.py": module}, [bench]) == ["mod.py line 7: Point.label", "mod.py line 8: Point.unit"]
    assert unread_fields({"mod.py": module}, []) == [
        "mod.py line 6: Point.y", "mod.py line 7: Point.label", "mod.py line 8: Point.unit"]


def test_every_field_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH.rglob("*.py"))]
    assert "guided.py" in modules and bench
    assert unread_fields(modules, bench) == []


def test_the_check_finds_an_unread_parameter():
    module = ("def scaled(x, factor, spare):\n    spare = 2\n    return x * factor\n\n"
              "def shift(vector, step):\n    vector -= step\n\n"
              "def nested(rows, *args, **kwargs):\n    def inner():\n        return rows\n    return inner()\n\n"
              "class Box:\n    def size(self, unit):\n        return 3\n\n"
              "    @classmethod\n    def make(cls, n):\n        return cls()\n")
    assert unread_parameters({"mod.py": module}) == [
        "mod.py: scaled(spare)", "mod.py: nested(args)", "mod.py: nested(kwargs)", "mod.py: Box.size(unit)",
        "mod.py: Box.make(n)"]


def test_every_parameter_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_parameters(modules) == list(UNREAD_PARAMETERS)


def test_the_check_finds_an_unused_definition():
    module = ("LIMIT = 3\nUNUSED = 4\n\nclass Box:\n    def __init__(self):\n        self.n = LIMIT\n\n"
              "    def size(self):\n        return self.n\n\n    def spare(self):\n        return 0\n\n"
              "def helper():\n    return Box().size()\n\ndef wrapped():\n    return helper()\n\n"
              "def orphan():\n    return 1\n")
    bench = "from pkg.mod import Box\nTARGETS = ['wrapped']\n"
    assert unused_definitions({"mod.py": module}, [bench], "pkg") == [
        "mod.py line 2: UNUSED", "mod.py line 11: spare", "mod.py line 20: orphan"]
    # an attribute of a name imported from the package counts; one of an unimported name, or of a
    # name imported from elsewhere, does not
    bench += "Box.spare()\nother.orphan()\nfrom os import path\npath.orphan()\n"
    assert unused_definitions({"mod.py": module}, [bench], "pkg") == [
        "mod.py line 2: UNUSED", "mod.py line 20: orphan"]


def test_every_definition_is_used():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted(BENCH.rglob("*.py"))]
    assert "trajopt.py" in modules and bench
    assert unused_definitions(modules, bench, "guided_ddpg") == []
