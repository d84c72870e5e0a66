"""Static hygiene checks over the package and the test modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mvaslam").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# the code that may use the package's public names: the package itself and the benchmark
READERS = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def private_imports(source: str) -> list[str]:
    """Underscore names a package module imports from another package module."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "mvaslam")
            for alias in node.names if alias.name.startswith("_")]


def public_names(source: str) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [item.name for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def read_names(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dataclass_fields(source: str) -> dict[str, list[str]]:
    """Field names of each public dataclass a module defines."""
    return {node.name: [item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)}


def read_fields(source: str, fields: dict[str, list[str]]) -> set[tuple[str, str]]:
    """``(class, field)`` pairs of ``fields`` that a module reads.

    A field counts as read when a string constant names it, or an attribute
    read does.  An attribute that several classes have counts only for the
    classes its receiver's annotation names: the receiver is a parameter
    annotated with them, or the target of a loop over such a parameter.
    """
    owners: dict[str, set[str]] = {}
    for cls, names in fields.items():
        for name in names:
            owners.setdefault(name, set()).add(cls)
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in owners:
            found |= {(cls, node.value) for cls in owners[node.value]}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and len(owners.get(node.attr, ())) == 1):
            found |= {(cls, node.attr) for cls in owners[node.attr]}

    def named(node) -> set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in fields}

    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        bound = {arg.arg: named(arg.annotation) for arg in params if arg.annotation}
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.comprehension)):
                classes = set().union(*(bound.get(n.id, set()) for n in ast.walk(node.iter)
                                        if isinstance(n, ast.Name)))
                for n in ast.walk(node.target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = bound.get(n.id, set()) | classes
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)):
                found |= {(cls, node.attr) for cls in bound.get(node.value.id, set())
                          if cls in owners.get(node.attr, ())}
    return found


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """``(callee, parameter, position)`` of every parameter with a default.

    A call names a function or method by its own name and a constructor by its
    class's name; a method's positions do not count ``self`` or ``cls``.  The
    position is None for a keyword-only parameter.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            bound = cls is not None and not static
            callee = cls if bound and child.name == "__init__" else child.name
            found.extend((callee, arg.arg, k - bound) for k, arg in enumerate(positional) if k >= first)
            found.extend((callee, arg.arg, None) for arg, default
                         in zip(args.kwonlyargs, args.kw_defaults) if default is not None)
            visit(child, None)

    visit(ast.parse(source), None)
    return found


def passed_arguments(source: str) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per callee name, each call's positional count, keyword names and whether it splats."""
    calls: dict[str, list] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            splat = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords if k.arg}, splat))
    return calls


def unset_parameters(definitions: str, calls: dict[str, list]) -> list[str]:
    """Defaulted parameters in ``definitions`` that no call in ``calls`` passes."""
    return [f"{callee}({param}=)" for callee, param, position in defaulted_parameters(definitions)
            if not any(splat or param in keywords or (position is not None and position < n_args)
                       for n_args, keywords, splat in calls.get(callee, []))]


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Optional, Sequence\n"
              "from .errors import ScenarioError\n"
              "__all__ = ['ScenarioError']\n"
              "x: Optional[int] = np.pi\n")
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]


def test_no_unused_imports():
    findings = [f"{path.relative_to(ROOT)} {finding}"
                for path in MODULES for finding in unused_imports(path.read_text(encoding="utf-8"))]
    assert not findings, "unused imports:\n" + "\n".join(findings)


def test_private_import_checker_flags_only_package_underscore_names():
    source = ("from __future__ import annotations\n"
              "from numpy import _globals\n"
              "from .raytrace import Environment, _surface_frame\n"
              "from mvaslam.geometry import _helper as helper\n"
              "from . import _internal\n"
              "import _thread\n")
    assert private_imports(source) == ["line 3: _surface_frame", "line 4: _helper",
                                       "line 5: _internal"]


def test_no_private_imports_across_package_modules():
    # a name another module needs is part of its owner's interface: make it public
    findings = [f"{path.relative_to(ROOT)} {finding}"
                for path in PACKAGE for finding in private_imports(path.read_text(encoding="utf-8"))]
    assert not findings, "private names imported across modules:\n" + "\n".join(findings)


def test_reference_checker_sees_names_and_attributes():
    source = ("def used():\n    pass\n"
              "def spare():\n    pass\n"
              "def _private():\n    pass\n"
              "class Box:\n"
              "    def open(self):\n        pass\n"
              "    def shut(self):\n        pass\n"
              "    def _hidden(self):\n        pass\n")
    assert public_names(source) == ["used", "spare", "Box", "open", "shut"]
    assert read_names("spare = 1\nused(Box().open)\n") == {"used", "Box", "open"}


def test_parameter_checker_sees_positions_keywords_and_splats():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "def g(x=0):\n    pass\n"
              "def h(y=0):\n    pass\n"
              "class Box:\n"
              "    def __init__(self, size=1, lid=False):\n        pass\n"
              "    def open(self, wide=False):\n        pass\n"
              "    @staticmethod\n"
              "    def make(kind=None):\n        pass\n")
    calls = passed_arguments("f(1, 2, d=4)\ng(*xs)\nBox(3).open()\nBox.make('tin')\n")
    assert unset_parameters(source, calls) == ["f(c=)", "h(y=)", "Box(lid=)", "open(wide=)"]
    assert unset_parameters(source, passed_arguments("m.f(0, 0, 0)\nh(**kw)\n")) == [
        "f(d=)", "g(x=)", "Box(size=)", "Box(lid=)", "open(wide=)", "make(kind=)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no caller overrides is a constant, not a parameter
    calls: dict[str, list] = {}
    for path in READERS:
        for name, found in passed_arguments(path.read_text(encoding="utf-8")).items():
            calls.setdefault(name, []).extend(found)
    findings = [f"{path.relative_to(ROOT)} {finding}" for path in PACKAGE
                for finding in unset_parameters(path.read_text(encoding="utf-8"), calls)]
    assert not findings, "parameters no call sets:\n" + "\n".join(findings)


def test_public_names_are_used_outside_tests():
    # API that only tests reach belongs in tests/oracles.py
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in READERS))
    findings = [f"{path.relative_to(ROOT)} {name}" for path in PACKAGE
                for name in public_names(path.read_text(encoding="utf-8")) if name not in read]
    assert not findings, "public names used only by tests:\n" + "\n".join(findings)


def test_field_checker_attributes_shared_names_by_receiver():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class Belief:\n"
              "    particles: list\n"
              "    existence: float\n"
              "    def size(self):\n        return len(self.particles)\n"
              "@dataclass(frozen=True)\n"
              "class Estimate:\n"
              "    existence: dict = field(default_factory=dict)\n"
              "    ids: list\n"
              "    count: int\n"
              "class _Hidden:\n"
              "    unused: int\n"
              "def report(beliefs, more: list[Belief], est: Estimate):\n"
              "    for b in beliefs:\n        print(b.existence)\n"
              "    return [m.existence for m in more], getattr(est, 'count')\n")
    fields = dataclass_fields(source)
    assert fields == {"Belief": ["particles", "existence"],
                      "Estimate": ["existence", "ids", "count"]}
    # b's class is unknown, so only ``more`` reads Belief.existence; nothing reads
    # Estimate.existence or ids, and ``count`` is read by name
    assert read_fields(source, fields) == {
        ("Belief", "particles"), ("Belief", "existence"), ("Estimate", "count")}
    assert read_fields("def f(e: Estimate):\n    return e.existence\n", fields) == {
        ("Estimate", "existence")}


def test_every_dataclass_field_is_read_outside_tests():
    # a field that only tests read is dead weight on every instance
    fields: dict[str, list[str]] = {}
    for path in PACKAGE:
        fields.update(dataclass_fields(path.read_text(encoding="utf-8")))
    read = set().union(*(read_fields(path.read_text(encoding="utf-8"), fields) for path in READERS))
    findings = [f"{cls}.{name}" for cls, names in fields.items() for name in names
                if (cls, name) not in read]
    assert not findings, "dataclass fields nothing outside the tests reads:\n" + "\n".join(findings)


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None                     # any import of scipy now raises ImportError
from dataclasses import replace
import mvaslam.cli
from mvaslam.experiment import simulate_run
from mvaslam.metrics import OspaParams, ospa
from mvaslam.scenario import bundled_scenario

config = bundled_scenario("exp1_rect_room")
config = replace(config, params=replace(config.params, n_particles=50),
                 waypoints=config.waypoints[:4])
assert simulate_run(config, 0, 1).err_pos.shape == (4,)
# both estimates are nearest the first truth point, so the assignment needs a search
assert ospa([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [3.0, 0.0]], OspaParams()) == 1.25
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
assert not loaded, loaded
"""


def test_cli_import_loads_no_process_pool():
    # a run with one worker process starts no pool, so importing the entry point
    # leaves multiprocessing and concurrent.futures unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, mvaslam.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_needs_no_scipy():
    # scipy is the tests' oracle only: the package imports, filters and scores without it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # nor anywhere a short run does not reach, such as an import inside a function
    imports_scipy = [f"{path.relative_to(ROOT)} line {node.lineno}" for path in PACKAGE
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Import)
                     and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                     or isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "scipy"]
    assert not imports_scipy, imports_scipy
