"""Static hygiene checks over the package and the test modules."""

import ast
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


def test_public_names_are_used_outside_tests():
    # API that only tests reach belongs in tests/oracles.py
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in READERS))
    findings = [f"{path.relative_to(ROOT)} {name}" for path in PACKAGE
                for name in public_names(path.read_text(encoding="utf-8")) if name not in read]
    assert not findings, "public names used only by tests:\n" + "\n".join(findings)
