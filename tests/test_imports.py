"""Every name a module under ``src/trigroup`` imports is used in that module."""

import ast
from pathlib import Path

import pytest

import trigroup

PACKAGE = Path(trigroup.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{module}.py imports names it never uses: {unused}"


def test_guard_catches_an_unused_import():
    tree = ast.parse(
        "import os\n"
        "from fractions import Fraction\n"
        "from math import exp, log\n"
        "def f(x: 'Fraction') -> float:\n"
        "    return exp(x)\n"
    )
    used = used_names(tree)
    assert {n for n in imported_names(tree) if n not in used} == {"os", "log"}
