"""Every name a module under ``src/trigroup`` imports is used in that module,
every top-level name it defines is reached from outside its own body, every
method of its classes is read as an attribute somewhere, and every function
the bench tracer wraps exists."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import trigroup

PACKAGE = Path(trigroup.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def used_names(tree: ast.AST) -> set[str]:
    """Every name the node reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def defined_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def unreached_names(sources: dict[str, str], bench_text: str) -> set[tuple[str, str]]:
    """(module, name) for every top-level name that no module reads outside
    the name's own definition, no ``from .module import`` binds, and no
    bench script names."""
    defined, reached = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            own = defined_names(stmt)
            defined |= {(module, name) for name in own}
            reached |= {(module, name) for name in used_names(stmt) - own}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                target = node.module or "__init__"
                reached |= {(target, alias.name) for alias in node.names}
    return {
        (module, name)
        for module, name in defined - reached
        if not re.search(rf"\b{re.escape(name)}\b", bench_text)
    }


def package_sources() -> dict[str, str]:
    return {module: (PACKAGE / f"{module}.py").read_text() for module in MODULES}


def bench_text() -> str:
    return "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))


def test_every_top_level_name_is_reached():
    flagged = sorted(f"{m}.{n}" for m, n in unreached_names(package_sources(), bench_text()))
    assert flagged == [], f"nothing in src/trigroup or bench reaches {flagged}"


def test_guard_catches_an_unused_def():
    sources = package_sources()
    sources["words"] += "\n\ndef spare(w):\n    return spare(w)\n"
    unreached = unreached_names(sources, bench_text())
    assert {n for _, n in unreached} == {"spare"}
    assert ("words", "spare") not in unreached_names(sources, bench_text() + " spare(")


def unread_methods(sources: dict[str, str], bench_text: str) -> set[tuple[str, str, str]]:
    """(module, class, method) for every non-dunder method or property of a
    top-level class whose name no module reads as an attribute and no bench
    script names."""
    methods, read = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                methods |= {
                    (module, stmt.name, node.name)
                    for node in stmt.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return {
        (module, cls, name)
        for module, cls, name in methods
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    }


def test_every_method_is_read():
    flagged = sorted(f"{m}.{c}.{n}" for m, c, n in unread_methods(package_sources(), bench_text()))
    assert flagged == [], f"nothing in src/trigroup or bench reads {flagged}"


def test_guard_catches_an_unused_method():
    sources = package_sources()
    sources["words"] += (
        "\n\nclass Spare:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def spare(self):\n        return 0\n"
    )
    assert unread_methods(sources, bench_text()) == {("words", "Spare", "spare")}
    assert unread_methods(sources, bench_text() + " spare(") == set()
    sources["cayley"] += "\n\nx = Spare().spare\n"
    assert unread_methods(sources, bench_text()) == set()


def wrapped_names(bench_source: str) -> dict[str, tuple[str, ...]]:
    """The ``WRAPPED`` table of the bench tracer: module -> function names."""
    for stmt in ast.parse(bench_source).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("no WRAPPED table")


def unresolved_wrapped(wrapped: dict[str, tuple[str, ...]]) -> list[str]:
    """``module.name`` for every wrapped name that ``trigroup.<module>`` lacks."""
    return [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not hasattr(importlib.import_module(f"trigroup.{module}"), name)
    ]


def test_every_wrapped_name_resolves():
    wrapped = wrapped_names((BENCH / "tracing.py").read_text())
    assert "count_letter_assignments" in wrapped["fulfillment"]
    assert unresolved_wrapped(wrapped) == [], "the bench tracer wraps names src/trigroup lacks"


def test_guard_catches_a_missing_wrapped_name():
    wrapped = wrapped_names((BENCH / "tracing.py").read_text())
    wrapped["fulfillment"] += ("structure_counts",)
    wrapped["words"] = ("spare", *wrapped["words"])
    assert unresolved_wrapped(wrapped) == ["words.spare", "fulfillment.structure_counts"]
