"""Source hygiene checks that need no linter: every import in the package and
the scripts is used, and so is every private top-level function and class.
Every public top-level function and class of the package is referenced by
the package, the scripts or the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(ROOT.glob("src/macroplan/*.py")) + sorted(
    ROOT.glob("scripts/*.py"))


def _imported(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names the module reads, in code, in quoted annotations and in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            ann = getattr(node, "annotation", None) or getattr(
                node, "returns", None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)}: unused imports: " \
        + ", ".join(unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{node.name} (line {node.lineno})" for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and node.name.startswith("_") and node.name not in used]
    assert not unused, f"{path.relative_to(ROOT)}: unused private " \
        "definitions: " + ", ".join(unused)


MODULES = sorted(ROOT.glob("src/macroplan/*.py"))
CALLERS = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(
    ROOT.glob("tests/*.py"))


def _referenced(tree):
    """Names a file reads or imports, bare or as an attribute; a name listed
    in ``__all__`` only is not among them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_public_definitions(path):
    referenced = set().union(*(_referenced(ast.parse(p.read_text()))
                               for p in CALLERS))
    tree = ast.parse(path.read_text(), filename=str(path))
    unreferenced = [f"{node.name} (line {node.lineno})" for node in tree.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in referenced]
    assert not unreferenced, f"{path.relative_to(ROOT)}: public " \
        "definitions nothing references: " + ", ".join(unreferenced)
