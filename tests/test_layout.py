"""Structure guards over the source tree, read with ``ast`` only.

An action's side is read only inside ``groupoidal.action``; the twin
left/right functions that the point-first action view replaced stay
gone; every backtracking search runs on ``site_core.backtrack``; no
library code filters arrow pairs with ``composable``; and no relative
import in the package is left unused.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "groupoidal"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(PKG.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_action_module_reads_side(path):
    if path.name == "action.py":
        return
    reads = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "side"
             and isinstance(node.ctx, ast.Load)]
    assert reads == [], "%s reads .side at lines %s" % (path.name, reads)


def test_no_twin_side_functions():
    gone = {"to_left", "to_right", "left_transformation_groupoid"}
    found = [(path.name, node.name)
             for path in MODULES + sorted(TESTS.glob("*.py"))
             for node in ast.walk(parse(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in gone]
    assert found == []


def test_searches_run_on_the_core():
    """No function but the core defines its own search loop."""
    loops = {"dfs", "consistent", "ok_so_far", "check"}
    found = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name == "site_core.py" and node.name == "backtrack":
                continue
            found += [(path.name, node.name, inner.name)
                      for inner in ast.walk(node) if inner is not node
                      and isinstance(inner, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                      and inner.name in loops]
    assert found == []


def test_no_composable_filter():
    """Composable pairs are walked from ``g.pairs``, the fibre product of
    s and r; the library never tests every pair of arrows."""
    calls = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "composable"]
    assert calls == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_relative_imports_are_used(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == [], "%s: unused imports %s" % (path.name, unused)
