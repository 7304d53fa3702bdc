"""Structure guards over the source tree, read with ``ast`` only.

An action's side is read only inside ``groupoidal.action``; the twin
left/right functions that the point-first action view replaced stay
gone; every backtracking search runs on ``site_core.backtrack``; no
library code filters arrow pairs with ``composable``; the pretopology
harness builds one fibre product per (cover, map) pair and no product map
per pair of covers from scratch; and no relative import in the package is
left unused.
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


def called(node, name):
    """The lines of the calls of ``name`` under ``node``."""
    return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == name]


def test_harness_shares_pullbacks_and_products():
    """``axiom_harness`` checks its three pullback axioms on one
    ``fibre_product`` call, and builds no ``mor_product`` inside a loop
    (each object product is built once)."""
    harness = next(node for node in ast.walk(parse(PKG / "site_core.py"))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "axiom_harness")
    assert len(called(harness, "fibre_product")) == 1
    loops = [n for n in ast.walk(harness) if isinstance(n, (ast.For,
                                                             ast.While))]
    assert [line for loop in loops
            for line in called(loop, "mor_product")] == []


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
