"""Structure guards over the source tree, read with ``ast`` only.

An action's side is read only inside ``groupoidal.action``; the twin
left/right functions that the point-first action view replaced stay
gone; every backtracking search runs on ``site_core.backtrack``; no
library code filters arrow pairs with ``composable``; the pretopology
harness builds one fibre product per (cover, map) pair and no product map
per pair of covers from scratch, and finds composable maps through
indexes rather than by comparing ends; every groupoid but the given
multiplication of ``from_multiplication`` is built by ``build_groupoid``;
no relative import in the package is left unused; no constructor
re-checks its output with an ``assert`` on a validator, nor does any code
catch ``AssertionError``; ``site_core``, ``nerve`` and ``action`` hold
no ``assert`` at all, and the harness ticks its budget from the one walk
every axiom runs; and the command line reads the model language from
tables, branching on no declaration kind or constructor name.
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


def site_core_def(name):
    """The top-level function or class ``name`` of ``site_core``."""
    return next(node for node in parse(PKG / "site_core.py").body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)


def test_harness_shares_pullbacks_and_products():
    """``axiom_harness`` checks its three pullback axioms on one
    ``fibre_product`` call, and builds no ``mor_product`` inside a loop
    (each object product is built once)."""
    harness = site_core_def("axiom_harness")
    assert len(called(harness, "fibre_product")) == 1
    loops = [n for n in ast.walk(harness) if isinstance(n, (ast.For,
                                                             ast.While))]
    assert [line for loop in loops
            for line in called(loop, "mor_product")] == []


def test_harness_walks_each_axiom_once():
    """``_Budget`` has no per-case iterator, and ``axiom_harness`` ticks
    its budget from one inner function only: the walk every axiom runs."""
    assert "each" not in {n.name for n in site_core_def("_Budget").body
                          if isinstance(n, ast.FunctionDef)}
    harness = site_core_def("axiom_harness")

    def ticks(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "tick"]

    inner = [n for n in ast.walk(harness) if n is not harness
             and isinstance(n, ast.FunctionDef) and ticks(n)]
    assert [n.name for n in inner] == ["axiom"]
    assert ticks(inner[0]) == ticks(harness)


def asserts_in(name):
    """The lines of the ``assert`` statements of a package module."""
    return [node.lineno for node in ast.walk(parse(PKG / name))
            if isinstance(node, ast.Assert)]


def test_no_assert_in_site_core():
    """Every argument check in ``site_core`` raises a typed error, so it
    holds under ``python -O``."""
    assert asserts_in("site_core.py") == []


def test_no_assert_in_nerve():
    """``NSimplex``, ``restrict_simplex`` and ``unique_inner3_check``
    reject bad indices and ends with ``BoundaryMismatch``, not ``assert``."""
    assert asserts_in("nerve.py") == []


def test_no_assert_in_action():
    """The constructors of actions, equivariant maps, bibundles and actors,
    ``action_fibre_product`` and ``actor_apply`` reject bad arguments with
    ``BoundaryMismatch``, not ``assert``."""
    assert asserts_in("action.py") == []


def test_harness_compares_no_ends():
    """``axiom_harness`` looks composable maps up in its indexes by
    domain and codomain; it compares no ``.dom`` or ``.cod`` with ``==``
    or ``!=``."""
    harness = site_core_def("axiom_harness")
    found = [node.lineno for node in ast.walk(harness)
             if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
             and any(isinstance(side, ast.Attribute)
                     and side.attr in ("dom", "cod")
                     for side in [node.left, *node.comparators])]
    assert found == []


def test_groupoids_are_built_in_one_module():
    """Outside ``groupoidal.groupoid`` no code calls ``Groupoid(``: every
    other constructor goes through ``build_groupoid``."""
    calls = [(path.name, node.lineno) for path in MODULES
             if path.name != "groupoid.py"
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and "Groupoid" in names_in(node.func)]
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


def names_in(node):
    """The names and attribute names under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name,
                                                      ast.Attribute))}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_checks_and_no_assertion_handlers(path):
    """Validators are the one place each invariant is checked, and a
    verdict may not depend on ``assert``: no ``assert`` calls ``passed``
    or a ``validate_*`` function, and no ``except`` names
    ``AssertionError``."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Assert):
            calls = {name for call in ast.walk(node.test)
                     if isinstance(call, ast.Call)
                     for name in names_in(call.func)}
            if "passed" in calls or any(c.startswith("validate_")
                                        for c in calls):
                found.append(("assert", node.lineno))
        if (isinstance(node, ast.ExceptHandler) and node.type is not None
                and "AssertionError" in names_in(node.type)):
            found.append(("except", node.lineno))
    assert found == [], "%s: %s" % (path.name, found)


MODEL_WORDS = {"finset", "finspace", "map", "groupoid", "action", "bibundle",
               "anafunctor", "simplex", "cech", "unit", "pair", "cyclic",
               "left", "right", "equiv", "dual", "compose", "of", "horn2"}


def test_cli_branches_on_no_kind_or_constructor():
    """The model language is read from tables: no ``if``/``elif`` (nor
    conditional expression) in ``cli.py`` compares with a string literal
    that names a declaration kind or a constructor."""
    found = []
    for node in ast.walk(parse(PKG / "cli.py")):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        for cmp in ast.walk(node.test):
            if isinstance(cmp, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in MODEL_WORDS
                    for side in [cmp.left, *cmp.comparators]
                    for c in ast.walk(side)):
                found.append(node.lineno)
    assert found == []
