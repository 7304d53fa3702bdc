"""Mutation table for the exhaustive searches, the composite check and the
axiom harness.

Each row switches off one propagation or leaf check that a search on
``site_core.backtrack`` keeps because it proves something, the
equivariance half of ``bibundle.composite_fault``, either half of the
count by which ``bundle.check_principal`` decides the shear (its pairs
are distinct; they are as many as X x_Z X has points), a part of
``site_core.coequalizer`` (its path halving, written as the chained
assignment that makes a grandparent a root; the swap that keeps the
least id at the root; the push of the walk that collects the classes in
a minimal open set of a finite-space quotient), the multiplication
table read by ``action.is_invariant``, the isomorphisms that
``bibundle.bibundle_isomorphisms`` yields after its first, the inverse
by which ``bibundle.roundtrip_beta`` reads a class, the edge check of
``nerve.unique_inner3_check``, or one of the shortcuts of
``site_core.axiom_harness`` (the skip of the maps that are not first in
their relabelling class, the keys of its pullback and chain memos, its
kernel-pair cache and its budget stop), and names the tests
that must then fail.  For each row the script copies ``src`` to a
temporary directory, replaces the row's source text there, runs the named
tests on the copy in a subprocess and prints whether they killed the
mutant.  The same tests must first pass on an unmutated copy.  The
repository itself is never edited.

    python tests/mutants.py            # every row
    python tests/mutants.py links      # the rows whose name contains "links"

Exit status 1 when a row survives.  ``tests/test_layout.py`` checks that
each row's source text occurs exactly once in ``src/groupoidal``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SEARCH_CORE = "tests/test_search_core.py::"
POST = "tests/test_postconditions.py::"
BIBUNDLE = "tests/test_bibundle.py::"
BUNDLE = "tests/test_bundle.py::"
NERVE = "tests/test_nerve.py::"
COUNT = "len(pairs) == len(mt) == squares"
HARNESS = "tests/test_harness.py::"
SKIP = "if whole and p is not None and first[info[id(p)][0]] is not p:"
SITE = "tests/test_site_core.py::"
MEMO_TESTS = [HARNESS + "test_harness_matches_old_loops_on_every_other_map",
              HARNESS + "test_whole_site_keys_only_first_covers"]

# (name, module, source text, replacement, tests that must kill it)
MUTANTS = [
    ("links", "action.py",
     "[(key(y, q), key(x, pq)) for q, pq in steps[p]]", "[]",
     [SEARCH_CORE + "test_enumerate_actions_matches_brute_force_cyclic",
      SEARCH_CORE + "test_enumerate_actions_matches_brute_force_cech"]),
    ("unit cells", "action.py",
     "cand.update((e, [x]) for e, x in units.items())", "pass",
     [SEARCH_CORE + "test_enumerate_actions_matches_brute_force_cech"]),
    ("touching", "morphism.py",
     "touching[c].append(triple)", "pass",
     [SEARCH_CORE + "test_enumerate_functors_matches_brute_force"]),
    ("lmoves", "bibundle.py",
     "lmoves[xe].append((gel, b1.lact(gel, xe)))", "pass",
     [SEARCH_CORE + "test_bibundle_isomorphic_needs_both_sides"]),
    ("rmoves", "bibundle.py",
     "rmoves[xe].append((hel, b1.ract(xe, hel)))", "pass",
     [SEARCH_CORE + "test_bibundle_isomorphic_needs_both_sides"]),
    ("every iso", "bibundle.py",
     "            yield f\n", "            yield f\n            return\n",
     [SEARCH_CORE + "test_bibundle_isomorphic_matches_brute_force"]),
    ("beta inverse", "bibundle.py", "x.g.i(gel)", "gel",
     [BIBUNDLE + "test_roundtrip_beta"]),
    ("edge check", "nerve.py",
     "if not all(map(is_bibundle_functor, (ij, jk, ik))):", "if False:",
     [NERVE + "test_bad_horns_fill_and_fail_as_the_old_loops"]),
    ("bibundle_compat leaf", "bibundle.py",
     "if passed(bibundle_compat(b)):", "if True:",
     [POST + "test_enumerated_bibundles_are_bibundles"]),
    ("composite equivariance", "bibundle.py",
     "passed(validate_bibundle_map(c, w, f))", "True",
     [BIBUNDLE + "test_composite_witness_needs_equivariance"]),
    ("shear distinct", "bundle.py", COUNT, "len(mt) == squares",
     [POST + "test_counted_shear_matches_built_shear"]),
    ("shear onto", "bundle.py", COUNT, "len(pairs) == len(mt)",
     [BUNDLE + "test_injective_shear_that_is_not_onto_is_no_iso",
      POST + "test_counted_shear_matches_built_shear"]),
    ("path halving", "site_core.py",
     "parent[x] = parent[parent[x]]\n            x = parent[x]",
     "x = parent[x] = parent[parent[x]]",
     [SITE + "test_coequalizer_matches_components_on_long_chains",
      SITE + "test_cyclic_orbits_are_one_class"]),
    ("least id", "site_core.py", "if y < x:", "if False:",
     [SITE + "test_coequalizer_matches_components_on_long_chains",
      SITE + "test_coequalizer_matches_components_on_small_objects"]),
    ("quotient walk", "site_core.py", "todo.append(c)", "pass",
     [SITE + "test_fintop_quotient_reaches_classes_in_several_steps"]),
    ("invariant", "action.py",
     "ft[mt[e]] == ft[pt[e]]", "ft[pt[e]] == ft[pt[e]]",
     ["tests/test_action.py::test_is_invariant_matches_the_definition",
      "tests/test_action.py::test_gmap_and_invariance"]),
    ("squares", "morphism.py",
     "squares[e1].append((e2, h.i(f2), f1))", "pass",
     [SEARCH_CORE + "test_exists_ananat_matches_brute_force",
      POST + "test_ananats",
      BIBUNDLE + "test_bibundle_to_anafunctor"]),
    ("whole skip", "site_core.py",
     SKIP, SKIP.replace("whole and ", ""),
     [HARNESS + "test_sample_that_is_not_whole_walks_in_order"]),
    ("never skip", "site_core.py",
     SKIP, "if False:",
     [HARNESS + "test_whole_site_keys_only_first_covers"]),
    ("pullback memo", "site_core.py",
     'k = "pullback", id(f), id(g)', 'k = "pullback", id(f)', MEMO_TESTS),
    ("chain memo", "site_core.py",
     'k = "chain", id(p), id(f)', 'k = "chain", id(p)', MEMO_TESTS),
    ("kernel cache", "site_core.py",
     "kernel = cache(kernel_pair)", "kernel = kernel_pair",
     [HARNESS + "test_fibre_products_built"]),
    ("budget stop", "site_core.py",
     "if pos > bud.left:", "if pos >= bud.left:",
     [HARNESS + "test_budget_boundary"]),
]


def run(name, module, text, replacement, tests):
    """(killed, seconds) for one row, run on a mutated copy of ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "groupoidal" / module
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit("%s: %r does not occur once in %s"
                             % (name, text, module))
        path.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
        # exit code 1 is "tests failed"; anything else is a broken run
        if res.returncode not in (0, 1):
            raise SystemExit("%s: pytest exited %d\n%s"
                             % (name, res.returncode, res.stdout[-2000:]))
        return res.returncode == 1, time.perf_counter() - start


def main(argv):
    rows = [row for row in MUTANTS if not argv or any(
        word in row[0] for word in argv)]
    survived = 0
    for row in rows:
        name, module, text, _, tests = row
        # a row counts only if its tests pass on the unmutated source
        if run(name, module, text, text, tests)[0]:
            raise SystemExit("%s: the tests fail without the mutant" % name)
        killed, secs = run(*row)
        survived += not killed
        print("%-22s %-12s %-8s %5.2f s  %s" % (
            name, module, "killed" if killed else "SURVIVED", secs,
            " ".join(t.rpartition("::")[2] for t in tests)))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
