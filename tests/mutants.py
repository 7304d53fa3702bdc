"""Mutation table for the propagation of the exhaustive searches.

Each row switches off one propagation or leaf check that a search on
``site_core.backtrack`` keeps because it proves something, and names the
tests that must then fail.  For each row the script copies ``src`` to a
temporary directory, replaces the row's source text there, runs the named
tests on the copy in a subprocess and prints whether they killed the
mutant.  The same tests must first pass on an unmutated copy.  The repository itself is never edited.

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

# (name, module, source text, replacement, tests that must kill it)
MUTANTS = [
    ("links", "action.py",
     "[(key(y, q), key(x, pq)) for q, pq in steps[p]]", "[]",
     [SEARCH_CORE + "test_enumerate_actions_matches_brute_force_cyclic"]),
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
    ("bibundle_compat leaf", "bibundle.py",
     "if passed(bibundle_compat(b)):", "if True:",
     [POST + "test_enumerated_bibundles_are_bibundles"]),
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
