"""Committed reports: each command's text and JSON output, byte for byte.

The cases are the six commands of the README model, the pretopology
harness at up to 3 points on both backends, and two models whose
reports fail (exit 1), so that their witnesses are pinned too.  The test
regenerates every report in process and compares it with the file
under ``tests/golden/``; on a difference it prints a unified diff.

A change that alters a report on purpose rewrites the files with::

    PYTHONPATH=src python tests/test_golden.py

and lists each changed file, and why, in ``CHANGES.md``.
"""

import contextlib
import difflib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from groupoidal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"

# name -> (argv, model file under tests/golden/ or "README" or None, exit)
CASES = {
    "readme-validate": (["validate", "C2", "SWAP", "EQ"], "README", 0),
    "readme-compose": (["compose", "EQ", "EQd"], "README", 0),
    "readme-equiv": (["equiv", "EQ"], "README", 0),
    "readme-decompose": (["decompose", "EQ"], "README", 0),
    "readme-orbit": (["orbit", "SWAP"], "README", 0),
    "readme-nerve": (["nerve", "EQ", "EQd"], "README", 0),
    "axioms-finset-3": (["axioms", "--backend", "finset", "--max", "3"],
                        None, 0),
    "axioms-fintop-3": (["axioms", "--backend", "fintop", "--max", "3"],
                        None, 0),
    "bad-action-validate": (["validate", "down", "BAD", "LOOSE"],
                            "bad_action.gpd", 1),
    "not-open-validate": (["validate", "q"], "not_open.gpd", 1),
}


def readme_model():
    text = README.read_text(encoding="utf-8")
    start = text.index("# model.gpd\n")
    return text[start:text.index("```", start)]


def report(name):
    """(exit code, text report, JSON report) of one case, run in process."""
    argv, model, _ = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if model is not None:
            path = Path(tmp) / "model.gpd"
            path.write_text(readme_model() if model == "README" else
                            (GOLDEN / model).read_text(encoding="utf-8"))
            argv = argv + ["--model", str(path)]
        sidecar = Path(tmp) / "report.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--json", str(sidecar)])
        return code, out.getvalue(), sidecar.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name):
    code, text, js = report(name)
    assert code == CASES[name][2]
    for suffix, got in [(".txt", text), (".json", js)]:
        want = (GOLDEN / (name + suffix)).read_text(encoding="utf-8")
        diff = "".join(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True),
            "golden/" + name + suffix, "regenerated"))
        assert got == want, "report changed:\n" + diff


def rewrite():
    for name in CASES:
        _, text, js = report(name)
        (GOLDEN / (name + ".txt")).write_text(text, encoding="utf-8")
        (GOLDEN / (name + ".json")).write_text(js, encoding="utf-8")
        print("wrote golden/%s.txt and .json" % name)


if __name__ == "__main__":
    sys.exit(rewrite())
