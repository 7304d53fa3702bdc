import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoidal
from groupoidal.cli import (BadEnvironment, ModelSyntaxError, NegativeCap,
                            TypeMismatch, UnknownCommand, UnresolvedName,
                            build_model, format_report, main, parse_model,
                            run_command, serialize_model)


MODEL = """\
# a small universe of fixtures
finset PT = {x}
finset S2 = {a, b}
finset S3 = {c, d, e}
map p2 : S2 -> PT { a->x, b->x }
map p3 : S3 -> PT { c->x, d->x, e->x }
map aS2 : S2 -> PT { a->x, b->x }
groupoid C2 = cech(p2)
groupoid C3 = cech(p3)
groupoid Z2 = cyclic(2)
groupoid PTG = unit(PT)
action SWAP = right(Z2, aS2) { a|0->a, a|1->b, b|0->b, b|1->a }
bibundle E63 = equiv(p2)
bibundle EQ23 = equiv(p2, p3)
bibundle UZ2 = unit(Z2)
bibundle EQ32 = dual(EQ23)
bibundle RT = compose(EQ23, EQ32)
anafunctor AE = of(EQ23)
simplex T = horn2(EQ23, EQ32)
"""


def test_parse_serialize_round_trip():
    model = parse_model(MODEL)
    assert len(model.declarations) == 18
    text = serialize_model(model)
    assert parse_model(text) == model


def test_parse_errors():
    with pytest.raises(ModelSyntaxError):
        parse_model("finset A = a, b}")
    with pytest.raises(ModelSyntaxError):
        parse_model("widget W = {a}")
    with pytest.raises(ModelSyntaxError):
        parse_model("finset S = {a}\nmap f : S -> S { a }")
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("finspace X = {a} opens [oops]")
    assert "opens" in str(exc.value)


def test_duplicate_name_rejected():
    with pytest.raises(UnresolvedName):
        parse_model("finset A = {a}\nfinset A = {b}")


def test_build_model_resolves():
    env, kinds = build_model(parse_model(MODEL))
    assert kinds["SWAP"] == "action"
    assert len(env["EQ23"].X) == 6
    assert len(env["RT"].X) == 4
    assert env["T"].n == 2


def test_build_model_missing_map_entry():
    with pytest.raises(ModelSyntaxError) as exc:
        build_model(parse_model(
            "finset PT = {x}\nfinset S = {a, b}\n"
            "map p : S -> PT { a->x }"))
    assert "b" in str(exc.value)


def test_build_model_unresolved_reference():
    with pytest.raises(UnresolvedName):
        build_model(parse_model("groupoid G = cech(nosuch)"))


def test_build_model_type_mismatch():
    with pytest.raises(TypeMismatch):
        build_model(parse_model(
            "finset S = {a}\ngroupoid G = cech(S)"))


SWAP_HEAD = ("finset PT = {x}\nfinset S2 = {a, b}\n"
             "map aS2 : S2 -> PT { a->x, b->x }\ngroupoid Z2 = cyclic(2)\n")


@pytest.mark.parametrize("text, line, why", [
    ('finspace SIER = {0, 1} opens [[], ["1"], ["0", "1"]]\n'
     "map swap : SIER -> SIER { 0->1, 1->0 }", 2, "continuous"),
    (SWAP_HEAD + "action SWAP = right(Z2, aS2) "
     "{ a|0->a, a|1->b, b|0->b, b|1->a, b|2->a }", 5, "domain, at b|2"),
], ids=["discontinuous-map", "action-entry-off-its-cells"])
def test_build_model_rejects_non_morphism(text, line, why):
    with pytest.raises(ModelSyntaxError) as exc:
        build_model(parse_model(text))
    assert exc.value.line == line
    assert why in str(exc.value)


OFF_CODOMAIN = """\
finset A = {a, b}
finset PT = {x}
map bad : A -> PT { a->zzz, b->x }
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_map_off_its_codomain_is_a_model_error(tmp_path, flags):
    """Exit 2 with the declaration's line, with or without -O."""
    model = tmp_path / "bad.gpd"
    model.write_text(OFF_CODOMAIN)
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    res = subprocess.run(
        [sys.executable, *flags, "-m", "groupoidal.cli", "validate", "bad",
         "--model", str(model)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip() == ("error: map bad: images must land in the "
                                  "codomain (line 3, col 0)")


README = Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [["validate", "C2", "SWAP", "EQ"], ["compose", "EQ", "EQd"],
                   ["equiv", "EQ"], ["decompose", "EQ"], ["orbit", "SWAP"],
                   ["nerve", "EQ", "EQd"], ["axioms", "--max", "2"]]
RUN_ALL = ("import json, sys\n"
           "from groupoidal.cli import main\n"
           "print([main(argv) for argv in json.loads(sys.argv[1])])\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_readme_reports_do_not_depend_on_O(tmp_path, flags):
    """The --json report of each README command, run in a subprocess with
    the given flags, equals the one this process writes; so the reports
    are the same under -O as without it."""
    text = README.read_text(encoding="utf-8")
    start = text.index("# model.gpd\n")
    model = tmp_path / "model.gpd"
    model.write_text(text[start:text.index("```", start)])

    def argvs(tag):
        return [cmd + (["--model", str(model)] if cmd[0] != "axioms" else [])
                + ["--json", str(tmp_path / ("%s-%s.json" % (tag, cmd[0])))]
                for cmd in README_COMMANDS]

    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    res = subprocess.run(
        [sys.executable, *flags, "-c", RUN_ALL, json.dumps(argvs("sub"))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == str([0] * len(README_COMMANDS))
    for argv in argvs("here"):
        assert main(argv) == 0
    for cmd in README_COMMANDS:
        here = (tmp_path / ("here-%s.json" % cmd[0])).read_bytes()
        assert (tmp_path / ("sub-%s.json" % cmd[0])).read_bytes() == here


def test_finspace_model():
    env, _ = build_model(parse_model(
        'finspace SIER = {0, 1} opens [[], ["1"], ["0", "1"]]'))
    assert env["SIER"].backend == "fintop"
    assert env["SIER"].nbhd["0"] == frozenset(["0", "1"])


def test_validate_command():
    env, kinds = build_model(parse_model(MODEL))
    rep = run_command("validate", ["C2", "SWAP", "EQ23", "p2", "AE", "T"],
                      env, kinds)
    assert rep["status"] == "pass"
    ids = {f["check-id"] for f in rep["findings"]}
    assert {"groupoid-axioms", "action-axioms", "bibundle-axioms",
            "map-is-cover", "simplex-valid"} <= ids
    for f in rep["findings"]:
        assert f["paper-ref"]


def test_compose_and_equiv_commands():
    env, kinds = build_model(parse_model(MODEL))
    rep = run_command("compose", ["EQ23", "EQ32"], env, kinds)
    assert rep["status"] == "pass"
    carrier = next(f for f in rep["findings"]
                   if f["check-id"] == "compose-carrier")
    assert carrier["witness"] == "4"
    rep2 = run_command("equiv", ["EQ23"], env, kinds)
    assert rep2["status"] == "pass"
    rep3 = run_command("equiv", ["C2", "C3"], env, kinds)
    assert rep3["status"] == "pass"


def test_decompose_and_orbit_commands():
    env, kinds = build_model(parse_model(MODEL))
    rep = run_command("decompose", ["UZ2"], env, kinds)
    assert rep["status"] == "pass"
    k = next(f for f in rep["findings"] if f["check-id"] == "decompose-k")
    assert k["witness"] == "(1, 2)"
    rep2 = run_command("orbit", ["SWAP"], env, kinds)
    assert rep2["status"] == "pass"
    base = next(f for f in rep2["findings"] if f["check-id"] == "orbit-base")
    assert base["witness"] == "['a']"


def test_nerve_command():
    env, kinds = build_model(parse_model(MODEL))
    rep = run_command("nerve", ["EQ23", "EQ32"], env, kinds)
    assert rep["status"] == "pass"


def test_axioms_command():
    rep = run_command("axioms", [], backend="finset", max_size=2)
    assert rep["status"] == "pass"


def test_unknown_command():
    with pytest.raises(UnknownCommand):
        run_command("frobnicate", [])


def test_format_report():
    rep = run_command("axioms", [], backend="finset", max_size=2)
    text = format_report(rep)
    assert text.splitlines()[-1] == "status: pass"
    assert "PASS pretopology-axioms" in text


def test_main_exit_codes(tmp_path, capsys):
    model = tmp_path / "m.gpd"
    model.write_text(MODEL)
    assert main(["validate", "C2", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    # unresolved name is an error, exit 2
    assert main(["validate", "NOPE", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_main_failing_report(tmp_path, capsys):
    model = tmp_path / "m.gpd"
    model.write_text("finset PT = {x}\nfinset S = {a, b}\n"
                     "map down : PT -> S { x->a }\n")
    assert main(["validate", "down", "--model", str(model)]) == 1
    out = capsys.readouterr().out
    assert "FAIL map-is-cover" in out


def test_main_json_sidecar(tmp_path, capsys):
    model = tmp_path / "m.gpd"
    model.write_text(MODEL)
    sidecar = tmp_path / "report.json"
    assert main(["compose", "EQ23", "EQ32", "--model", str(model),
                 "--json", str(sidecar)]) == 0
    capsys.readouterr()
    rep = json.loads(sidecar.read_text())
    assert rep["command"] == "compose"
    assert rep["status"] == "pass"
    assert all("paper-ref" in f for f in rep["findings"])


def test_max_size_env(monkeypatch):
    monkeypatch.setenv("GROUPOIDAL_MAX", "2")
    rep = run_command("axioms", [], backend="finset")
    assert rep["status"] == "pass"


def test_max_size_env_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("GROUPOIDAL_MAX", "x")
    with pytest.raises(BadEnvironment, match="GROUPOIDAL_MAX"):
        run_command("axioms", [], backend="finset")
    assert main(["axioms"]) == 2
    assert "GROUPOIDAL_MAX" in capsys.readouterr().err


def test_json_to_an_unwritable_path_exits_2(tmp_path, capsys):
    """A --json path in a missing directory is an error line and exit 2,
    not a traceback."""
    assert main(["axioms", "--max", "1", "--json",
                 str(tmp_path / "missing" / "report.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_cap_exits_2(monkeypatch, capsys):
    """A negative size cap, from --max or GROUPOIDAL_MAX, would check an
    empty site and pass vacuously: it is refused."""
    with pytest.raises(NegativeCap, match="-3"):
        run_command("axioms", [], max_size=-3)
    assert main(["axioms", "--max", "-3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setenv("GROUPOIDAL_MAX", "-3")
    assert main(["axioms"]) == 2
    assert "GROUPOIDAL_MAX" in capsys.readouterr().err
    assert main(["axioms", "--max", "0"]) == 0


AXIOM_RUNS = [["axioms", "--backend", "finset", "--max", "4"],
              ["axioms", "--backend", "fintop", "--max", "3"]]


def test_axiom_reports_do_not_depend_on_O(tmp_path):
    """The text and JSON reports of the harness on the 4-point finset site
    and the 3-point fintop site are the same plain and under -O."""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    reports = {}
    for flags in [[], ["-O"]]:
        for i, argv in enumerate(AXIOM_RUNS):
            path = tmp_path / ("%s%d.json" % ("".join(flags), i))
            res = subprocess.run(
                [sys.executable, *flags, "-m", "groupoidal.cli", *argv,
                 "--json", str(path)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                text=True, timeout=120)
            assert res.returncode == 0, res.stderr
            reports.setdefault(i, []).append((res.stdout, path.read_text()))
    for plain, optimised in reports.values():
        assert plain == optimised
