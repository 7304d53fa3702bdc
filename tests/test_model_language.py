"""The model language's table: bad declarations and bad commands end in
exit 2 with the declaration's line, plain and under ``python -O``, and
declarations drawn from the constructor table never make ``main`` raise."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import groupoidal
from groupoidal.cli import (ANY, COMMANDS, CONSTRUCTORS, INTEGER, SYNTAX,
                            Declaration, ModelFile, ModelSyntaxError, main,
                            parse_model, serialize_model)

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = os.path.dirname(os.path.dirname(groupoidal.__file__))
RUN_ALL = ("import json, sys\n"
           "from groupoidal.cli import main\n"
           "print([main(argv) for argv in json.loads(sys.argv[1])])\n")


def readme_model():
    text = README.read_text(encoding="utf-8")
    start = text.index("# model.gpd\n")
    return text[start:text.index("```", start)]


# (lines added to the README model, the command): a constructor or a
# command given a wrong count or kind of arguments, a repeated table key,
# an open set that is not a list, and values the library refuses to
# build.  The last added line is the faulty declaration.
BAD_INPUTS = [
    ("groupoid Zx = cyclic(x)", ["validate", "Zx"]),
    ("groupoid Zx = cyclic()", ["validate", "Zx"]),
    ("groupoid Zx = cyclic(0)", ["validate", "Zx"]),
    ("groupoid Zx = cyclic(-1)", ["validate", "Zx"]),
    ("groupoid Zx = cyclic(257)", ["validate", "Zx"]),
    ("bibundle Bx = equiv()", ["validate", "Bx"]),
    ("bibundle Bx = equiv(p2, p3, p2)", ["validate", "Bx"]),
    ("bibundle Bx = compose(EQ)", ["validate", "Bx"]),
    ("finspace Fx = {a} opens [1]", ["validate", "Fx"]),
    ("finset Ax = {a, b|c, a|b, c}", ["validate", "Ax"]),
    ("map q : S3 -> S2 { c->a, d->a, e->b }\nbibundle Bx = equiv(p3, q)",
     ["validate", "Bx"]),
    ("groupoid Gx = cech(p2, p2)", ["validate", "Gx"]),
    ("map mx : S2 -> S2 { a->a, a->b, b->b }", ["validate", "mx"]),
    ("map n2 : S2 -> S3 { a->c, b->c }\ngroupoid Gx = cech(n2)",
     ["validate", "Gx"]),
    ("groupoid Gx = unit(Zzz)", ["validate", "Gx"]),
    ("bibundle Bx = compose(EQ, EQ)", ["validate", "Bx"]),
    ("", ["compose", "EQ"]),
    ("", ["equiv"]),
    ("", ["decompose"]),
    ("", ["orbit"]),
    ("", ["nerve", "EQ"]),
    ("", ["decompose", "EQ", "EQd"]),
    ("", ["validate"]),
]


def bad_input_argv(tmp_path, i, extra, argv):
    """The argv for one bad input, and the line its model error names."""
    text = readme_model() + extra + "\n"
    model = tmp_path / ("bad%d.gpd" % i)
    model.write_text(text)
    return argv + ["--model", str(model)], len(text.splitlines())


@pytest.mark.parametrize("i", range(len(BAD_INPUTS)),
                         ids=["%s|%s" % (e.splitlines()[-1] if e else "",
                                         " ".join(a)) for e, a in BAD_INPUTS])
def test_bad_input_exits_2_with_its_line(tmp_path, capsys, i):
    extra, argv = BAD_INPUTS[i]
    argv, line = bad_input_argv(tmp_path, i, extra, argv)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if extra:
        assert "(line %d, col " % line in err


def test_bad_inputs_exit_2_under_O(tmp_path):
    """The same inputs, all in one ``python -O`` process."""
    argvs = [bad_input_argv(tmp_path, i, e, a)[0]
             for i, (e, a) in enumerate(BAD_INPUTS)]
    res = subprocess.run(
        [sys.executable, "-O", "-c", RUN_ALL, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=300)
    assert res.stdout.splitlines()[-1] == str([2] * len(BAD_INPUTS)), \
        res.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("extra, why", [
    ("groupoid Z0 = cyclic(0)", "order of Z/n is 0"),
    ("groupoid Zb = cyclic(257)", "order of Z/n is 257, not in 1..256"),
    ("map q : S3 -> S2 { c->a, d->a, e->b }\nbibundle Bx = equiv(p3, q)",
     "share a codomain"),
], ids=["cyclic-0", "cyclic-257", "equiv-codomains"])
def test_library_argument_errors_name_their_line(tmp_path, flags, extra,
                                                 why):
    """A cyclic group of order 0 or above ``MAX_CYCLIC_ORDER`` and an
    equivalence of covers with two codomains are typed errors in the
    library, so they end in exit 2 with the declaration's line with or
    without -O."""
    text = readme_model() + extra + "\n"
    model = tmp_path / "m.gpd"
    model.write_text(text)
    name = extra.split()[-3]
    res = subprocess.run(
        [sys.executable, *flags, "-m", "groupoidal.cli", "validate", name,
         "--model", str(model)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert why in res.stderr
    assert "(line %d, col 0)" % len(text.splitlines()) in res.stderr


@pytest.mark.parametrize("what", ["missing", "not-utf8"])
def test_unreadable_model_exits_2(tmp_path, capsys, what):
    """A model path that does not exist, or a file that is not UTF-8,
    ends in exit 2 with an error line, not a traceback."""
    model = tmp_path / "m.gpd"
    if what == "not-utf8":
        model.write_bytes(b"finset A = {\xff}\n")
    assert main(["validate", "A", "--model", str(model)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cech_of_a_non_cover_names_the_map(tmp_path, capsys):
    model = tmp_path / "m.gpd"
    model.write_text("finset S2 = {a, b}\nfinset S3 = {c, d, e}\n"
                     "map n2 : S2 -> S3 { a->c, b->c }\n"
                     "groupoid G = cech(n2)\n")
    assert main(["validate", "G", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "cech_groupoid: p = Mor(['a', 'b'] -> ['c', 'd', 'e'], " \
        "{'a': 'c', 'b': 'c'}) is not a cover (line 4, col 0)" in err


def test_pair_separator_in_an_id_names_its_line(tmp_path, capsys):
    """Ids holding ``|`` are refused where they are declared: the Čech
    groupoid of a cover out of them would be a fibre product whose pair
    ids collide, reported on the groupoid's line."""
    model = tmp_path / "m.gpd"
    model.write_text("finset A = {a, b|c, a|b, c}\nfinset P = {x}\n"
                     "map p : A -> P { a->x, b|c->x, a|b->x, c->x }\n"
                     "groupoid C = cech(p)\n")
    assert main(["validate", "C", "--model", str(model)]) == 2
    assert capsys.readouterr().err == (
        "error: finset A: element id 'b|c' contains '|' (line 1, col 0)\n")


def test_argument_count_and_repeated_key_carry_line_and_column():
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("finset S = {a}\n  groupoid G = cech(p, q)")
    assert (exc.value.line, exc.value.col) == (2, 21)
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model("finset S = {a, b}\nmap f : S -> S { a->a, a->b }")
    assert (exc.value.line, exc.value.col) == (2, 24)
    with pytest.raises(ModelSyntaxError, match="wants integer"):
        parse_model("groupoid Z = cyclic(two)")


FUZZ_BASE = """\
finset PT = {x}
finset S2 = {a, b}
map p2 : S2 -> PT { a->x, b->x }
groupoid Z2 = cyclic(2)
action SWAP = right(Z2, p2) { a|0->a, a|1->b, b|0->b, b|1->a }
bibundle E = equiv(p2)
"""
FUZZ_KINDS = {"PT": "finset", "S2": "finset", "p2": "map", "Z2": "groupoid",
              "SWAP": "action", "E": "bibundle"}
INTEGERS = ["-1", "0", "1", "2", "3"]
JUNK = ["Zzz", "x y", "1.5", "->", "", "a|b", "(", "}"]
POINTS = ["a", "b", "x", "*", "0", "1", "a|0", "a|1", "b|0", "b|1"]


@st.composite
def fuzz_models(draw):
    """Model text of FUZZ_BASE and 1-4 declarations drawn from the
    constructor table, and the names declared.  In a tidy model each
    declaration's arguments fit one of its row's signatures; otherwise it
    has 0-3 arguments (a map: its 2 ends), each a declared name, an
    integer or junk, or one that fits.  Bodies are small."""
    kinds = dict(FUZZ_KINDS)
    lines = [FUZZ_BASE]
    tidy = draw(st.booleans())
    for i in range(draw(st.integers(1, 4))):
        kind, ctor = draw(st.sampled_from(sorted(
            CONSTRUCTORS, key=lambda kc: (kc[0], kc[1] or ""))))
        sig = draw(st.sampled_from(CONSTRUCTORS[kind, ctor][0]))
        count = len(sig) if tidy or kind == "map" else draw(
            st.integers(0, 3))
        args = []
        for want in (sig + (ANY,) * 3)[:count]:
            fitting = INTEGERS if want is INTEGER else [
                n for n, k in kinds.items() if not want or k in want]
            fits = st.sampled_from(fitting or INTEGERS)
            args.append(draw(fits if tidy else st.one_of(fits, st.sampled_from(
                sorted(kinds) + INTEGERS + JUNK))))
        points = st.sampled_from(POINTS)
        body = {key: draw(value) for key, value in {
            "elements": st.lists(points, max_size=3).map(tuple),
            "opens": st.lists(st.lists(points, max_size=2).map(tuple),
                              max_size=3).map(tuple),
            "table": st.dictionaries(points, points, max_size=4),
        }.items() if "(?P<%s>" % key in SYNTAX[kind][0].pattern}
        name = "D%d" % i
        lines.append(serialize_model(ModelFile(
            [Declaration(kind, name, (ctor, tuple(args), body), 0)])))
        kinds[name] = kind
    return "".join(lines), sorted(kinds)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_models(), st.sampled_from(sorted(COMMANDS)), st.data())
def test_main_never_raises_on_drawn_models(tmp_path_factory, model, command,
                                           data):
    """Whatever the declarations and the command's names, ``main`` ends in
    exit 0, 1 or 2 and raises nothing."""
    text, names = model
    path = tmp_path_factory.mktemp("fuzz") / "m.gpd"
    path.write_text(text)
    picked = data.draw(st.lists(st.sampled_from(names + ["Zzz"]),
                                max_size=3))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([command, *picked, "--model", str(path), "--max", "2"])
    assert code in (0, 1, 2), out.getvalue()
