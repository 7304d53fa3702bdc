"""Declarative model files, command dispatch and machine-readable
reports.

Grammar (one declaration per line, ``#`` starts a comment)::

    finset S2 = {a, b}
    finspace SIER = {0, 1} opens [[], [1], [0, 1]]
    map p2 : S2 -> PT { a->x, b->x }
    groupoid C2 = cech(p2)
    action SWAP = right(Z2, aS2) { a|0->a, a|1->b, b|0->b, b|1->a }
    bibundle E = equiv(p2)
    anafunctor A = of(E)
    simplex T = horn2(E1, E2)

Tables define the language: ``SYNTAX`` (how each kind is written),
``CONSTRUCTORS`` (what each constructor takes and which library function
builds it), ``FINDINGS`` (what ``validate`` reports) and ``COMMANDS``.
Findings carry the reference strings mandated by the report format.
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

from .site_core import (Mor, NotAMorphism, SiteError, all_maps,
                        axiom_harness, is_cover, passed)
from .backends import all_objects, make_finset, make_finspace
from .groupoid import (cech_groupoid, cyclic_groupoid, pair_groupoid,
                       unit_groupoid, validate_groupoid)
from .action import (Action, action_pairs, unit_bibundle, validate_action,
                     validate_bibundle)
from .bundle import orbit_space
from .bibundle import (cech_equivalence, classify, compose_bibundles,
                       decompose_actor, dual, bibundle_to_anafunctor)
from .nerve import horn_fill_inner2, validate_simplex
from .morphism import is_ana_equivalence, validate_functor


class UnresolvedName(SiteError):
    pass


class UnknownCommand(SiteError):
    pass


class TypeMismatch(SiteError):
    pass


class BadEnvironment(SiteError):
    pass


class NegativeCap(SiteError):
    pass


# Reference strings required by the report wire format, one per check id.
PAPER_REFS = {
    "map-is-cover": "Def 2.1",
    "groupoid-axioms": "Def 3.1 / Def 3.2",
    "action-axioms": "Def 4.1",
    "action-sheaf": "Def 4.1 / Remark 4.2",
    "bibundle-axioms": "Def 4.12",
    "bibundle-class": "Def 6.1",
    "equivalence-flag": "Def 6.1",
    "ana-equivalence": "Thm 3.28",
    "compose-carrier": "Prop 7.6",
    "compose-class": "Prop 7.8",
    "decompose-k": "Prop 7.16",
    "decompose-recompose": "Prop 7.16",
    "orbit-base": "Def 5.4",
    "orbit-projection-cover": "Prop 5.6",
    "simplex-valid": "Section 8 conditions (1)-(6)",
    "pretopology-axioms": "Def 2.1 / Lemma 2.2 / Prop 2.4 / "
                          "Assumptions 2.6, 2.7",
    "anafunctor-functor": "Def 3.17",
}


NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class ModelSyntaxError(SiteError):
    def __init__(self, msg, line, col=0):
        super().__init__("%s (line %d, col %d)" % (msg, line, col))
        self.line, self.col = line, col


# Argument kinds: the kinds a name may have (ANY: every kind), or INTEGER.
SPACE, MAP, GROUPOID = ("finset", "finspace"), ("map",), ("groupoid",)
ACTION, BIBUNDLE, INTEGER, ANY = ("action",), ("bibundle",), ("integer",), ()


def _items(text, col):
    """(item, column) of each item of a list that starts at column col."""
    return [(m.group(), col + m.start())
            for m in re.finditer(r"[^,\s](?:[^,]*[^,\s])?", text)]


def _table(text, col, line):
    table = {}
    for item, c in _items(text, col):
        key, arrow, value = (p.strip() for p in item.partition("->"))
        if not arrow or key in table:
            raise ModelSyntaxError("entry %r %s" % (item, "repeats its key"
                                   if arrow else "missing '->'"), line, c)
        table[key] = value
    return table


def _opens(text, col, line):
    try:
        opens = json.loads("[" + text + "]")
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError("bad opens list: %s" % exc, line, col)
    if not all(isinstance(u, list) for u in opens):
        raise ModelSyntaxError("an open set is not a list", line, col)
    return tuple(tuple(str(x) for x in u) for u in opens)


# The bodies a declaration may carry: field -> (parse(text, col, line),
# write(value)).  A constructor gets its body fields as keyword arguments.
FIELDS = {
    "elements": (lambda text, *_: tuple(i for i, c in _items(text, 0)),
                 ", ".join),
    "opens": (_opens, lambda v: ", ".join(json.dumps(list(u)) for u in v)),
    "table": (_table, lambda v: ", ".join("%s->%s" % kv for kv in v.items())),
}


# kind -> (pattern after "KIND NAME", template that writes it back).  A
# map's arguments are its ends; a template gets the arguments one by one
# and as the list ``args``.
CALL = r"=\s*(?P<ctor>%s)\((?P<args>[^)]*)\)" % NAME
SET = r"(?P<args>)=\s*\{(?P<elements>[^}]*)\}"
TABLE = r"\s*\{(?P<table>[^}]*)\}"
SYNTAX = {kind: (re.compile(r"\s*%s\s+(?P<name>%s)\s*%s\s*$"
                            % (kind, NAME, pattern)),
                 "%s {name} %s" % (kind, template))
          for kind, pattern, template in [
              ("finset", SET, "= {{{elements}}}"),
              ("finspace", SET + r"\s*opens\s*\[(?P<opens>.*)\]",
               "= {{{elements}}} opens [{opens}]"),
              ("map", r":\s*(?P<args>%s\s*->\s*%s)" % (NAME, NAME) + TABLE,
               ": {0} -> {1} {{ {table} }}"),
              ("groupoid", CALL, "= {ctor}({args})"),
              ("action", CALL + TABLE, "= {ctor}({args}) {{ {table} }}"),
              ("bibundle", CALL, "= {ctor}({args})"),
              ("anafunctor", CALL, "= {ctor}({args})"),
              ("simplex", CALL, "= {ctor}({args})")]}


def _action(side, g, anchor, table):
    """An action given by its table; an anchor into a one-point carrier
    may stand for the anchor into the groupoid's one object."""
    if anchor.cod != g.G0:
        if len(anchor.cod) != 1 or len(g.G0) != 1:
            raise TypeMismatch("the anchor does not land in the objects "
                               "of the groupoid")
        anchor = Mor(anchor.dom, g.G0, dict.fromkeys(anchor.dom.elements,
                                                     g.G0.elements[0]))
    pairs = action_pairs(g, anchor, side)
    return Action(g, anchor.dom, anchor, Mor(pairs.apex, anchor.dom, table),
                  side, pairs)


# (kind, constructor) -> (signatures, build): one tuple of argument kinds
# per accepted count, and the library function given the resolved
# arguments and the body fields.
CONSTRUCTORS = {
    ("finset", None): ([()], make_finset),
    ("finspace", None): ([()], make_finspace),
    ("map", None): ([(SPACE, SPACE)], Mor),
    ("groupoid", "cech"): ([(MAP,)], cech_groupoid),
    ("groupoid", "unit"): ([(SPACE,)], unit_groupoid),
    ("groupoid", "pair"): ([(SPACE,)], pair_groupoid),
    ("groupoid", "cyclic"): ([(INTEGER,)], cyclic_groupoid),
    ("action", "left"): ([(GROUPOID, MAP)], partial(_action, "left")),
    ("action", "right"): ([(GROUPOID, MAP)], partial(_action, "right")),
    ("bibundle", "equiv"): ([(MAP,), (MAP, MAP)], cech_equivalence),
    ("bibundle", "unit"): ([(GROUPOID,)], unit_bibundle),
    ("bibundle", "dual"): ([(BIBUNDLE,)], dual),
    ("bibundle", "compose"): ([(BIBUNDLE, BIBUNDLE)], compose_bibundles),
    ("anafunctor", "of"): ([(BIBUNDLE,)], bibundle_to_anafunctor),
    ("simplex", "horn2"): ([(BIBUNDLE, BIBUNDLE)], horn_fill_inner2),
}


def _signature(what, signatures, count, error):
    """The argument kinds that ``signatures`` (None: one or more names of
    any kind) gives ``count`` arguments; else raises ``error(message)``."""
    sig = ((ANY,) * count or None if signatures is None else
           next((s for s in signatures if len(s) == count), None))
    if sig is None:
        forms = " or ".join("(%s)" % ", ".join("/".join(k) for k in s)
                            for s in signatures or [])
        raise error("%s takes %s, got %d"
                    % (what, forms or "one or more names", count))
    return sig


@dataclass
class Declaration:
    """One model line; ``payload`` is (constructor or None, args, body)."""
    kind: str
    name: str
    payload: tuple
    line: int = field(compare=False)


ModelFile = namedtuple("ModelFile", "declarations")


def parse_model(text):
    decls, names = [], set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        kind = line.split(None, 1)[0]
        if kind not in SYNTAX:
            raise ModelSyntaxError("unknown declaration %r" % kind, ln)
        m = SYNTAX[kind][0].match(line)
        if not m:
            raise ModelSyntaxError("bad %s declaration" % kind, ln)
        groups = m.groupdict()
        name, ctor = groups.pop("name"), groups.pop("ctor", None)
        what, col = ctor or kind, m.start("args") + 1
        if (kind, ctor) not in CONSTRUCTORS:
            raise ModelSyntaxError("%s has no constructor %r" % (kind, ctor),
                                   ln, m.start("ctor") + 1)
        args = _items(groups.pop("args").replace("->", ", "), col)
        sig = _signature(what, CONSTRUCTORS[kind, ctor][0], len(args),
                         lambda msg: ModelSyntaxError(msg, ln, col))
        for (arg, c), k in zip(args, sig):
            if not re.fullmatch(r"-?\d+" if k is INTEGER else NAME, arg):
                raise ModelSyntaxError("%s wants %s, not %r"
                                       % (what, "/".join(k), arg), ln, c)
        if name in names:
            raise UnresolvedName("duplicate name %r (line %d, col %d)"
                                 % (name, ln, m.start("name") + 1))
        names.add(name)
        body = {key: FIELDS[key][0](value, m.start(key) + 1, ln)
                for key, value in groups.items()}
        decls.append(Declaration(kind, name, (ctor, tuple(a for a, _ in args),
                                              body), ln))
    return ModelFile(decls)


def serialize_model(model):
    out = []
    for d in model.declarations:
        ctor, args, body = d.payload
        fields = {key: FIELDS[key][1](v) for key, v in body.items()}
        out.append(SYNTAX[d.kind][1].format(*args, name=d.name, ctor=ctor,
                                            args=", ".join(args), **fields))
    return "\n".join(out) + "\n"


def _lookup(env, kinds, name, *want):
    """The value declared as ``name``, of one of the kinds ``want``."""
    if name not in env:
        raise UnresolvedName("no declaration named %r" % name)
    if want and kinds[name] not in want:
        raise TypeMismatch("%s is a %s, expected %s"
                           % (name, kinds[name], "/".join(want)))
    return env[name]


def build_model(model):
    """Resolve declarations into concrete objects; returns name -> value
    and name -> kind maps.  An error names the declaration's line."""
    env, kinds = {}, {}
    for d in model.declarations:
        ctor, args, body = d.payload
        signatures, build = CONSTRUCTORS[d.kind, ctor]
        try:
            vals = [int(a) if k is INTEGER else _lookup(env, kinds, a, *k)
                    for a, k in zip(args, _signature(ctor, signatures,
                                                     len(args), SiteError))]
            env[d.name] = build(*vals, **body)
        except NotAMorphism as exc:
            raise ModelSyntaxError("%s %s: %s" % (d.kind, d.name, exc),
                                   d.line) from None
        except SiteError as exc:
            exc.args = ("%s %s: %s (line %d, col 0)"
                        % (d.kind, d.name, exc, d.line),)
            raise
        kinds[d.name] = d.kind
    return env, kinds


def finding(check, ok, witness=None):
    f = {"check-id": check, "paper-ref": PAPER_REFS[check],
         "result": "pass" if ok else "fail"}
    if witness is not None:
        f["witness"] = str(witness)
    return f


def _verdict(check, rep):
    return finding(check, passed(rep),
                   [f.check for f in rep if not f.ok] or None)


# kind -> the findings ``validate`` reports for a value of that kind.
FINDINGS = dict.fromkeys(SPACE, lambda _: [
    finding("map-is-cover", True, "nothing to validate")])
FINDINGS.update({
    "map": lambda f: [finding("map-is-cover", is_cover(f))],
    "groupoid": lambda g: [_verdict("groupoid-axioms", validate_groupoid(g))],
    "action": lambda a: [_verdict("action-axioms", validate_action(a)),
                         finding("action-sheaf", is_cover(a.anchor))],
    "bibundle": lambda b: [_verdict("bibundle-axioms", validate_bibundle(b)),
                           finding("bibundle-class", True, classify(b))],
    "anafunctor": lambda a: [
        finding("anafunctor-functor", passed(validate_functor(a.F))),
        finding("map-is-cover", is_cover(a.p))],
    "simplex": lambda s: [_verdict("simplex-valid", validate_simplex(s))],
})


def _validate(run, *vals):
    return [f for name, val in zip(run.names, vals)
            for f in FINDINGS[run.kinds[name]](val)]


def _compose(run, x, y):
    c = compose_bibundles(x, y)
    cx, cy, cc = classify(x), classify(y), classify(c)
    return [finding("compose-carrier", True, len(c.X)),
            finding("compose-class",
                    all(cc[k] for k in cx if cx[k] and cy[k]), cc)]


def _equiv(run, x, h=None):
    """Flags of bibundle x, or of a declared bibundle from groupoid x to h."""
    b = x if h is None else next(
        (v for n, v in run.env.items()
         if run.kinds[n] in BIBUNDLE and v.g == x and v.h == h), None)
    if b is None:
        raise TypeMismatch("no declared bibundle between %s and %s"
                           % tuple(run.names))
    flags = classify(b)
    return [finding("equivalence-flag", flags["is_equivalence"], flags),
            finding("ana-equivalence",
                    is_ana_equivalence(bibundle_to_anafunctor(b))["flag"])]


def _decompose(run, b):
    res = decompose_actor(b)
    return [finding("decompose-k", True,
                    (len(res["k"].G0), len(res["k"].G1))),
            finding("decompose-recompose", True,
                    "iso on %d elements" % len(res["iso"].dom))]


def _orbit(run, a):
    coeq = orbit_space(a)
    return [finding("orbit-base", True, sorted(coeq.quotient.elements)),
            finding("orbit-projection-cover", is_cover(coeq.proj))]


def _axioms(run):
    objs = all_objects(run.backend, run.max_size)
    rep = axiom_harness(objs, [f for a in objs for b in objs
                               for f in all_maps(a, b)])
    return [finding("pretopology-axioms", passed(rep),
                    [f.check for f in rep if not f.ok] or
                    next((f.witness for f in rep
                          if f.check == "saturation-witness"), None))]


# command -> (signatures, run): the kinds of the names it takes, and the
# function from the run and the resolved values to the findings.
COMMANDS = {
    "validate": (None, _validate),
    "compose": ([(BIBUNDLE, BIBUNDLE)], _compose),
    "equiv": ([(BIBUNDLE,), (GROUPOID, GROUPOID)], _equiv),
    "decompose": ([(BIBUNDLE,)], _decompose),
    "orbit": ([(ACTION,)], _orbit),
    "nerve": ([(BIBUNDLE, BIBUNDLE)], lambda run, x, y: [finding(
        "simplex-valid", passed(validate_simplex(horn_fill_inner2(x, y))))]),
    "axioms": ([()], _axioms),
}


def run_command(command, names, env=None, kinds=None, backend="finset",
                max_size=None):
    """Dispatch a command to the library; returns a Report dict."""
    env, kinds = env or {}, kinds or {}
    if max_size is None:
        try:
            max_size = int(os.environ.get("GROUPOIDAL_MAX", "4"))
        except ValueError as exc:
            raise BadEnvironment("GROUPOIDAL_MAX: %s" % exc) from None
    if max_size < 0:
        raise NegativeCap("the size cap (--max or GROUPOIDAL_MAX) is %d, "
                          "below 0" % max_size)
    if command not in COMMANDS:
        raise UnknownCommand(command)
    signatures, command_run = COMMANDS[command]
    vals = [_lookup(env, kinds, n, *k) for n, k in zip(
        names, _signature(command, signatures, len(names), TypeMismatch))]
    run = SimpleNamespace(names=names, env=env, kinds=kinds, backend=backend,
                          max_size=max_size)
    findings = command_run(run, *vals)
    status = "pass" if all(f["result"] == "pass" for f in findings) else "fail"
    return {"command": command, "status": status, "findings": findings}


def format_report(report):
    return "\n".join(["%s %s (%s)%s" % (
        f["result"].upper(), f["check-id"], f["paper-ref"],
        " :: %s" % f["witness"] if "witness" in f else "")
        for f in report["findings"]] + ["status: %s" % report["status"]])


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="groupoidal",
        description="verify groupoid, action and bibundle models")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("names", nargs="*")
    parser.add_argument("--model", help="model file to load")
    parser.add_argument("--backend", choices=["finset", "fintop"],
                        default="finset")
    parser.add_argument("--max", type=int, default=None,
                        help="carrier-size cap for exhaustive searches")
    parser.add_argument("--json", dest="json_path",
                        help="write the report as JSON to this path")
    args = parser.parse_args(argv)
    try:
        env, kinds = {}, {}
        if args.model:
            with open(args.model, encoding="utf-8") as fh:
                env, kinds = build_model(parse_model(fh.read()))
        report = run_command(args.command, args.names, env, kinds,
                             backend=args.backend, max_size=args.max)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
    except (SiteError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(format_report(report))
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
