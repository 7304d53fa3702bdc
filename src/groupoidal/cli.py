"""Declarative model files, command dispatch and machine-readable
reports.

Grammar (one declaration per line, ``#`` starts a comment)::

    finset S2 = {a, b}
    finspace SIER = {0, 1} opens [[], [1], [0, 1]]
    map p2 : S2 -> PT { a->x, b->x }
    groupoid C2 = cech(p2)          # also unit(NAME), cyclic(N), pair(NAME)
    action SWAP = right(Z2, aS2) { a|0->a, a|1->b, b|0->b, b|1->a }
    bibundle E = equiv(p2)          # also equiv(p, q), unit(G), dual(B),
                                    #      compose(B1, B2)
    anafunctor A = of(E)
    simplex T = horn2(E1, E2)

Commands: validate, compose, equiv, decompose, orbit, nerve, axioms.
Findings carry the reference strings mandated by the report format.
"""

import argparse
import json
import os
import re
import sys
from functools import partial

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
from .morphism import is_ana_equivalence


class ModelSyntaxError(SiteError):
    def __init__(self, msg, line, col=0):
        super().__init__("%s (line %d, col %d)" % (msg, line, col))
        self.line, self.col = line, col


class UnresolvedName(SiteError):
    pass


class UnknownCommand(SiteError):
    pass


class TypeMismatch(SiteError):
    pass


class BadEnvironment(SiteError):
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
RE_FINSET = re.compile(r"finset\s+(%s)\s*=\s*\{([^}]*)\}\s*$" % NAME)
RE_FINSPACE = re.compile(
    r"finspace\s+(%s)\s*=\s*\{([^}]*)\}\s*opens\s*\[(.*)\]\s*$" % NAME)
RE_MAP = re.compile(
    r"map\s+(%s)\s*:\s*(%s)\s*->\s*(%s)\s*\{([^}]*)\}\s*$"
    % (NAME, NAME, NAME))
RE_GROUPOID = re.compile(
    r"groupoid\s+(%s)\s*=\s*(cech|unit|cyclic|pair)\(([^)]*)\)\s*$" % NAME)
RE_ACTION = re.compile(
    r"action\s+(%s)\s*=\s*(left|right)\((%s)\s*,\s*(%s)\)\s*\{([^}]*)\}\s*$"
    % (NAME, NAME, NAME))
RE_BIBUNDLE = re.compile(
    r"bibundle\s+(%s)\s*=\s*(equiv|unit|dual|compose)\(([^)]*)\)\s*$"
    % NAME)
RE_ANAFUNCTOR = re.compile(
    r"anafunctor\s+(%s)\s*=\s*of\((%s)\)\s*$" % (NAME, NAME))
RE_SIMPLEX = re.compile(
    r"simplex\s+(%s)\s*=\s*horn2\((%s)\s*,\s*(%s)\)\s*$"
    % (NAME, NAME, NAME))


class Declaration:
    def __init__(self, kind, name, payload, line):
        self.kind, self.name, self.payload, self.line = \
            kind, name, payload, line

    def __eq__(self, other):
        return (isinstance(other, Declaration)
                and (self.kind, self.name, self.payload)
                == (other.kind, other.name, other.payload))

    def __repr__(self):
        return "Declaration(%s %s)" % (self.kind, self.name)


class ModelFile:
    def __init__(self, declarations):
        self.declarations = declarations

    def __eq__(self, other):
        return (isinstance(other, ModelFile)
                and self.declarations == other.declarations)


def _split_items(body):
    return [p.strip() for p in body.split(",") if p.strip()]


def parse_model(text):
    decls = []
    names = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = line.split(None, 1)[0]
        if kind == "finset":
            m = RE_FINSET.match(line)
            if not m:
                raise ModelSyntaxError("bad finset declaration", ln)
            name, body = m.group(1), m.group(2)
            payload = ("finset", tuple(_split_items(body)))
        elif kind == "finspace":
            m = RE_FINSPACE.match(line)
            if not m:
                raise ModelSyntaxError("bad finspace declaration", ln)
            name = m.group(1)
            elems = tuple(_split_items(m.group(2)))
            try:
                opens = tuple(tuple(str(x) for x in u)
                              for u in json.loads("[" + m.group(3) + "]"))
            except json.JSONDecodeError as exc:
                raise ModelSyntaxError("bad opens list: %s" % exc, ln)
            payload = ("finspace", elems, opens)
        elif kind == "map":
            m = RE_MAP.match(line)
            if not m:
                raise ModelSyntaxError("bad map declaration", ln)
            name, dom, cod, body = m.groups()
            entries = []
            for item in _split_items(body):
                if "->" not in item:
                    raise ModelSyntaxError(
                        "map entry %r missing '->'" % item, ln,
                        raw.find(item) + 1)
                a, b = (p.strip() for p in item.split("->", 1))
                entries.append((a, b))
            payload = ("map", dom, cod, tuple(entries))
        elif kind == "groupoid":
            m = RE_GROUPOID.match(line)
            if not m:
                raise ModelSyntaxError("bad groupoid declaration", ln)
            name, ctor, args = m.groups()
            payload = ("groupoid", ctor, tuple(_split_items(args)))
        elif kind == "action":
            m = RE_ACTION.match(line)
            if not m:
                raise ModelSyntaxError("bad action declaration", ln)
            name, side, gname, anchor, body = m.groups()
            entries = []
            for item in _split_items(body):
                if "->" not in item:
                    raise ModelSyntaxError(
                        "action entry %r missing '->'" % item, ln)
                a, b = (p.strip() for p in item.split("->", 1))
                entries.append((a, b))
            payload = ("action", side, gname, anchor, tuple(entries))
        elif kind == "bibundle":
            m = RE_BIBUNDLE.match(line)
            if not m:
                raise ModelSyntaxError("bad bibundle declaration", ln)
            name, ctor, args = m.groups()
            payload = ("bibundle", ctor, tuple(_split_items(args)))
        elif kind == "anafunctor":
            m = RE_ANAFUNCTOR.match(line)
            if not m:
                raise ModelSyntaxError("bad anafunctor declaration", ln)
            name, arg = m.groups()
            payload = ("anafunctor", "of", (arg,))
        elif kind == "simplex":
            m = RE_SIMPLEX.match(line)
            if not m:
                raise ModelSyntaxError("bad simplex declaration", ln)
            name, a, b = m.groups()
            payload = ("simplex", "horn2", (a, b))
        else:
            raise ModelSyntaxError("unknown declaration %r" % kind, ln)
        if name in names:
            raise UnresolvedName(
                "duplicate name %r at line %d" % (name, ln))
        names.add(name)
        decls.append(Declaration(payload[0], name, payload, ln))
    return ModelFile(decls)


def serialize_model(model):
    out = []
    for d in model.declarations:
        p = d.payload
        if d.kind == "finset":
            out.append("finset %s = {%s}" % (d.name, ", ".join(p[1])))
        elif d.kind == "finspace":
            opens = ", ".join(json.dumps(list(u)) for u in p[2])
            out.append("finspace %s = {%s} opens [%s]"
                       % (d.name, ", ".join(p[1]), opens))
        elif d.kind == "map":
            body = ", ".join("%s->%s" % ab for ab in p[3])
            out.append("map %s : %s -> %s { %s }"
                       % (d.name, p[1], p[2], body))
        elif d.kind == "groupoid":
            out.append("groupoid %s = %s(%s)"
                       % (d.name, p[1], ", ".join(p[2])))
        elif d.kind == "action":
            body = ", ".join("%s->%s" % ab for ab in p[4])
            out.append("action %s = %s(%s, %s) { %s }"
                       % (d.name, p[1], p[2], p[3], body))
        elif d.kind == "bibundle":
            out.append("bibundle %s = %s(%s)"
                       % (d.name, p[1], ", ".join(p[2])))
        elif d.kind == "anafunctor":
            out.append("anafunctor %s = of(%s)" % (d.name, p[2][0]))
        elif d.kind == "simplex":
            out.append("simplex %s = horn2(%s, %s)"
                       % (d.name, p[2][0], p[2][1]))
    return "\n".join(out) + "\n"


def _lookup(env, kinds, name, *want):
    """The value declared as ``name``, of one of the kinds ``want``."""
    if name not in env:
        raise UnresolvedName(name)
    if want and kinds[name] not in want:
        raise TypeMismatch("%s is a %s, expected %s"
                           % (name, kinds[name], "/".join(want)))
    return env[name]


def build_model(model):
    """Resolve declarations into concrete objects; returns name -> value
    and name -> kind maps."""
    env, kinds = {}, {}
    get = partial(_lookup, env, kinds)

    def build(d):
        p = d.payload
        if d.kind == "finset":
            val = make_finset(p[1], name=d.name)
        elif d.kind == "finspace":
            val = make_finspace(p[1], p[2], name=d.name)
        elif d.kind == "map":
            dom = get(p[1], "finset", "finspace")
            cod = get(p[2], "finset", "finspace")
            val = Mor(dom, cod, dict(p[3]))
        elif d.kind == "groupoid":
            ctor, args = p[1], p[2]
            if ctor == "cech":
                val = cech_groupoid(get(args[0], "map"))
            elif ctor == "unit":
                val = unit_groupoid(get(args[0], "finset", "finspace"))
            elif ctor == "pair":
                val = pair_groupoid(get(args[0], "finset", "finspace"))
            else:
                val = cyclic_groupoid(int(args[0]))
        elif d.kind == "action":
            side, g, anchor = p[1], get(p[2], "groupoid"), get(p[3], "map")
            if anchor.cod != g.G0:
                if len(anchor.cod) == 1 and len(g.G0) == 1:
                    only = next(iter(g.G0.elements))
                    anchor = Mor(anchor.dom, g.G0,
                                 {x: only for x in anchor.dom.elements})
                else:
                    raise TypeMismatch(
                        "anchor of %s does not land in the objects of %s"
                        % (d.name, p[2]))
            pairs = action_pairs(g, anchor, side)
            val = Action(g, anchor.dom, anchor,
                         Mor(pairs.apex, anchor.dom, dict(p[4])), side,
                         pairs)
        elif d.kind == "bibundle":
            ctor, args = p[1], p[2]
            if ctor == "equiv":
                covers = [get(a, "map") for a in args]
                val = cech_equivalence(*covers)
            elif ctor == "unit":
                val = unit_bibundle(get(args[0], "groupoid"))
            elif ctor == "dual":
                val = dual(get(args[0], "bibundle"))
            else:
                val = compose_bibundles(get(args[0], "bibundle"),
                                        get(args[1], "bibundle"))
        elif d.kind == "anafunctor":
            val = bibundle_to_anafunctor(get(p[2][0], "bibundle"))
        else:
            val = horn_fill_inner2(get(p[2][0], "bibundle"),
                                   get(p[2][1], "bibundle"))
        return val

    for d in model.declarations:
        try:
            env[d.name] = build(d)
        except NotAMorphism as exc:
            raise ModelSyntaxError("%s %s: %s" % (d.kind, d.name, exc),
                                   d.line) from None
        kinds[d.name] = d.kind
    return env, kinds


def finding(check, ok, witness=None):
    f = {"check-id": check, "paper-ref": PAPER_REFS[check],
         "result": "pass" if ok else "fail"}
    if witness is not None:
        f["witness"] = str(witness)
    return f


def _validate_one(name, kind, val):
    out = []
    if kind == "map":
        out.append(finding("map-is-cover", is_cover(val)))
    elif kind == "groupoid":
        rep = validate_groupoid(val)
        out.append(finding("groupoid-axioms", passed(rep),
                           [f.check for f in rep if not f.ok] or None))
    elif kind == "action":
        rep = validate_action(val)
        out.append(finding("action-axioms", passed(rep),
                           [f.check for f in rep if not f.ok] or None))
        out.append(finding("action-sheaf", is_cover(val.anchor)))
    elif kind == "bibundle":
        rep = validate_bibundle(val)
        out.append(finding("bibundle-axioms", passed(rep),
                           [f.check for f in rep if not f.ok] or None))
        out.append(finding("bibundle-class", True, classify(val)))
    elif kind == "anafunctor":
        from .morphism import validate_functor
        rep = validate_functor(val.F)
        out.append(finding("anafunctor-functor", passed(rep)))
        out.append(finding("map-is-cover", is_cover(val.p)))
    elif kind == "simplex":
        rep = validate_simplex(val)
        out.append(finding("simplex-valid", passed(rep),
                           [f.check for f in rep if not f.ok] or None))
    else:
        out.append(finding("map-is-cover", True, "nothing to validate"))
    return out


def run_command(command, names, env=None, kinds=None, backend="finset",
                max_size=None):
    """Dispatch a command to the library; returns a Report dict."""
    env = env or {}
    kinds = kinds or {}
    get = partial(_lookup, env, kinds)
    if max_size is None:
        try:
            max_size = int(os.environ.get("GROUPOIDAL_MAX", "4"))
        except ValueError as exc:
            raise BadEnvironment("GROUPOIDAL_MAX: %s" % exc) from None
    findings = []

    if command == "validate":
        for name in names:
            val = get(name)
            findings += _validate_one(name, kinds[name], val)
    elif command == "compose":
        x = get(names[0], "bibundle")
        y = get(names[1], "bibundle")
        c = compose_bibundles(x, y)
        findings.append(finding("compose-carrier", True, len(c.X)))
        cx, cy, cc = classify(x), classify(y), classify(c)
        preserved = all(cc[k] for k in cx if cx[k] and cy[k])
        findings.append(finding("compose-class", preserved, cc))
    elif command == "equiv":
        if len(names) == 1:
            b = get(names[0], "bibundle")
        else:
            g = get(names[0], "groupoid")
            h = get(names[1], "groupoid")
            cands = [v for n, v in env.items() if kinds[n] == "bibundle"
                     and v.g == g and v.h == h]
            if not cands:
                raise TypeMismatch("no declared bibundle between %s and %s"
                                   % (names[0], names[1]))
            b = cands[0]
        flags = classify(b)
        findings.append(finding("equivalence-flag",
                                flags["is_equivalence"], flags))
        ana = bibundle_to_anafunctor(b)
        findings.append(finding("ana-equivalence",
                                is_ana_equivalence(ana)["flag"]))
    elif command == "decompose":
        b = get(names[0], "bibundle")
        res = decompose_actor(b)
        findings.append(finding("decompose-k", True,
                                (len(res["k"].G0), len(res["k"].G1))))
        findings.append(finding("decompose-recompose", True,
                                "iso on %d elements" % len(res["iso"].dom)))
    elif command == "orbit":
        a = get(names[0], "action")
        coeq = orbit_space(a)
        findings.append(finding("orbit-base", True,
                                sorted(coeq.quotient.elements)))
        findings.append(finding("orbit-projection-cover",
                                is_cover(coeq.proj)))
    elif command == "nerve":
        x = get(names[0], "bibundle")
        y = get(names[1], "bibundle")
        sx = horn_fill_inner2(x, y)
        rep = validate_simplex(sx)
        findings.append(finding("simplex-valid", passed(rep)))
    elif command == "axioms":
        objs = all_objects(backend, max_size)
        mors = [f for a in objs for b in objs for f in all_maps(a, b)]
        rep = axiom_harness(objs, mors)
        findings.append(finding(
            "pretopology-axioms", passed(rep),
            [f.check for f in rep if not f.ok] or
            next((f.witness for f in rep
                  if f.check == "saturation-witness"), None)))
    else:
        raise UnknownCommand(command)
    status = "pass" if all(f["result"] == "pass" for f in findings) \
        else "fail"
    return {"command": command, "status": status, "findings": findings}


def format_report(report):
    lines = []
    for f in report["findings"]:
        line = "%s %s (%s)" % (f["result"].upper(), f["check-id"],
                               f["paper-ref"])
        if "witness" in f:
            line += " :: %s" % f["witness"]
        lines.append(line)
    lines.append("status: %s" % report["status"])
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="groupoidal",
        description="verify groupoid, action and bibundle models")
    parser.add_argument("command",
                        choices=["validate", "compose", "equiv",
                                 "decompose", "orbit", "nerve", "axioms"])
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
                model = parse_model(fh.read())
            env, kinds = build_model(model)
        report = run_command(args.command, args.names, env, kinds,
                             backend=args.backend, max_size=args.max)
    except SiteError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(format_report(report))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
