import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, strategies as st

import groupoidal

from groupoidal.site_core import (BackendMismatch, BoundaryMismatch, Mor,
                                  NotAMorphism, NotATopology,
                                  NotWellDefined, Obj, SiteError, all_maps,
                                  axiom_harness, coequalizer, compose,
                                  copair, descend, disjoint_union,
                                  fibre_product, identity, inverse,
                                  is_cover, is_iso, is_open_map,
                                  is_surjective, kernel_pair, mor_product,
                                  obj_product, pair_id, passed, terminal,
                                  to_terminal, triple_product)
from groupoidal.backends import (all_finsets, all_finspaces, discrete,
                                 indiscrete, make_finset, make_finspace,
                                 sierpinski)


def test_mor_basics(S2, PT, p2):
    assert p2("a") == "*"
    assert p2.image(S2.elements) == {"*"}
    assert {x for x in S2 if p2(x) == "*"} == {"a", "b"}
    with pytest.raises(NotAMorphism):
        Mor(S2, PT, {"a": "*"})          # partial table
    with pytest.raises(NotAMorphism):
        Mor(S2, PT, {"a": "*", "b": "?"})  # value outside codomain


def test_descend_rejects_conflicting_values(S2, PT):
    with pytest.raises(NotWellDefined):
        descend(PT, S2, [("*", "a"), ("*", "b")])


def test_descend_rejects_class_without_value(S2):
    with pytest.raises(NotWellDefined):
        descend(S2, S2, [("a", "a")])


def test_site_error_classes_defined_once():
    """Two classes of one name are two kinds of failure to an except
    clause; each SiteError subclass is defined in one module only."""
    import collections
    import importlib
    import pkgutil
    import groupoidal
    for mod in pkgutil.iter_modules(groupoidal.__path__):
        importlib.import_module("groupoidal." + mod.name)
    seen, todo = [], [SiteError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("groupoidal") and sub not in seen:
                seen.append(sub)
                todo.append(sub)
    counts = collections.Counter(cls.__name__ for cls in seen)
    assert [n for n, c in counts.items() if c > 1] == []


def test_compose_unit_laws(S2, PT, p2):
    assert compose(p2, identity(S2)) == p2
    assert compose(identity(PT), p2) == p2
    swap = Mor(S2, S2, {"a": "b", "b": "a"})
    assert compose(swap, swap) == identity(S2)


def test_compose_boundary_mismatch(S2, PT, p2):
    with pytest.raises(BoundaryMismatch):
        compose(p2, p2)


def test_constant_forced_by_totality(S3, PT):
    one = make_finset(["c"])
    incl = Mor(one, S3, {"c": "c"})
    p3 = Mor(S3, PT, {x: "*" for x in "cde"})
    assert compose(p3, incl) == Mor(one, PT, {"c": "*"})


def test_finset_covers_are_surjections(S2, PT, p2):
    assert is_cover(p2)
    notonto = Mor(S2, S2, {"a": "a", "b": "a"})
    assert not is_cover(notonto)
    assert is_surjective(notonto) is False


def test_fintop_cover_is_open_surjection():
    sier = sierpinski()
    d2 = discrete(["0", "1"])
    f = Mor(d2, sier, {"0": "0", "1": "1"})
    # continuous bijection from the discrete space, but not open
    assert is_surjective(f) and not is_open_map(f)
    assert not is_cover(f)
    g = Mor(sier, sier, {"0": "0", "1": "1"})
    assert is_cover(g)


def test_iso_and_inverse(S2):
    swap = Mor(S2, S2, {"a": "b", "b": "a"})
    assert is_iso(swap)
    assert inverse(swap) == swap
    assert not is_iso(Mor(S2, S2, {"a": "a", "b": "a"}))


def test_fibre_product_universal(S2, S3, PT, p2, p3):
    fp = fibre_product(p2, p3)
    assert len(fp.apex) == 6
    for e, (x, y) in fp.pairing.items():
        assert p2(x) == p3(y)
        assert fp.pr1(e) == x and fp.pr2(e) == y
        assert fp.index[(x, y)] == e
    # pullback of a cover along anything is a cover
    assert is_cover(fp.pr1)


def test_fibre_product_fintop_neighbourhoods():
    sier = sierpinski()
    f = Mor(sier, sier, {"0": "0", "1": "1"})
    fp = fibre_product(f, f)
    # the diagonal-ish square: minimal opens intersect the apex
    for e, (x, y) in fp.pairing.items():
        n = fp.apex.nbhd[e]
        for e2 in n:
            x2, y2 = fp.pairing[e2]
            assert x2 in sier.nbhd[x] and y2 in sier.nbhd[y]


def test_triple_product_lists_every_triple(S2, S3, PT, p2, p3):
    """S2 x_PT S3 x_S3 S3 over the identity: each element's triple, the
    reverse index, in the order of the iterated fibre products."""
    apex, triples, index = triple_product(p2, p3, identity(S3), identity(S3))
    assert list(triples) == list(apex.elements)
    assert list(triples.values()) == [(x, y, y) for x in S2.elements
                                      for y in S3.elements]
    assert index == {t: e for e, t in triples.items()}


def test_kernel_pair_is_cech_square(p2):
    k = kernel_pair(p2)
    assert len(k.apex) == 4


def test_coequalizer_collapses(S2, PT, p2):
    k = kernel_pair(p2)
    c = coequalizer(k.pr1, k.pr2)
    assert len(c.quotient) == 1
    assert is_cover(c.proj)
    # least-id representative naming
    assert set(c.quotient.elements) == {"a"}


def test_coequalizer_of_identity(S2):
    c = coequalizer(identity(S2), identity(S2))
    assert len(c.quotient) == 2


def test_fintop_quotient_topology():
    # collapse the two closed points of a 3-point fan; quotient is Sierpinski
    X = make_finspace(["o", "p", "q"],
                      [[], ["o"], ["o", "p"], ["o", "q"], ["o", "p", "q"]])
    two = Obj("fintop", ["w", "v"], {"w": frozenset(["w", "v"]),
                                     "v": frozenset(["v"])})
    f = Mor(two, X, {"w": "p", "v": "o"})
    g = Mor(two, X, {"w": "q", "v": "o"})
    c = coequalizer(f, g)
    assert len(c.quotient) == 2
    assert is_open_map(c.proj) and is_cover(c.proj)


def test_all_maps_count(S2, S3):
    assert len(list(all_maps(S2, S3))) == 9
    assert len(list(all_maps(S3, S2))) == 8
    empty = make_finset([])
    assert len(list(all_maps(empty, S2))) == 1
    assert len(list(all_maps(S2, empty))) == 0


def test_products_and_coproducts(S2, S3):
    prod = obj_product(S2, S3)
    assert len(prod.apex if hasattr(prod, "apex") else prod) == 6
    total, inl, inr = disjoint_union(S2, S3)
    assert len(total) == 5
    f = Mor(S2, S2, {"a": "b", "b": "a"})
    g = Mor(S3, S2, {x: "a" for x in "cde"})
    h = copair(f, g, total, inl, inr)
    assert h(inl("a")) == "b" and h(inr("d")) == "a"


def test_pair_id_round_trip():
    assert pair_id("x", "y") == "x|y"


def test_terminal_and_to_terminal(S2):
    t = terminal("finset")
    assert len(t) == 1
    assert is_cover(to_terminal(S2))


def test_axiom_harness_finset_small():
    objs = all_finsets(2)
    mors = [f for a in objs for b in objs for f in all_maps(a, b)]
    rep = axiom_harness(objs, mors)
    assert passed(rep), [f for f in rep if not f.ok]
    sat = next(f for f in rep if f.check == "saturation-witness")
    assert "saturated" in str(sat.witness)


def test_axiom_harness_fintop_saturation_witness():
    objs = all_finspaces(2)
    mors = [f for a in objs for b in objs for f in all_maps(a, b)]
    rep = axiom_harness(objs, mors)
    assert passed(rep), [f for f in rep if not f.ok]
    sat = next(f for f in rep if f.check == "saturation-witness")
    assert "saturated" not in str(sat.witness)


def test_final_axiom_empty_exception():
    objs = all_finsets(2)
    mors = [f for a in objs for b in objs for f in all_maps(a, b)]
    rep = axiom_harness(objs, mors, include_empty_in_28=True)
    bad = [f for f in rep if not f.ok]
    assert [f.check for f in bad] == ["covers-to-final"]


BOGUS_COVER_CASE = """
import groupoidal.site_core as sc
from groupoidal.backends import all_finsets

# a wrong cover predicate: surjections with at most two domain points
sc.is_cover = lambda f: sc.is_surjective(f) and len(f.dom.elements) <= 2
objs = all_finsets(3)[1:]
mors = [f for a in objs for b in objs for f in sc.all_maps(a, b)]
found = {f.check: f for f in sc.axiom_harness(objs, mors)}
print(found["pullback-covers"].ok, found["pullback-covers"].witness)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_harness_reports_pullback_that_is_not_a_cover(flags):
    """The pullback axiom is checked by the harness alone: a cover
    predicate that breaks it is a failing finding with its witness, not
    an error inside fibre_product, with or without -O."""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, *flags, "-c", BOGUS_COVER_CASE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ("False pr1 of {'x0': 'x0', 'x1': 'x0', "
                                  "'x2': 'x0'} along cover {'x0': 'x0'}")


def test_bad_arguments_are_typed_errors():
    """What ``Obj``, ``is_open``, ``is_open_map``, ``copair`` and
    ``inverse`` refuse raises a typed error, with or without -O."""
    ab = {"a", "b"}
    for backend, nbhd in [("sets", None), ("finset", {"a": {"a"}}),
                          ("fintop", None)]:
        with pytest.raises(BackendMismatch):
            Obj(backend, ["a"], nbhd)
    for nbhd in [{"a": {"a"}}, {"a": {"b"}, "b": {"b"}},
                 {"a": {"a", "z"}, "b": {"b"}},
                 {"a": {"a"}, "b": ab, "z": {"z"}}]:
        with pytest.raises(NotATopology):
            Obj("fintop", ["a", "b"], nbhd)
    with pytest.raises(NotATopology):
        Obj("fintop", ["a", "b", "c"],
            {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c", "a"}})
    s2, d2 = make_finset(["a", "b"]), discrete(["a", "b"])
    with pytest.raises(BackendMismatch):
        s2.is_open({"a"})
    with pytest.raises(BoundaryMismatch):
        d2.is_open({"z"})
    with pytest.raises(BackendMismatch):
        is_open_map(identity(s2))
    total, inl, inr = disjoint_union(s2, s2)
    with pytest.raises(BoundaryMismatch):
        copair(identity(s2), to_terminal(s2), total, inl, inr)
    for f in [to_terminal(s2), Mor(terminal("finset"), s2, {"*": "a"}),
              Mor(d2, sierpinski(), {"a": "0", "b": "1"})]:
        with pytest.raises(NotAMorphism):
            inverse(f)


DUPLICATE_ID_CASE = """
from groupoidal.site_core import (DuplicateElement, Obj, fibre_product,
                                  to_terminal)
from groupoidal.backends import make_finset

A = Obj("finset", ["a|b", "a"])
B = Obj("finset", ["c", "b|c"])
for build in (lambda: fibre_product(to_terminal(A), to_terminal(B)),
              lambda: make_finset(["a", "a"])):
    try:
        build()
    except DuplicateElement as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_duplicate_element_ids_are_a_typed_error(flags):
    """Ids with the pair separator can make two pairs of a fibre product
    share an id ('a|b' with 'c' and 'a' with 'b|c'); the apex, like any
    object, rejects a repeated id with DuplicateElement, with or without
    -O.  (``make_finset`` refuses such ids, so the objects are built as
    ``Obj``s, as the apexes of fibre products are.)"""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, *flags, "-c", DUPLICATE_ID_CASE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "repeated id in ['a|b|c', 'a|b|b|c', 'a|c', 'a|b|c']",
        "repeated id in ['a', 'a']"]


_SITE_MAPS = {}


def site_maps(backend):
    """The covers and the maps by codomain between the objects of at most
    three points of a backend."""
    if backend not in _SITE_MAPS:
        objs = all_finsets(3) if backend == "finset" else all_finspaces(3)
        mors = [f for a in objs for b in objs for f in all_maps(a, b)]
        by_cod = {}
        for f in mors:
            by_cod.setdefault(f.cod, []).append(f)
        _SITE_MAPS[backend] = ([f for f in mors if is_cover(f)], by_cod)
    return _SITE_MAPS[backend]


@given(st.sampled_from(["finset", "fintop"]), st.data())
def test_pullback_of_cover_is_cover(backend, data):
    covers, by_cod = site_maps(backend)
    g = data.draw(st.sampled_from(covers))
    f = data.draw(st.sampled_from(by_cod[g.cod]))
    assert is_cover(fibre_product(f, g).pr1)


@given(st.integers(1, 4), st.data())
def test_coequalizer_is_universal(n, data):
    """proj coequalizes, and any map equalizing the pair factors."""
    X = make_finset(["x%d" % i for i in range(n)])
    W = make_finset(["w0", "w1"])
    f_tab = data.draw(st.lists(st.sampled_from(X.elements_list
                                               if hasattr(X, "elements_list")
                                               else sorted(X.elements)),
                               min_size=n, max_size=n))
    g_tab = data.draw(st.lists(st.sampled_from(sorted(X.elements)),
                               min_size=n, max_size=n))
    dom = make_finset(["d%d" % i for i in range(n)])
    f = Mor(dom, X, dict(zip(sorted(dom.elements), f_tab)))
    g = Mor(dom, X, dict(zip(sorted(dom.elements), g_tab)))
    c = coequalizer(f, g)
    assert compose(c.proj, f) == compose(c.proj, g)
    for h in all_maps(X, W):
        if compose(h, f) == compose(h, g):
            # h factors uniquely through the quotient
            tbl = {}
            for x in X.elements:
                q = c.proj(x)
                assert tbl.setdefault(q, h(x)) == h(x)


def quadratic_fibre_product(f, g):
    """The fibre product as first written: every pair of points is tested,
    and each fintop neighbourhood scans every pair again.  The reference
    for the bucketed ``fibre_product``; returns (apex, pairing)."""
    pairs = [(y, u) for y in f.dom.elements for u in g.dom.elements
             if f(y) == g(u)]
    ids = [pair_id(y, u) for y, u in pairs]
    pairing = dict(zip(ids, pairs))
    if f.dom.backend == "finset":
        return Obj("finset", ids), pairing
    nb = {e: frozenset(pair_id(y2, u2) for (y2, u2) in pairs
                       if y2 in f.dom.nbhd[y] and u2 in g.dom.nbhd[u])
          for e, (y, u) in pairing.items()}
    return Obj("fintop", ids, nb), pairing


@pytest.fixture(scope="module")
def small_objects():
    """Every object of at most four points (fintop: every topology)."""
    return {"finset": all_finsets(4),
            "fintop": all_finspaces(4, up_to_homeo=False)}


@given(st.sampled_from(["finset", "fintop"]), st.data())
def test_fibre_product_matches_quadratic_oracle(small_objects, backend,
                                                 data):
    objs = small_objects[backend]
    z = data.draw(st.sampled_from(objs))
    legs = []
    for _ in range(2):
        maps = list(all_maps(data.draw(st.sampled_from(objs)), z))
        assume(maps)
        legs.append(data.draw(st.sampled_from(maps)))
    f, g = legs
    fp = fibre_product(f, g)
    apex, pairing = quadratic_fibre_product(f, g)
    assert fp.apex.elements == apex.elements
    assert list(fp.pairing.items()) == list(pairing.items())
    assert fp.pr1.table == {e: y for e, (y, u) in pairing.items()}
    assert fp.pr2.table == {e: u for e, (y, u) in pairing.items()}
    assert fp.apex.nbhd == apex.nbhd


@given(st.sampled_from(["finset", "fintop"]), st.data())
def test_mor_product_table(small_objects, backend, data):
    """f1 x f2 sends (l, r) to (f1(l), f2(r)); a product of covers is a
    cover.  Objects of at most three points."""
    objs = [x for x in small_objects[backend] if len(x) <= 3]
    legs = []
    for _ in range(2):
        maps = list(all_maps(data.draw(st.sampled_from(objs)),
                             data.draw(st.sampled_from(objs))))
        assume(maps)
        legs.append(data.draw(st.sampled_from(maps)))
    f1, f2 = legs
    f12 = mor_product(f1, f2)
    dom = obj_product(f1.dom, f2.dom)
    cod = obj_product(f1.cod, f2.cod)
    assert (f12.dom, f12.cod) == (dom.apex, cod.apex)
    assert f12.table == {e: cod.index[(f1(l), f2(r))]
                         for e, (l, r) in dom.pairing.items()}
    if is_cover(f1) and is_cover(f2):
        assert is_cover(f12)


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_projections_match_the_pairing(backend):
    """For every pair of maps into a common codomain between objects of at
    most three points, the projections read off the pairing: pr1 sends
    each pair (y, u) to y and pr2 to u.  A fintop projection is
    continuous (checked here without the library), and a second read
    returns the same map."""
    _, by_cod = site_maps(backend)
    for maps in by_cod.values():
        for f in maps:
            for g in maps:
                fp = fibre_product(f, g)
                pr1, pr2 = fp.pr1, fp.pr2
                assert (pr1.dom, pr1.cod, pr2.dom, pr2.cod) == (
                    fp.apex, f.dom, fp.apex, g.dom)
                assert pr1.table == {e: y for e, (y, u) in fp.pairing.items()}
                assert pr2.table == {e: u for e, (y, u) in fp.pairing.items()}
                assert fp.pr1 is pr1 and fp.pr2 is pr2
                if backend == "fintop":
                    for pr in (pr1, pr2):
                        assert all(pr.table[e2] in pr.cod.nbhd[pr.table[e]]
                                   for e in fp.apex.elements
                                   for e2 in fp.apex.nbhd[e])


def test_unread_projections_build_no_map(monkeypatch, S2, S3, p2, p3):
    """A fibre product builds no ``Mor`` until a projection is read, and
    then one per projection, however often it is read."""
    built = []
    init = Mor.__init__

    def counting(self, dom, cod, table):
        built.append((dom, cod))
        init(self, dom, cod, table)

    monkeypatch.setattr(Mor, "__init__", counting)
    fp = fibre_product(p2, p3)
    assert len(fp.pairing) == 6 and fp.index[("a", "c")] == "a|c"
    assert built == []
    assert fp.pr2.table["b|e"] == "e" and fp.pr2 is fp.pr2
    assert built == [(fp.apex, S3)]
    fp.pr1, fp.pr1
    assert built == [(fp.apex, S3), (fp.apex, S2)]


@pytest.mark.parametrize("table, message", [
    ({1: "a", 2: "a"}, "map keys must be element ids, not 1"),
    ({"1": "a", 2: "a"}, "map keys must be element ids, not 2"),
    ({"1": "a", "2": 0}, "images must land in the codomain"),
    ({"1": "a", "2": ["a"]}, "images must land in the codomain"),
    ({"1": "a"}, "map must be total on the domain, at 2")],
    ids=["int-keys", "one-int-key", "int-value", "list-value", "partial"])
def test_tables_are_not_coerced(table, message):
    """``Mor`` copies its table as given: a key or value that is not an
    element id (a string) is a ``NotAMorphism``, never coerced."""
    X, Y = make_finset(["1", "2"]), make_finset(["a", "0"])
    with pytest.raises(NotAMorphism, match="^%s$" % message):
        Mor(X, Y, table)
    assert Mor(X, Y, {"1": "a", "2": "0"}).table == {"1": "a", "2": "0"}


def test_all_maps_checks_each_table_once(monkeypatch):
    """``all_maps`` checks each candidate table once: one ``_table_fault``
    call per table of dom -> cod, kept or not."""
    import groupoidal.site_core as site_core
    calls = []
    fault = site_core._table_fault

    def counting(dom, cod, table):
        calls.append(table)
        return fault(dom, cod, table)

    monkeypatch.setattr(site_core, "_table_fault", counting)
    sier = sierpinski()
    assert len(list(all_maps(sier, sier))) == 3
    assert len(calls) == 4
    assert len(list(all_maps(make_finset("abc"), make_finset("xy")))) == 8
    assert len(calls) == 4 + 8
