"""The pretopology harness against the loops it replaced.

``old_axiom_harness`` is the harness in which ``pullback-covers``,
``cover-local`` and ``iso-local`` each build their own fibre product for
every (cover, map) pair and ``product-covers`` builds two object products
for every pair of covers.  The harness must give the same findings, the
same witnesses and the same budget verdicts, also under wrong cover and
iso predicates that make each of the three pullback axioms fail.
"""

import pytest

import groupoidal.site_core as sc
from groupoidal.backends import all_finsets, all_finspaces


def old_axiom_harness(objs, mors, budget=2_000_000,
                      include_empty_in_28=False):
    """The harness as it was before the three pullback axioms shared one
    fibre product per (cover, map) pair and the product axiom one product
    per pair of objects: each axiom runs its own loop.  Every site
    function is looked up on ``sc``, so a predicate patched there is
    patched here too."""
    objs = list(objs)
    mors = list(mors)
    bud = sc._Budget(budget)
    findings = []

    def done(check, witness=None):
        findings.append(sc.Finding(check, witness is None, witness))

    covers = [f for f in mors if sc.is_cover(f)]

    # isomorphisms are covers
    w = None
    for f in mors:
        bud.tick()
        if sc.is_iso(f) and not sc.is_cover(f):
            w = "iso %r is not a cover" % (f.table,)
            break
    done("iso-covers", w)

    # composites of covers are covers
    w = None
    for f in covers:
        for g in covers:
            if g.cod != f.dom:
                continue
            bud.tick()
            if not sc.is_cover(sc.compose(f, g)):
                w = "composite of %r and %r" % (f.table, g.table)
                break
        if w:
            break
    done("compose-covers", w)

    by_cod = {}
    for f in mors:
        by_cod.setdefault(f.cod, []).append(f)

    # pullbacks of covers exist and project to covers
    w = None
    for g in covers:
        for f in by_cod.get(g.cod, ()):
            bud.tick()
            fp = sc.fibre_product(f, g)
            if not sc.is_cover(fp.pr1):
                w = "pr1 of %r along cover %r" % (f.table, g.table)
                break
        if w:
            break
    done("pullback-covers", w)

    # subcanonicity: a cover is the coequalizer of its kernel pair
    w = None
    small = [x for x in objs if len(x) <= 3]
    for f in covers:
        bud.tick()
        kp = sc.kernel_pair(f)
        co = sc.coequalizer(kp.pr1, kp.pr2)
        induced = {}
        for x in f.dom.elements:
            induced[co.proj(x)] = f(x)
        q = sc.Mor(co.quotient, f.cod, induced)
        if not sc.is_iso(q):
            w = "kernel-pair quotient of %r not iso to the base" % (f.table,)
            break
        # factorization bijection against small test objects
        for wobj in small:
            bud.tick()
            equalized = [h for h in sc.all_maps(f.dom, wobj)
                         if all(h(kp.pr1(e)) == h(kp.pr2(e))
                                for e in kp.apex.elements)]
            through = {frozenset(sc.compose(h, f).table.items())
                       for h in sc.all_maps(f.cod, wobj)}
            if len(through) != len(equalized):
                w = "factorization count mismatch for %r into %r" % (
                    f.table, list(wobj.elements))
                break
            for h in equalized:
                if frozenset(h.table.items()) not in through:
                    w = "equalized map %r does not factor" % (h.table,)
                    break
            if w:
                break
        if w:
            break
    done("subcanonical", w)

    # cover property is local: pr2 cover and g cover imply f cover
    w = None
    for g in covers:
        for f in by_cod.get(g.cod, ()):
            bud.tick()
            fp = sc.fibre_product(f, g)
            if sc.is_cover(fp.pr2) and not sc.is_cover(f):
                w = "locality fails for %r along %r" % (f.table, g.table)
                break
        if w:
            break
    done("cover-local", w)

    # two-out-of-three: f∘p and p covers imply f cover
    w = None
    for p in covers:
        for f in mors:
            if f.dom != p.cod:
                continue
            bud.tick()
            if sc.is_cover(sc.compose(f, p)) and not sc.is_cover(f):
                w = "f=%r, p=%r" % (f.table, p.table)
                break
        if w:
            break
    done("two-out-of-three", w)

    # every map to the final object is a cover (nonempty carriers)
    w = None
    for x in objs:
        if not x.elements and not include_empty_in_28:
            continue
        bud.tick()
        if not sc.is_cover(sc.to_terminal(x)):
            w = "map %r -> {*} is not a cover" % (list(x.elements),)
            break
    done("covers-to-final", w)

    # being an isomorphism is local along covers
    w = None
    for g in covers:
        for f in by_cod.get(g.cod, ()):
            bud.tick()
            fp = sc.fibre_product(g, f)
            if sc.is_cover(fp.pr2) and sc.is_iso(fp.pr1) and not sc.is_iso(f):
                w = "iso-locality fails for %r along %r" % (f.table, g.table)
                break
        if w:
            break
    done("iso-local", w)

    # binary products of covers are covers
    w = None
    for f1 in covers:
        for f2 in covers:
            if not f1.dom.elements or not f2.dom.elements:
                continue
            bud.tick()
            if not sc.is_cover(sc.mor_product(f1, f2)):
                w = "product of %r and %r" % (f1.table, f2.table)
                break
        if w:
            break
    done("product-covers", w)

    # saturation report: look for f with a section-like p making f∘p a
    # cover while f itself is not.  Constructed from fold maps out of
    # coproducts; a witness is expected for fintop, none for finset.
    witness = None
    for a in objs:
        if witness:
            break
        for b in objs:
            if witness:
                break
            if not b.elements:
                continue
            for f0 in mors:
                if f0.dom != a or f0.cod != b:
                    continue
                bud.tick()
                total, inl, inr = sc.disjoint_union(a, b)
                f = sc.copair(f0, sc.identity(b), total, inl, inr)
                if sc.is_cover(sc.compose(f, inr)) and not sc.is_cover(f):
                    witness = "fold of %r with the identity on %r" % (
                        f0.table, list(b.elements))
                    break
    findings.append(sc.Finding("saturation-witness", True,
                               witness or "no witness: class is saturated"))
    return findings


_SITES = {}


def site(backend):
    """The objects of at most three points of a backend and every map
    between them."""
    if backend not in _SITES:
        objs = all_finsets(3) if backend == "finset" else all_finspaces(3)
        mors = [f for a in objs for b in objs for f in sc.all_maps(a, b)]
        _SITES[backend] = (objs, mors)
    return _SITES[backend]


# the least budget with which the harness passes on each site
LEAST_BUDGET = {"finset": 2076, "fintop": 32225}


@pytest.mark.parametrize("empty", [False, True], ids=["nonempty", "empty"])
@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_harness_matches_old_loops(backend, empty):
    objs, mors = site(backend)
    old = old_axiom_harness(objs, mors, include_empty_in_28=empty)
    new = sc.axiom_harness(objs, mors, include_empty_in_28=empty)
    assert new == old
    assert [f.check for f in new if not f.ok] == (
        ["covers-to-final"] if empty else [])


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_budget_boundary(backend):
    objs, mors = site(backend)
    least = LEAST_BUDGET[backend]
    with pytest.raises(sc.BudgetExceeded):
        sc.axiom_harness(objs, mors, budget=least - 1)
    assert sc.passed(sc.axiom_harness(objs, mors, budget=least))


def test_budget_boundary_of_old_loops():
    objs, mors = site("finset")
    with pytest.raises(sc.BudgetExceeded):
        old_axiom_harness(objs, mors, budget=LEAST_BUDGET["finset"] - 1)
    assert sc.passed(old_axiom_harness(objs, mors,
                                       budget=LEAST_BUDGET["finset"]))


_is_cover, _is_iso = sc.is_cover, sc.is_iso

# Wrong predicates, each invariant under relabelling, as the real ones
# are.  Together they make each of the three pullback axioms fail, at
# different pairs, so that one axiom closes while the others run on.
WRONG = {
    "cover-at-most-2-points": (
        "is_cover", lambda f: sc.is_surjective(f) and len(f.dom) <= 2),
    "cover-onto-3-points": (
        "is_cover", lambda f: sc.is_surjective(f) or len(f.cod) == 3),
    "iso-from-3-points": (
        "is_iso", lambda f: _is_iso(f) or len(f.dom) >= 3),
}


# on fintop the old loops take 3-7 s under the two predicates on 3-point
# maps, so only the cheap one runs there
@pytest.mark.parametrize("wrong,backend", [
    (wrong, "finset") for wrong in sorted(WRONG)] + [
    ("cover-at-most-2-points", "fintop")])
def test_harness_matches_old_loops_under_wrong_predicate(monkeypatch,
                                                         wrong, backend):
    objs, mors = site(backend)
    monkeypatch.setattr(sc, *WRONG[wrong])
    old = old_axiom_harness(objs, mors)
    new = sc.axiom_harness(objs, mors)
    assert new == old
    assert not sc.passed(new)


def test_wrong_predicates_break_each_pullback_axiom(monkeypatch):
    objs, mors = site("finset")
    failed = set()
    for attr, fn in WRONG.values():
        with monkeypatch.context() as m:
            m.setattr(sc, attr, fn)
            failed |= {f.check for f in sc.axiom_harness(objs, mors)
                       if not f.ok}
    assert {"pullback-covers", "cover-local", "iso-local"} <= failed


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_harness_product_maps_are_mor_product(monkeypatch, backend):
    """The product maps the harness builds from its shared object
    products are ``mor_product``'s, one for each pair of nonempty covers,
    and are covers."""
    objs, mors = site(backend)
    built = []
    product_map = sc._product_map

    def record(f1, f2, dom, cod):
        out = product_map(f1, f2, dom, cod)
        built.append((f1, f2, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(sc, "_product_map", record)
        assert sc.passed(sc.axiom_harness(objs, mors))
    covers = [f for f in mors if _is_cover(f) and f.dom.elements]
    assert [(f1, f2) for f1, f2, _ in built] == [
        (f1, f2) for f1 in covers for f2 in covers]
    for f1, f2, f12 in built:
        assert f12 == sc.mor_product(f1, f2)
        assert _is_cover(f12)
