"""The pretopology harness against the loops it replaced.

``old_axiom_harness`` is the harness in which ``pullback-covers``,
``cover-local`` and ``iso-local`` each build their own fibre product for
every (cover, map) pair, ``product-covers`` builds two object products
for every pair of covers, and no case reuses the verdict of a case it
relabels.  The harness must give the same findings, the same witnesses
and the same budget verdicts, also on samples of maps that are not
closed under relabelling, and under wrong cover and iso predicates that
make each of the three pullback axioms fail.
"""

from functools import cache
from itertools import permutations

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


@cache
def homeomorphisms(x):
    """Every homeomorphism of x, by brute force over the permutations."""
    out = []
    for perm in permutations(x.elements):
        table = dict(zip(x.elements, perm))
        if sc.valid_mor_table(x, x, table) and sc.is_iso(sc.Mor(x, x, table)):
            out.append(table)
    return out


def moves(f, g, alphas, gammas):
    """Is g = γ∘f∘α⁻¹ for some α in ``alphas`` and γ in ``gammas``?"""
    return any(all(gam[f(e)] == g(alpha[e]) for e in f.dom)
               for alpha in alphas for gam in gammas)


def relabels(f, g):
    """Is g = γ∘f∘α⁻¹ for homeomorphisms α and γ of f's ends?"""
    return moves(f, g, homeomorphisms(f.dom), homeomorphisms(f.cod))


def classes(mors):
    """The relabelling class of each map, by ``id``."""
    info, _ = sc._relabelling_classes(mors)
    return lambda f: info[id(f)][0]


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_harness_product_maps_are_mor_product(monkeypatch, backend):
    """The harness builds one product map for each pair of classes of
    nonempty covers, from its shared object products; each pair of
    nonempty covers relabels a built pair, and each built map is
    ``mor_product``'s and a cover."""
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
    cls = classes(mors)
    by_class = {(cls(f1), cls(f2)): (f1, f2) for f1, f2, _ in built}
    assert len(by_class) == len(built)
    covers = [f for f in mors if _is_cover(f) and f.dom.elements]
    for f1 in covers:
        for f2 in covers:
            b1, b2 = by_class[cls(f1), cls(f2)]
            assert relabels(b1, f1) and relabels(b2, f2)
    for f1, f2, f12 in built:
        assert f12 == sc.mor_product(f1, f2)
        assert _is_cover(f12)


def check_classes_relabel(sample):
    """Each map of ``sample`` is γ∘rep∘α⁻¹ for the first map rep of its
    class, its transporter γ over the positions of the first object equal
    to its codomain, and a homeomorphism α."""
    info, _ = sc._relabelling_classes(sample)
    first, named = {}, {}
    for f in sample:
        named.setdefault(f.dom, f.dom)
        named.setdefault(f.cod, f.cod)
        cls, _, _, _, gam = info[id(f)]
        rep = first.setdefault(cls, f)
        c = named[f.cod].elements
        gamma = {c[i]: c[k] for i, k in enumerate(gam)}
        assert gamma in homeomorphisms(f.cod)
        assert moves(rep, f, homeomorphisms(f.dom), [gamma])


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_classes_relabel_their_first_map(backend):
    """On each site, and on a sample of every other map."""
    objs, mors = site(backend)
    check_classes_relabel(mors)
    check_classes_relabel(mors[::2])


def test_equal_objects_listed_in_two_orders_share_positions():
    """An open point under two twins, listed in two orders: the objects
    are equal, and the twin swaps of the first listing must not be read
    in the positions of the second."""
    full = {"x0", "x1", "x2"}
    nbhd = {"x0": {"x0"}, "x1": full, "x2": full}
    x = sc.Obj("fintop", ["x0", "x1", "x2"], nbhd)
    y = sc.Obj("fintop", ["x1", "x0", "x2"], nbhd)
    assert x == y and sc._twins(x) == [(1, 2)] and sc._twins(y) == [(0, 2)]
    check_classes_relabel([f for a, b in [(x, y), (y, x), (y, y)]
                           for f in sc.all_maps(a, b)])


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_pullback_and_chain_classes_are_relabellings(backend):
    """Two pullback pairs (f, g) of one class are related by
    homeomorphisms α, β, γ of the three objects: f' = γ∘f∘α⁻¹ and g' =
    γ∘g∘β⁻¹.  Two chains (p, f) of one class are related by α, β, γ:
    p' = β∘p∘α⁻¹ and f' = γ∘f∘β⁻¹."""
    objs, mors = site(backend)
    info, twins = sc._relabelling_classes(mors)
    covers = [g for g in mors if _is_cover(g)]
    first = {}
    for g in covers:
        for f in mors:
            if f.cod == g.cod:
                f0, g0 = first.setdefault(
                    sc._pullback_class(info, twins, f, g), (f, g))
                assert any(moves(g0, g, homeomorphisms(g.dom), [gam])
                           and moves(f0, f, homeomorphisms(f.dom), [gam])
                           for gam in homeomorphisms(g.cod)), (f, g)
    for p in covers:
        for f in mors:
            if f.dom == p.cod:
                p0, f0 = first.setdefault(
                    sc._chain_class(info, p, f), (p, f))
                assert any(moves(p0, p, homeomorphisms(p.dom), [beta])
                           and moves(f0, f, [beta], homeomorphisms(f.cod))
                           for beta in homeomorphisms(p.cod)), (p, f)


def test_twins_are_homeomorphisms():
    """Each generator swaps two points by a homeomorphism, and two points
    whose swap is a homeomorphism lie on one chain of generators."""
    for x in all_finsets(4) + all_finspaces(4, up_to_homeo=False):
        def swap(i, j):
            a, b = x.elements[i], x.elements[j]
            return {**{e: e for e in x}, a: b, b: a}

        chain = list(range(len(x)))
        for i, j in sc._twins(x):
            assert swap(i, j) in homeomorphisms(x)
            chain[j] = chain[i]
        for i, j in permutations(range(len(x)), 2):
            if swap(i, j) in homeomorphisms(x):
                assert chain[i] == chain[j]


def partitions(n, k):
    """The partitions of n into at most k parts."""
    if n == 0:
        return 1
    if k == 0:
        return 0
    # at most k - 1 parts, or k parts each at least 1
    return partitions(n, k - 1) + (partitions(n - k, k) if n >= k else 0)


def test_finset_map_classes_are_partitions():
    objs = all_finsets(4)
    mors = [f for a in objs for b in objs for f in sc.all_maps(a, b)]
    cls = classes(mors)
    for a in objs:
        for c in objs:
            found = {cls(f) for f in mors if f.dom == a and f.cod == c}
            assert len(found) == (partitions(len(a), len(c)) if len(c)
                                  else int(not len(a))), (len(a), len(c))


@pytest.mark.parametrize("wrong", [None] + sorted(WRONG))
@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_harness_matches_old_loops_on_every_other_map(monkeypatch, backend,
                                                      wrong):
    """A sample that holds only some maps of each class: the classes
    still share verdicts only between relabelled cases."""
    objs, mors = site(backend)
    mors = mors[::2]
    if wrong:
        monkeypatch.setattr(sc, *WRONG[wrong])
    assert sc.axiom_harness(objs, mors) == old_axiom_harness(objs, mors)


# the fibre products the harness builds on each site (pullbacks, kernel
# pairs and object products); the old loops build 6,221 on fintop
FIBRE_PRODUCTS = {"finset": 69, "fintop": 2087}


@pytest.mark.parametrize("backend", ["finset", "fintop"])
def test_fibre_products_built(monkeypatch, backend):
    objs, mors = site(backend)
    calls = []
    fibre_product = sc.fibre_product

    def count(f, g):
        calls.append(1)
        return fibre_product(f, g)

    monkeypatch.setattr(sc, "fibre_product", count)
    assert sc.passed(sc.axiom_harness(objs, mors))
    assert len(calls) == FIBRE_PRODUCTS[backend]
