import pytest

from groupoidal.site_core import (BoundaryMismatch, Mor, compose,
                                  fibre_product, first_failure, identity,
                                  is_cover, is_iso, passed, terminal,
                                  to_terminal)
from groupoidal.backends import make_finset
from groupoidal.groupoid import (cyclic_groupoid, pair_groupoid,
                                 pullback_groupoid, unit_groupoid)
from groupoidal.morphism import (AnaNat, Anafunctor, Functor, NatTrans,
                                 NotComposable, NotNatural,
                                 ad_bisection, anafunctor_from_functor,
                                 ananat_inverse, bisection_inverse,
                                 compose_anafunctors, compose_functors,
                                 compose_nat, compose_ananat,
                                 enumerate_functors, exists_ananat,
                                 functor_surjectivity_tests, hypercover,
                                 identity_anafunctor,
                                 identity_ananat, identity_functor,
                                 identity_nat, is_ana_equivalence,
                                 is_anafunctor_iso, iso_to_ananat,
                                 nat_inverse, section_product,
                                 validate_ananat, validate_functor,
                                 validate_nat)
from groupoidal.bibundle import (beta_ana_to_bibundle,
                                 bibundle_to_anafunctor,
                                 brute_force_quasi_inverse, classify)
from test_acceptance import battery
from test_bundle import counted


def unit_inclusion(Z2):
    """The functor from the trivial groupoid on a point into Z/2."""
    pt = unit_groupoid(terminal("finset"))
    return Functor(pt, Z2, Mor(pt.G0, Z2.G0, {"*": "*"}),
                   Mor(pt.G1, Z2.G1, {"*": "0"}))


def test_identity_functor_validates(Z2, CECH2):
    for g in (Z2, CECH2):
        assert passed(validate_functor(identity_functor(g)))


def test_functor_composition(Z2):
    inc = unit_inclusion(Z2)
    triv = Functor(Z2, Z2, identity(Z2.G0),
                   Mor(Z2.G1, Z2.G1, {"0": "0", "1": "0"}))
    assert passed(validate_functor(triv))
    comp = compose_functors(triv, inc)
    assert comp.F1.table == {"*": "0"}


def test_invalid_functor_detected(Z2):
    bad = Functor(Z2, Z2, identity(Z2.G0),
                  Mor(Z2.G1, Z2.G1, {"0": "1", "1": "0"}))
    assert not passed(validate_functor(bad))


def test_validate_functor_reports_undefined_composite():
    """F1 swapping u|v and v|u breaks composability: the validator
    reports failing findings instead of raising KeyError."""
    g = pair_groupoid(make_finset(["u", "v"]))
    swap = {"u|v": "v|u", "v|u": "u|v"}
    bad = Functor(g, g, identity(g.G0),
                  Mor(g.G1, g.G1, {a: swap.get(a, a) for a in g.arrows()}))
    rep = {f.check: f for f in validate_functor(bad)}
    assert not rep["range-compat"].ok and not rep["source-compat"].ok
    assert not rep["multiplicative"].ok
    assert rep["multiplicative"].witness == \
        "undefined composite at 'u|u|v|u'"
    assert rep["unit-preserving"].ok


def test_validate_functor_multiplicative_witness(Z2, Z3):
    """The first failing composable pair, in a-major order."""
    g = pair_groupoid(make_finset(["u", "v"]))
    bad = Functor(g, Z2, Mor(g.G0, Z2.G0, {"u": "*", "v": "*"}),
                  Mor(g.G1, Z2.G1,
                      {"u|u": "0", "u|v": "1", "v|u": "1", "v|v": "1"}))
    rep = {f.check: f for f in validate_functor(bad)}
    assert rep["multiplicative"].witness == ("u|v", "v|v")
    assert rep["unit-preserving"].witness == "v"
    square = Functor(Z3, Z3, identity(Z3.G0),
                     Mor(Z3.G1, Z3.G1, {"0": "0", "1": "2", "2": "2"}))
    rep = {f.check: f for f in validate_functor(square)}
    assert [f.witness for f in rep.values() if not f.ok] == [("1", "1")]


def test_nat_trans_on_cyclic(Z4):
    idF = identity_functor(Z4)
    # conjugation by any element of an abelian group is trivial, so any
    # constant section is a natural transformation id => id
    for k in "0123":
        t = NatTrans(idF, idF, Mor(Z4.G0, Z4.G1, {"*": k}))
        assert passed(validate_nat(t))
    tid = identity_nat(idF)
    inv = nat_inverse(tid)
    assert passed(validate_nat(inv))
    v = compose_nat("vertical", inv, tid)
    assert passed(validate_nat(v))
    h = compose_nat("horizontal", tid, tid)
    assert passed(validate_nat(h))


def test_nat_interchange(Z4):
    idF = identity_functor(Z4)
    a = NatTrans(idF, idF, Mor(Z4.G0, Z4.G1, {"*": "1"}))
    b = NatTrans(idF, idF, Mor(Z4.G0, Z4.G1, {"*": "2"}))
    lhs = compose_nat("horizontal", a, b)
    v1 = compose_nat("vertical", a, identity_nat(idF))
    v2 = compose_nat("vertical", identity_nat(idF), b)
    rhs = compose_nat("vertical", v1, v2)
    assert lhs.phi == rhs.phi


def test_vertical_requires_matching_boundary(Z4):
    idF = identity_functor(Z4)
    t = identity_nat(idF)
    other = identity_nat(identity_functor(cyclic_groupoid(2)))
    with pytest.raises(NotComposable):
        compose_nat("vertical", t, other)


def test_sections_and_bisections(S3):
    g = pair_groupoid(S3)
    # pick the arrow (sigma(x), x) over each x for a permutation sigma
    sigma = {"c": "d", "d": "e", "e": "c"}
    phi = Mor(g.G0, g.G1,
              {x: g.kernel.index[(sigma[x], x)] for x in g.objects()})
    res = ad_bisection(g, phi)
    assert res["is_section"] and res["is_bisection"]
    assert passed(validate_functor(res["ad"]))
    inv = bisection_inverse(g, phi)
    prod = section_product(g, phi, inv)
    unit_section = compose(g.u, identity(g.G0))
    assert prod == unit_section
    # a non-bisection: constant target
    psi = Mor(g.G0, g.G1,
              {x: g.kernel.index[("c", x)] for x in g.objects()})
    res2 = ad_bisection(g, psi)
    assert res2["is_section"] and not res2["is_bisection"]


def test_surjectivity_tests(Z2, CECH2):
    inc = unit_inclusion(Z2)
    t = functor_surjectivity_tests(inc)
    assert t["essentially_surjective"] and not t["fully_faithful"]
    quot = Functor(CECH2, unit_groupoid(terminal("finset")),
                   Mor(CECH2.G0, terminal("finset"), {"a": "*", "b": "*"}),
                   Mor(CECH2.G1, terminal("finset"),
                       {e: "*" for e in CECH2.G1.elements}))
    t2 = functor_surjectivity_tests(quot)
    assert t2["essentially_surjective"] and t2["fully_faithful"]


def test_identity_anafunctor_is_equivalence(Z2, CECH2):
    for g in (Z2, CECH2):
        res = is_ana_equivalence(identity_anafunctor(g))
        assert res["flag"]
        w = res["witness"]
        assert w is not None and is_iso(w.functor.F1)


def test_unit_inclusion_anafunctor_not_equivalence(Z2):
    a = anafunctor_from_functor(unit_inclusion(Z2))
    assert not is_ana_equivalence(a)["flag"]
    assert brute_force_quasi_inverse(beta_ana_to_bibundle(a), cap=2) is None


def test_hypercover_anafunctor_equivalence(p2, CECH2):
    """The span with the Čech groupoid of a cover over the trivial base
    is an equivalence both ways."""
    pt = unit_groupoid(terminal("finset"))
    quot = Functor(CECH2, pt,
                   Mor(CECH2.G0, pt.G0, {"a": "*", "b": "*"}),
                   Mor(CECH2.G1, pt.G1, {e: "*" for e in CECH2.G1.elements}))
    a = anafunctor_from_functor(quot)
    assert is_ana_equivalence(a)["flag"]
    q = brute_force_quasi_inverse(beta_ana_to_bibundle(a), cap=2)
    assert q is not None


def test_compose_anafunctors_unitor(Z2):
    a = identity_anafunctor(Z2)
    b = anafunctor_from_functor(unit_inclusion(Z2))
    c = compose_anafunctors(a, b)
    n = exists_ananat(c, b)
    assert n is not None
    assert passed(validate_ananat(n))


def test_ananat_vertical_and_inverse(Z2, CECH2):
    pt = unit_groupoid(terminal("finset"))
    quot = Functor(CECH2, pt,
                   Mor(CECH2.G0, pt.G0, {"a": "*", "b": "*"}),
                   Mor(CECH2.G1, pt.G1, {e: "*" for e in CECH2.G1.elements}))
    a = anafunctor_from_functor(quot)
    b = compose_anafunctors(a, identity_anafunctor(CECH2))
    n = exists_ananat(a, b)
    assert n is not None
    inv = ananat_inverse(n)
    assert passed(validate_ananat(inv))
    v = compose_ananat("vertical", inv, n)
    assert passed(validate_ananat(v))
    i = identity_ananat(a)
    assert passed(validate_ananat(i))


def test_iso_to_ananat(Z2):
    a = identity_anafunctor(Z2)
    phi = identity(a.X)
    assert is_anafunctor_iso(a, a, phi)
    t = iso_to_ananat(a, a, phi)
    assert passed(validate_ananat(t))


def test_anafunctor_rejects_a_source_that_is_no_pullback_groupoid(Z2, S2):
    """F must start at a pullback groupoid over p: Z2 itself has no
    triples, and the pullback groupoid of Z2 along another cover from the
    same carrier has triples over that cover only."""
    with pytest.raises(BoundaryMismatch, match="pullback groupoid"):
        Anafunctor(Z2, Z2, identity(Z2.G0), identity_functor(Z2))
    pair = pair_groupoid(S2)
    flip = Mor(S2, S2, {"a": "b", "b": "a"})
    with pytest.raises(BoundaryMismatch, match="pullback groupoid"):
        Anafunctor(pair, pair, flip,
                   hypercover(pullback_groupoid(pair, identity(S2))))


def test_hypercover_needs_a_pullback_groupoid(Z2):
    """A groupoid that pullback_groupoid did not build has no base and
    cover to map down to: BoundaryMismatch, not AttributeError."""
    with pytest.raises(BoundaryMismatch, match="^hypercover: .* no pullback"):
        hypercover(Z2)


def test_beta_builds_no_pullback_groupoid(monkeypatch, Z2, CECH2):
    """beta_ana_to_bibundle maps down from the anafunctor's own groupoid
    ``a.gx``: it builds no second pullback groupoid (counted in the two
    modules that call it)."""
    import groupoidal.bibundle as bibundle
    import groupoidal.morphism as morphism
    anas = [bibundle_to_anafunctor(b) for b in battery().values()
            if classify(b)["is_functor"]]
    anas += [identity_anafunctor(Z2), identity_anafunctor(CECH2)]
    calls = [counted(monkeypatch, m, ["pullback_groupoid"])
             for m in (bibundle, morphism)]
    for a in anas:
        assert beta_ana_to_bibundle(a).down.g is a.gx
    assert calls == [{"pullback_groupoid": 0}] * 2


def test_iso_to_ananat_needs_a_bijection(Z2, S2):
    """The constant map of {a, b} commutes with the covers and the
    functors of the hypercover anafunctor over the terminal map, but is
    no isomorphism of anafunctors."""
    b = Anafunctor(Z2, Z2, to_terminal(S2),
                   hypercover(pullback_groupoid(Z2, to_terminal(S2))))
    const = Mor(S2, S2, {"a": "a", "b": "a"})
    assert not is_anafunctor_iso(b, b, const)
    with pytest.raises(NotNatural):
        iso_to_ananat(b, b, const)
    assert is_anafunctor_iso(b, b, Mor(S2, S2, {"a": "b", "b": "a"}))


def test_enumerate_functors_counts(Z2, Z4, CECH2):
    # group homomorphisms Z/2 -> Z/4: two (trivial and x -> 2x)
    assert len(list(enumerate_functors(Z2, Z4))) == 2
    assert len(list(enumerate_functors(Z4, Z2))) == 2
    # functors from a Čech groupoid of a 2-cover into Z/2: determined by
    # the image of the off-diagonal arrow
    assert len(list(enumerate_functors(CECH2, Z2))) == 2


def test_associativity_up_to_ananat(Z2, CECH2):
    pt = unit_groupoid(terminal("finset"))
    quot = Functor(CECH2, pt,
                   Mor(CECH2.G0, pt.G0, {"a": "*", "b": "*"}),
                   Mor(CECH2.G1, pt.G1, {e: "*" for e in CECH2.G1.elements}))
    a = identity_anafunctor(CECH2)
    b = anafunctor_from_functor(quot)
    c = identity_anafunctor(pt)
    left = compose_anafunctors(c, compose_anafunctors(b, a))
    right = compose_anafunctors(compose_anafunctors(c, b), a)
    n = exists_ananat(left, right)
    assert n is not None and passed(validate_ananat(n))


def old_naturality_cases(t):
    """The naturality cases of ``validate_ananat`` as first written: each
    fibre of the two covers filtered from the whole carrier."""
    a1, a2, h = t.from_, t.to, t.from_.dst
    for g in a1.src.arrows():
        rg, sg = a1.src.r(g), a1.src.s(g)
        for x1 in [x for x in a1.X.elements if a1.p(x) == rg]:
            for x2 in [x for x in a2.X.elements if a2.p(x) == rg]:
                for x3 in [x for x in a1.X.elements if a1.p(x) == sg]:
                    for x4 in [x for x in a2.X.elements if a2.p(x) == sg]:
                        yield (x1, x2, g, x3, x4), (
                            h.mul(t.at(x1, x2), a1.F1t(x1, g, x3))
                            == h.mul(a2.F1t(x2, g, x4), t.at(x3, x4)))


@pytest.mark.parametrize("wrong", ["a1|a2", "b2|b1", "b2|b2"])
def test_broken_ananat_keeps_its_witness(CECH2, Z2, wrong):
    """The trivial anafunctor from the Čech groupoid of S2 to Z/2 through
    a cover with two points over each object, and a 2-arrow to itself
    that is 1 at one pair and 0 elsewhere: not natural, and the first
    failing case is the old loops' first."""
    X = make_finset(["a1", "a2", "b1", "b2"])
    p = Mor(X, CECH2.G0, {x: x[0] for x in X.elements})
    gx = pullback_groupoid(CECH2, p)
    F = Functor(gx, Z2, to_terminal(X), Mor(gx.G1, Z2.G1, {
        e: "0" for e in gx.G1.elements}))
    a = Anafunctor(CECH2, Z2, p, F)
    fp = fibre_product(p, p)
    t = AnaNat(a, a, Mor(fp.apex, Z2.G1, {
        e: "1" if e == wrong else "0" for e in fp.apex.elements}), fp)
    report = {f.check: f.witness for f in validate_ananat(t)}
    want = first_failure(old_naturality_cases(t))
    assert report["anchor"] is None
    assert want is not None and report["naturality"] == want
