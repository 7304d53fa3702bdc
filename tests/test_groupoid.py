import pytest

from groupoidal.site_core import (Mor, compose, fibre_product, identity,
                                  is_cover, is_iso, pair_id, passed,
                                  terminal, to_terminal)
from groupoidal.backends import make_finset, sierpinski
import groupoidal.groupoid as groupoid_module
from groupoidal.groupoid import (MAX_CYCLIC_ORDER, Groupoid, NotAssociative,
                                 OrderOutOfRange, ShearNotIso, UnitNotUnique,
                                 cech_groupoid, cyclic_groupoid,
                                 from_multiplication, pair_groupoid,
                                 pullback_groupoid, shear_maps,
                                 unit_groupoid, validate_groupoid)
from groupoidal.morphism import hypercover, validate_functor


def test_cyclic_groupoids_validate():
    for n in (1, 2, 3, 4, 5):
        g = cyclic_groupoid(n)
        assert len(g.G1) == n
        assert passed(validate_groupoid(g))


def test_cyclic_order_is_bounded():
    """Z/n has n² composable pairs, so the order is capped."""
    assert len(cyclic_groupoid(MAX_CYCLIC_ORDER).pairs.apex) == 256 ** 2
    for n in (0, MAX_CYCLIC_ORDER + 1):
        with pytest.raises(OrderOutOfRange, match="not in 1..256"):
            cyclic_groupoid(n)


def test_cyclic_multiplication_oracle():
    g = cyclic_groupoid(4)
    assert g.mul("1", "3") == "0"
    assert g.mul("2", "3") == "1"
    assert g.inv("3") == "1"
    assert g.unit("*") == "0"


def test_unit_groupoid(S2):
    g = unit_groupoid(S2)
    assert passed(validate_groupoid(g))
    assert g.mul("a", "a") == "a"


def test_cech_groupoid_structure(p2, CECH2):
    g = CECH2
    assert len(g.G1) == 4
    # (x1,x2)·(x2,x3) = (x1,x3)
    e1 = g.kernel.index[("a", "b")]
    e2 = g.kernel.index[("b", "a")]
    assert g.mul(e1, e2) == g.kernel.index[("a", "a")]
    assert g.inv(e1) == e2
    assert passed(validate_groupoid(g))


def test_pair_groupoid(S3):
    g = pair_groupoid(S3)
    assert len(g.G1) == 9
    assert passed(validate_groupoid(g))


def test_validate_flags_broken_multiplication(CECH2):
    g = CECH2
    # corrupt multiplication: swap two outputs with the right boundaries
    tbl = dict(g.m.table)
    e_ab = g.kernel.index[("a", "b")]
    e_aa = g.kernel.index[("a", "a")]
    key1 = pair_id(e_aa, e_ab)
    key2 = pair_id(e_ab, g.kernel.index[("b", "b")])
    tbl[key1], tbl[key2] = g.kernel.index[("a", "a")], tbl[key2]
    bad = Groupoid(g.G0, g.G1, g.r, g.s, Mor(g.pairs.apex, g.G1, tbl),
                   g.u, g.i, pairs=g.pairs)
    rep = validate_groupoid(bad)
    assert not passed(rep)


def test_from_multiplication_recovers_unit_and_inverse(CECH2, Z4):
    for g in (CECH2, Z4, cyclic_groupoid(3)):
        rebuilt = from_multiplication(g.G0, g.G1, g.r, g.s, g.m)
        assert rebuilt.u == g.u
        assert rebuilt.i == g.i


def old_unit_and_inverse(G1, r, s, m):
    """The unit and inverse tables of ``from_multiplication`` as first
    written, each arrow's candidates filtered from every arrow; or the
    message naming the first arrow without exactly one candidate."""
    def mul(a, b):
        return m(pair_id(a, b))

    unit = {}
    for gel in G1.elements:
        cands = [e for e in G1.elements
                 if s(e) == r(gel) and mul(e, gel) == gel]
        if len(cands) != 1:
            return "left unit at %s not unique" % gel
        unit.setdefault(r(gel), cands[0])
    inv = {}
    for gel in G1.elements:
        cands = [h for h in G1.elements
                 if s(h) == r(gel) and mul(h, gel) == unit[s(gel)]]
        if len(cands) != 1:
            return "inverse of %s not unique" % gel
        inv[gel] = cands[0]
    return unit, inv


def test_from_multiplication_matches_old_loops(monkeypatch, S3, CECH2, Z4):
    """Units and inverses are those of the old filtered loops; and with
    the shear check passed over, an idempotent e beside the unit 1x at x
    is named as the old loops name it: e has two left units."""
    for g in (CECH2, Z4, pair_groupoid(S3), pullback_groupoid(
            Z4, to_terminal(S3))):
        got = from_multiplication(g.G0, g.G1, g.r, g.s, g.m)
        assert (got.u.table, got.i.table) == old_unit_and_inverse(
            g.G1, g.r, g.s, g.m)
    G0, G1 = make_finset(["x", "y"]), make_finset(["1x", "e", "1y"])
    end = Mor(G1, G0, {"1x": "x", "e": "x", "1y": "y"})
    pairs = fibre_product(end, end)
    m = Mor(pairs.apex, G1, {k: b if a[0] == "1" else a
                             for k, (a, b) in pairs.pairing.items()})
    monkeypatch.setattr(groupoid_module, "is_iso", lambda f: True)
    with pytest.raises(UnitNotUnique) as err:
        from_multiplication(G0, G1, end, end, m)
    assert str(err.value) == old_unit_and_inverse(G1, end, end, m)
    assert str(err.value) == "left unit at e not unique"


def test_from_multiplication_rejects_nonassociative():
    # a "multiplication" on two loops that is not associative
    pt = terminal("finset")
    G1 = make_finset(["0", "1"])
    const = Mor(G1, pt, {"0": "*", "1": "*"})
    pairs = fibre_product(const, const)
    tbl = {pair_id(a, b): ("1" if (a, b) == ("1", "1") else b)
           for a in "01" for b in "01"}
    with pytest.raises((NotAssociative, ShearNotIso)):
        from_multiplication(pt, G1, const, const,
                            Mor(pairs.apex, G1, tbl))


def test_from_multiplication_rejects_broken_shear():
    pt = terminal("finset")
    G1 = make_finset(["0", "1"])
    const = Mor(G1, pt, {"0": "*", "1": "*"})
    pairs = fibre_product(const, const)
    tbl = {pair_id(a, b): "0" for a in "01" for b in "01"}
    with pytest.raises(ShearNotIso):
        from_multiplication(pt, G1, const, const,
                            Mor(pairs.apex, G1, tbl))


def test_shear_maps_are_isos_on_fixture(Z4):
    sh1, sh2 = shear_maps(Z4.r, Z4.s, Z4.m, Z4.pairs)
    assert is_iso(sh1) and is_iso(sh2)


def test_multiplication_is_cover(CECH2, Z2):
    assert is_cover(CECH2.m)
    assert is_cover(Z2.m)


def test_pullback_groupoid(Z2, S3):
    p = to_terminal(S3)
    hyper = hypercover(Z2, p)
    gx = hyper.src
    assert gx == pullback_groupoid(Z2, p)
    assert len(gx.G0) == 3 and len(gx.G1) == 18
    assert passed(validate_groupoid(gx))
    assert passed(validate_functor(hyper))
    # the arrow part of the hypercover projects the middle coordinate
    for e, (x, h, y) in gx.triples.items():
        assert hyper.F1(e) == h


def test_iterated_pullback_agrees(Z2, S2, S3):
    """Pulling back along two covers in stages matches pulling back along
    the composite, up to the canonical renaming of triples."""
    p = to_terminal(S2)
    g1 = pullback_groupoid(Z2, p)
    q = Mor(S3, S2, {"c": "a", "d": "a", "e": "b"})
    g2 = pullback_groupoid(g1, q)
    direct = pullback_groupoid(Z2, compose(p, q))
    assert len(g2.G1) == len(direct.G1)
    # match arrows through their decoded boundary data and middle arrow
    seen = set()
    for e, (x, h, y) in g2.triples.items():
        inner = g1.triples[h][1]
        seen.add((x, inner, y))
    assert seen == set(direct.triples.values())


def test_cech_groupoid_fintop():
    sier = sierpinski()
    two = sierpinski()
    p = Mor(sier, terminal("fintop"), {"0": "*", "1": "*"})
    g = cech_groupoid(p)
    assert passed(validate_groupoid(g))


def test_cech_requires_cover(S2):
    """Each constructor that needs a cover names itself, the argument and
    the map that is not one."""
    from groupoidal.site_core import NotACover
    notonto = Mor(S2, S2, {"a": "a", "b": "a"})
    named = r" = Mor\(\['a', 'b'\] -> \['a', 'b'\], \{'a': 'a', 'b': 'a'\}\) " \
        "is not a cover"
    with pytest.raises(NotACover, match="^cech_groupoid: p" + named):
        cech_groupoid(notonto)
    with pytest.raises(NotACover, match="^pullback_groupoid: p" + named):
        pullback_groupoid(unit_groupoid(S2), notonto)
    ident = Mor(S2, S2, {"a": "a", "b": "b"})
    with pytest.raises(NotACover, match="^from_multiplication: r" + named):
        from_multiplication(S2, S2, notonto, ident, ident)
    with pytest.raises(NotACover, match="^from_multiplication: s" + named):
        from_multiplication(S2, S2, ident, notonto, ident)


def test_inversion_antihom_witness():
    """The first failing composable pair, walked from g.pairs in a-major
    order: a product outside the composable pairs, then a wrong value."""
    P = pair_groupoid(make_finset(["u", "v"]))
    g = Groupoid(P.G0, P.G1, P.r, P.s, P.m, P.u, identity(P.G1),
                 pairs=P.pairs)
    rep = {f.check: f for f in validate_groupoid(g)}
    assert rep["inversion-antihom"].witness == \
        "undefined composite at 'u|v|u|u'"
    Z3 = cyclic_groupoid(3)
    g = Groupoid(Z3.G0, Z3.G1, Z3.r, Z3.s, Z3.m, Z3.u,
                 Mor(Z3.G1, Z3.G1, {"0": "0", "1": "1", "2": "1"}),
                 pairs=Z3.pairs)
    rep = {f.check: f for f in validate_groupoid(g)}
    assert rep["inversion-antihom"].witness == ("1", "1")
    assert [f.check for f in rep.values() if not f.ok] == [
        "left-inverse", "right-inverse", "inversion-involutive",
        "inversion-antihom"]
