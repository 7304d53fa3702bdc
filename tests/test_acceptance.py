"""End-to-end acceptance battery.

Each test prints a single pass/fail line with its runtime and asserts the
stated time bound.  The fixtures are the shared small carriers: the point,
S2/S3 with their covers, the kernel-pair groupoids CECH2/CECH3, the cyclic
groups Z/2 and Z/4, and the exchange action SWAP.
"""

import time
from itertools import product

import pytest

from groupoidal.site_core import (Mor, all_maps, axiom_harness, compose,
                                  fibre_product, identity, is_cover, is_iso,
                                  pair_id, passed, terminal, to_terminal)
from groupoidal.backends import all_finsets, all_finspaces, make_finset
from groupoidal.groupoid import (cech_groupoid, cyclic_groupoid,
                                 from_multiplication, pair_groupoid,
                                 unit_groupoid)
from groupoidal.morphism import (Functor, enumerate_functors,
                                 compose_functors, identity_functor,
                                 is_ana_equivalence)
from groupoidal.action import (Bibundle, build_action, enumerate_actions,
                               left_mult_actor, unit_bibundle,
                               validate_bibundle)
from groupoidal.bundle import cech_action_reconstruction, is_basic
from groupoidal.bibundle import (actor_to_bibundle, associator,
                                 bibundle_isomorphic,
                                 bibundle_to_anafunctor,
                                 brute_force_quasi_inverse, cech_equivalence,
                                 classify, compose_bibundles,
                                 composite_class, decompose_actor, dual,
                                 functor_to_bibundle, imprimitivity,
                                 induced_composite_map, left_unitor,
                                 right_unitor, roundtrip_beta,
                                 validate_bibundle_map)
from groupoidal.nerve import (NSimplex, build_simplex, horn_fill_inner2,
                              unique_inner3_check, validate_simplex)


def report(num, limit, t0):
    elapsed = time.time() - t0
    line = "criterion %2d: %s (%.1fs of %ds allowed)" % (
        num, "PASS" if elapsed < limit else "FAIL", elapsed, limit)
    print(line)
    assert elapsed < limit, line


def battery():
    """The shared bibundle-functor fixtures."""
    PT = terminal("finset")
    S2 = make_finset(["a", "b"])
    S3 = make_finset(["c", "d", "e"])
    p2 = Mor(S2, PT, {"a": "*", "b": "*"})
    p3 = Mor(S3, PT, {x: "*" for x in "cde"})
    Z2 = cyclic_groupoid(2)
    CECH2 = cech_groupoid(p2)
    pt = unit_groupoid(PT)
    es_only = Functor(pt, Z2, Mor(pt.G0, Z2.G0, {"*": "*"}),
                      Mor(pt.G1, Z2.G1, {"*": "0"}))
    es_ff = Functor(pt, CECH2, Mor(pt.G0, CECH2.G0, {"*": "a"}),
                    Mor(pt.G1, CECH2.G1,
                        {"*": CECH2.kernel.index[("a", "a")]}))
    return {
        "unit-Z2": unit_bibundle(Z2),
        "unit-CECH2": unit_bibundle(CECH2),
        "equiv-2-to-base": cech_equivalence(p2),
        "equiv-2-to-3": cech_equivalence(p2, p3),
        "es-only": functor_to_bibundle(es_only),
        "es-and-ff": functor_to_bibundle(es_ff),
    }


def is_free(a):
    g = a.g
    return all(gel == g.u(g.r(gel))
               for e, (x, gel) in a.pairs.pairing.items()
               if a.mult(e) == x)


def test_criterion_1_pretopology_axioms():
    t0 = time.time()
    objs = all_finsets(3)
    mors = [f for a in objs for b in objs for f in all_maps(a, b)]
    rep = axiom_harness(objs, mors)
    assert passed(rep), [f for f in rep if not f.ok]
    sat = next(f for f in rep if f.check == "saturation-witness")
    assert "saturated" in str(sat.witness)
    objs = all_finspaces(3)
    mors = [f for a in objs for b in objs for f in all_maps(a, b)]
    rep = axiom_harness(objs, mors)
    assert passed(rep), [f for f in rep if not f.ok]
    sat = next(f for f in rep if f.check == "saturation-witness")
    assert "saturated" not in str(sat.witness)
    report(1, 60, t0)


def test_criterion_2_unit_and_inverse_from_multiplication():
    t0 = time.time()
    fixtures = [pair_groupoid(make_finset(["x%d" % i for i in range(n)]))
                for n in (1, 2, 3)]
    fixtures += [cyclic_groupoid(2), cyclic_groupoid(3), cyclic_groupoid(4)]
    for g in fixtures:
        rebuilt = from_multiplication(g.G0, g.G1, g.r, g.s, g.m)
        assert rebuilt.u == g.u and rebuilt.i == g.i
        # exhaustive uniqueness: no other unit or inverse value anywhere
        arrows = list(g.arrows())
        for x in g.objects():
            cands = [e for e in arrows
                     if g.r(e) == x and g.s(e) == x
                     and all(g.mul(e, a) == a
                             for a in arrows if g.r(a) == x)
                     and all(g.mul(b, e) == b
                             for b in arrows if g.s(b) == x)]
            assert cands == [g.u(x)]
        for a in arrows:
            cands = [b for b in arrows
                     if g.s(a) == g.r(b) and g.s(b) == g.r(a)
                     and g.mul(a, b) == g.u(g.r(a))
                     and g.mul(b, a) == g.u(g.s(a))]
            assert cands == [g.i(a)]
    report(2, 10, t0)


def test_criterion_3_basic_iff_free():
    t0 = time.time()
    groupoids = [cyclic_groupoid(2),
                 pair_groupoid(make_finset(["x0"])),
                 pair_groupoid(make_finset(["x0", "x1"])),
                 pair_groupoid(make_finset(["x0", "x1", "x2"]))]
    total = 0
    for g in groupoids:
        for X in all_finsets(3):
            for anchor in all_maps(X, g.G0):
                for a in enumerate_actions(g, X, anchor):
                    total += 1
                    assert is_basic(a)["flag"] == is_free(a)
    # transitive groupoids admit few actions: 22 cases exist in total
    assert total == 22
    report(3, 30, t0)


def test_criterion_4_cech_actions_are_basic():
    t0 = time.time()
    total = 0
    for carriers in (all_finsets(3), all_finspaces(3)):
        for A in carriers:
            for B in carriers:
                for p in all_maps(A, B):
                    if not is_cover(p):
                        continue
                    g = cech_groupoid(p)
                    for X in carriers:
                        for anchor in all_maps(X, g.G0):
                            for a in enumerate_actions(g, X, anchor):
                                total += 1
                                assert is_basic(a)["flag"]
                                out = cech_action_reconstruction(a, p)
                                assert is_iso(out["iso"])
    assert total > 1000
    report(4, 120, t0)


def test_criterion_5_equivalence_tests_agree():
    t0 = time.time()
    for name, b in battery().items():
        flag = classify(b)["is_equivalence"]
        ana = bibundle_to_anafunctor(b)
        assert is_ana_equivalence(ana)["flag"] == flag, name
        q = brute_force_quasi_inverse(b, cap=4)
        if q is None and flag and len(dual(b).X) > 4:
            # any quasi-inverse is itself an equivalence bibundle, so its
            # carrier cannot be smaller than the dual's: widen the bound
            q = brute_force_quasi_inverse(b, cap=len(dual(b).X))
        assert (q is not None) == flag, name
        if q is not None:
            assert bibundle_isomorphic(q, dual(b)) is not None, name
    report(5, 300, t0)


def test_criterion_6_beta_round_trips():
    t0 = time.time()
    for name, b in battery().items():
        out = roundtrip_beta(b)
        assert is_iso(out["iso"]), name
    trio = [cyclic_groupoid(2), cyclic_groupoid(4),
            cech_groupoid(Mor(make_finset(["a", "b"]), terminal("finset"),
                              {"a": "*", "b": "*"}))]
    pairs = 0
    for g, h, k in product(trio, repeat=3):
        for F2 in enumerate_functors(g, h):
            b2 = functor_to_bibundle(F2)
            for F1 in enumerate_functors(h, k):
                pairs += 1
                b1 = functor_to_bibundle(F1)
                c = compose_bibundles(b2, b1)
                d = functor_to_bibundle(compose_functors(F1, F2))
                # the canonical map [(x, h), (y, k)] -> (x, F1(h)·k)
                tbl = {}
                for e, (w1, w2) in c.middle.pairing.items():
                    cl = c.middle_proj(e)
                    x, hel = b2.fp.pairing[w1]
                    _, kel = b1.fp.pairing[w2]
                    val = d.fp.index[(x, k.mul(F1.F1(hel), kel))]
                    if cl in tbl:
                        assert tbl[cl] == val
                    else:
                        tbl[cl] = val
                iso = Mor(c.X, d.X, tbl)
                assert is_iso(iso)
                assert passed(validate_bibundle_map(c, d, iso))
    assert pairs > 50
    report(6, 120, t0)


def chains(pool, length):
    """All composable chains from a pool of bibundles."""
    out = [[b] for b in pool]
    for _ in range(length - 1):
        out = [c + [b] for c in out for b in pool if c[-1].h == b.g]
    return out


def test_criterion_7_pentagon_and_triangle():
    t0 = time.time()
    PT = terminal("finset")
    S2 = make_finset(["a", "b"])
    p2 = Mor(S2, PT, {"a": "*", "b": "*"})
    E = cech_equivalence(p2)
    CECH2 = E.g
    pool = [unit_bibundle(cyclic_groupoid(2)), unit_bibundle(CECH2),
            E, dual(E), unit_bibundle(unit_groupoid(PT))]
    # triangle on all composable pairs
    for x, y in ((x, y) for x in pool for y in pool if x.h == y.g):
        u = unit_bibundle(x.h)
        alpha = associator(x, u, y)["iso"]
        runit = right_unitor(x)["iso"]
        lunit = left_unitor(y)["iso"]
        c_xu = compose_bibundles(x, u)
        lhs = induced_composite_map(
            compose_bibundles(c_xu, y), compose_bibundles(x, y),
            runit, identity(y.X))
        c_uy = compose_bibundles(u, y)
        via = induced_composite_map(
            compose_bibundles(x, c_uy), compose_bibundles(x, y),
            identity(x.X), lunit)
        assert compose(via, alpha) == lhs
    # pentagon on all composable chains of length four
    count = 0
    for w, x, y, z in chains(pool, 4):
        count += 1
        c_wx = compose_bibundles(w, x)
        c_yz = compose_bibundles(y, z)
        c_xy = compose_bibundles(x, y)
        path1 = compose(associator(w, x, c_yz)["iso"],
                        associator(c_wx, y, z)["iso"])
        step1 = induced_composite_map(
            compose_bibundles(compose_bibundles(c_wx, y), z),
            compose_bibundles(compose_bibundles(w, c_xy), z),
            associator(w, x, y)["iso"], identity(z.X))
        step2 = associator(w, c_xy, z)["iso"]
        step3 = induced_composite_map(
            compose_bibundles(w, compose_bibundles(c_xy, z)),
            compose_bibundles(w, compose_bibundles(x, c_yz)),
            identity(w.X), associator(x, y, z)["iso"])
        assert compose(step3, compose(step2, step1)) == path1
    assert count > 10
    report(7, 120, t0)


def test_criterion_8_actor_decomposition():
    t0 = time.time()
    PT = terminal("finset")
    S2 = make_finset(["a", "b"])
    p2 = Mor(S2, PT, {"a": "*", "b": "*"})
    for g in (cyclic_groupoid(2), cyclic_groupoid(4), cech_groupoid(p2)):
        b = actor_to_bibundle(left_mult_actor(g))
        out = decompose_actor(b)
        assert is_iso(out["iso"])
        assert bibundle_isomorphic(out["composite"], b) is not None
    z2 = decompose_actor(actor_to_bibundle(left_mult_actor(
        cyclic_groupoid(2))))
    assert len(z2["k"].G0) == 1 and len(z2["k"].G1) == 2
    report(8, 10, t0)


def test_criterion_9_imprimitivity():
    t0 = time.time()
    h2 = cyclic_groupoid(2)
    X = make_finset(["0", "1", "2", "3"])
    anchor = Mor(X, h2.G0, {x: "*" for x in X.elements})

    def add(x, gel):
        return str((int(x) + 2 * int(gel)) % 4)

    left = build_action(h2, X, anchor, "left", add)
    right = build_action(h2, X, anchor, "right", add)
    b = Bibundle(h2, h2, left, right)
    assert passed(validate_bibundle(b))
    out = imprimitivity(b)
    assert len(out.A.G0) == 2 and len(out.A.G1) == 4
    assert len(out.B.G0) == 2 and len(out.B.G1) == 4
    assert classify(out)["is_equivalence"]
    report(9, 10, t0)


def test_criterion_10_nerve_horns():
    t0 = time.time()
    pool = battery()
    # every composable pair of fixture functors fills and validates
    filled = 0
    for x in pool.values():
        for y in pool.values():
            if x.h != y.g:
                continue
            filled += 1
            sx = horn_fill_inner2(x, y)
            assert passed(validate_simplex(sx))
    assert filled > 3
    # unique filler on every inner 3-horn of degenerate unit chains
    for g in (cyclic_groupoid(2), cyclic_groupoid(3),
              pair_groupoid(make_finset(["a", "b"]))):
        u = unit_bibundle(g)
        edges = {(i, j): u for i in range(3) for j in range(i + 1, 4)}
        inner = {(i, j, k): g.m
                 for i in range(4) for j in range(i + 1, 4)
                 for k in range(j + 1, 4)}
        full = build_simplex([g, g, g, g], edges, inner)
        assert passed(validate_simplex(full))
        for missing in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            m = dict(full.m)
            wanted = m.pop(missing)
            horn = NSimplex(3, full.X, full.XX, full.r, full.s, m)
            out = unique_inner3_check(horn, missing)
            assert out["fillers"] == [wanted], missing
        # corrupted variant: twist s_03 and rebuild the affected action
        swap = {x: y for x, y in
                zip(sorted(g.G0.elements), reversed(sorted(g.G0.elements)))}
        if len(g.G0) > 1:
            s = dict(full.s)
            s[(0, 3)] = Mor(full.XX[(0, 3)], full.X[0],
                            {e: swap[full.s[(0, 3)](e)]
                             for e in full.XX[(0, 3)].elements})
            fp = fibre_product(s[(0, 3)], full.r[(3, 3)])
            m = dict(full.m)
            m[(0, 3, 3)] = Mor(fp.apex, full.XX[(0, 3)],
                               {e: g.kernel.index[(g.r(v), g.s(w))]
                                for e, (v, w) in fp.pairing.items()})
            m.pop((0, 1, 3))
            horn = NSimplex(3, full.X, full.XX, full.r, s, m)
            out = unique_inner3_check(horn, (0, 1, 3))
            assert out["fillers"] == []
    report(10, 60, t0)
