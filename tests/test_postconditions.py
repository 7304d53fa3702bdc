"""The checks that constructors do not run on their own output.

A constructor builds its value and returns it; the paper proves that the
value is what the constructor claims.  Each check below is the one a
constructor in ``src/`` used to run on every call, now run once over the
``conftest.py`` fixtures and the acceptance battery's bibundles and
composites, with the same validator or derived fact.  The last section
covers the argument checks that stay in the library: they raise typed
errors, so they hold under ``python -O`` too.
"""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import groupoidal
from groupoidal import bibundle as bibundle_module
from groupoidal import groupoid as groupoid_module
from groupoidal import nerve as nerve_module
from groupoidal.site_core import (BackendMismatch, Mor, NotACover,
                                  NotAMorphism, all_maps, fibre_product,
                                  identity, is_cover, is_iso, pair_id,
                                  passed, terminal, to_terminal)
from groupoidal.backends import all_finspaces, make_finset
from groupoidal.groupoid import (BoundaryEquationFails, BoundaryMismatch,
                                 Groupoid, InverseNotUnique, UnitNotUnique,
                                 cech_groupoid, cyclic_groupoid,
                                 from_multiplication, pair_groupoid,
                                 pullback_groupoid, unit_groupoid,
                                 validate_groupoid)
from groupoidal.action import (Action, Actor, Bibundle, GMap, NotAnAction,
                               action_fibre_product, actor_apply,
                               actor_to_pair, canonical_action,
                               compose_actors, enumerate_actions,
                               left_mult_actor, opposite,
                               transformation_groupoid, translations,
                               two_sided_transformation_groupoid,
                               unit_bibundle, validate_action, validate_actor,
                               validate_bibundle, validate_gmap)
from groupoidal.bundle import (PrincipalBundle, basic_witness_functor,
                               bundle_shear, cech_action_reconstruction,
                               check_principal, induced_base_map, is_basic,
                               orbit_space, pullback_bundle)
from groupoidal.morphism import (AnaIso, AnaNat, Anafunctor, Functor,
                                 NatTrans, NotAFunctor, NotNatural,
                                 ad_bisection, bisection_inverse,
                                 anafunctor_from_functor, ananat_inverse,
                                 compose_anafunctors, compose_ananat,
                                 enumerate_functors, exists_ananat,
                                 functor_surjectivity_tests,
                                 identity_anafunctor, identity_ananat,
                                 identity_functor, is_ana_equivalence,
                                 iso_to_ananat, nat_inverse, validate_ananat,
                                 validate_functor)
from groupoidal.bibundle import (act_on, actor_to_bibundle, associator,
                                 balanced_product, beta_ana_to_bibundle,
                                 bibundle_isomorphic, bibundle_to_anafunctor,
                                 cech_equivalence, check_inverse, classify,
                                 compose_bibundles, composite_witness,
                                 decompose_actor, dual, enumerate_bibundles,
                                 functor_to_bibundle, imprimitivity,
                                 left_unitor, pullback_action, right_unitor,
                                 roundtrip_ananat, roundtrip_beta,
                                 two_sided_iso, validate_bibundle_map)
from groupoidal.nerve import (NSimplex, horn_fill_inner2, restrict_simplex,
                              simplex_from_bibundle, simplex_from_groupoid,
                              unique_inner3_check, validate_simplex)

from test_acceptance import battery, chains
from test_action import SMALL_GROUPOIDS
from test_search_core import fintop_groupoids, reference_enumerate_bibundles
from test_bibundle import subgroup_bibundle
from test_bundle import sheet_swap
from test_nerve import degenerate_3_simplex


def recorded(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    arguments and result; returns the list of (args, result)."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture(scope="module")
def pool():
    """The acceptance battery, its duals, the unit bibundles of its
    groupoids and of Z/2 and Z/4, and their composites with their duals."""
    out = dict(battery())
    for name, b in list(out.items()):
        out[name + "-dual"] = dual(b)
    for g in [cyclic_groupoid(2), cyclic_groupoid(4)] + [
            b.g for b in battery().values()]:
        out.setdefault("unit-%r" % g, unit_bibundle(g))
    for name, b in list(out.items()):
        if not name.endswith("-dual"):
            out[name + "-with-dual"] = compose_bibundles(b, dual(b))
    return out


def composable(pool, length):
    return chains(list(pool.values()), length)


# ------------------------------------------------------------ groupoid

def built_groupoids(S2, S3, p2, p3, SIER):
    """One or more groupoids from each groupoid constructor, on finite
    sets and on finite spaces."""
    out = [cyclic_groupoid(n) for n in (1, 2, 3, 4)]
    out += [cyclic_groupoid(2, "fintop"), cech_groupoid(p2), cech_groupoid(p3),
            pair_groupoid(S2), cech_groupoid(to_terminal(SIER))]
    onto_s2 = Mor(S3, S2, {"c": "a", "d": "b", "e": "b"})
    bases = [(cyclic_groupoid(2), to_terminal(S3)),
             (cech_groupoid(p2), onto_s2),
             (cech_groupoid(p2), identity(S2)),
             (cyclic_groupoid(2, "fintop"), to_terminal(SIER))]
    out += [pullback_groupoid(g, p) for g, p in bases]
    return out


def test_groupoid_constructors_build_groupoids(S2, S3, p2, p3, SIER):
    """cyclic_groupoid, cech_groupoid (and pair_groupoid), pullback_groupoid
    and from_multiplication; from_multiplication's multiplication is a
    cover."""
    built = built_groupoids(S2, S3, p2, p3, SIER)
    rebuilt = [from_multiplication(g.G0, g.G1, g.r, g.s, g.m) for g in built]
    for g in built + rebuilt:
        assert passed(validate_groupoid(g)), [
            f for f in validate_groupoid(g) if not f.ok]
    assert all(is_cover(g.m) for g in rebuilt)


def nerve_simplices(Z2, S2, EQ23):
    """The simplices that tests/test_nerve.py validates."""
    u = unit_bibundle(Z2)
    fill = horn_fill_inner2(u, u)
    edge = restrict_simplex([0, 1], fill)
    out = [simplex_from_groupoid(Z2), simplex_from_bibundle(u),
           simplex_from_bibundle(EQ23), fill,
           horn_fill_inner2(EQ23, dual(EQ23)),
           restrict_simplex([0, 0, 1], edge),
           restrict_simplex([0, 0, 0, 0], simplex_from_groupoid(Z2)),
           degenerate_3_simplex(Z2), degenerate_3_simplex(pair_groupoid(S2))]
    out += [restrict_simplex(phi, fill) for phi in ([0, 1], [1, 2], [0, 2])]
    return out


def test_from_multiplication_on_simplex_diagonals(monkeypatch, Z2, S2, EQ23):
    """Every groupoid that validate_simplex recovers from a diagonal,
    also on the candidate completions of the inner 3-horns, is a
    groupoid."""
    calls = recorded(monkeypatch, nerve_module, "from_multiplication")
    simplices = nerve_simplices(Z2, S2, EQ23)
    for sx in simplices:
        assert passed(validate_simplex(sx))
    for sx in (s for s in simplices if s.n == 3):
        for missing in ((0, 1, 3), (0, 2, 3)):
            m = dict(sx.m)
            m.pop(missing)
            horn = NSimplex(3, sx.X, sx.XX, sx.r, sx.s, m)
            assert len(unique_inner3_check(horn, missing)["fillers"]) == 1
    returned = {g for _, g in calls}
    assert len(returned) >= 3
    for g in returned:
        assert passed(validate_groupoid(g)) and is_cover(g.m)


# ------------------------------------------------------------ action

def actions(Z2, CECH2, SWAP, SIER):
    out = [SWAP, opposite(SWAP)]
    for g in (Z2, CECH2, cyclic_groupoid(3), cech_groupoid(to_terminal(SIER))):
        out += [canonical_action(g), *translations(g)]
    X = make_finset(["x0", "x1", "x2"])
    for anchor in all_maps(X, CECH2.G0):
        out += [a for side in ("left", "right")
                for a in enumerate_actions(CECH2, X, anchor, side)]
    return out


def test_transformation_groupoids(Z2, CECH2, SWAP, SIER, pool):
    for a in actions(Z2, CECH2, SWAP, SIER):
        assert passed(validate_groupoid(transformation_groupoid(a)))
    for b in pool.values():
        t = two_sided_transformation_groupoid(b)
        assert passed(validate_groupoid(t))


def test_action_fibre_product(SWAP, S2, Z2, CECH2):
    maps = [GMap(SWAP, SWAP, identity(S2)),
            GMap(SWAP, SWAP, Mor(S2, S2, {"a": "b", "b": "a"}))]
    canon = canonical_action(CECH2)
    maps.append(GMap(canon, canon, identity(CECH2.G0)))
    for f1 in maps:
        for f2 in maps:
            if f1.to is not f2.to:
                continue
            diag, pr1, pr2 = action_fibre_product(f1, f2)
            assert passed(validate_action(diag))
            assert passed(validate_gmap(pr1)) and passed(validate_gmap(pr2))


def actors(Z2, Z4, CECH2):
    out = [left_mult_actor(g) for g in (Z2, Z4, CECH2, cyclic_groupoid(3))]
    out += [decompose_actor(actor_to_bibundle(a))["actor"] for a in list(out)]
    return out


def test_unit_bibundles_and_left_mult_actors(Z2, Z4, CECH2, CECH3):
    for g in (Z2, Z4, CECH2, CECH3, cyclic_groupoid(2, "fintop")):
        assert passed(validate_bibundle(unit_bibundle(g)))
        assert passed(validate_actor(left_mult_actor(g)))


def test_actor_to_pair(Z2, Z4, CECH2):
    """The base action and the functor are valid, and the actor is
    recovered as g·h = F(g, r(h))·h."""
    for a in actors(Z2, Z4, CECH2):
        pair = actor_to_pair(a)
        assert passed(validate_action(pair["base"]))
        assert passed(validate_functor(pair["functor"]))
        h = a.h
        for gel, hel in a.action.pairs.pairing.values():
            assert a.act(gel, hel) == h.mul(a.act(gel, h.u(h.r(hel))), hel)


def test_actor_apply_and_compose_actors(Z2, Z4, CECH2):
    """Pushed actions are actions; a composite actor is an actor and
    satisfies (g·h)·k = g·(h·k)."""
    every = actors(Z2, Z4, CECH2)
    for a in every:
        for x in (translations(a.h)[0], opposite(canonical_action(a.h))):
            assert passed(validate_action(actor_apply(a, x)))
    pairs = [(b, a) for a in every for b in every if a.h == b.g]
    assert len(pairs) > 4
    for b, a in pairs:
        out = compose_actors(b, a)
        assert passed(validate_actor(out))
        g, h, k = a.g, a.h, b.h
        for gel in g.arrows():
            for hel in h.arrows():
                if a.anchor(hel) != g.s(gel):
                    continue
                for kel in k.arrows():
                    if b.anchor(kel) == h.s(hel):
                        assert (b.act(a.act(gel, hel), kel)
                                == out.act(gel, b.act(hel, kel)))


# ------------------------------------------------------------ bibundle

def small_functors(Z2, CECH2):
    pt = unit_groupoid(terminal("finset"))
    gs = (pt, Z2, CECH2)
    return [F for g in gs for h in gs for F in enumerate_functors(g, h)]


def test_functor_to_bibundle(Z2, CECH2):
    """A bibundle, a bibundle functor, covering exactly when F is
    essentially surjective and an equivalence exactly when F is also
    fully faithful; ``pullback_action`` builds an action."""
    functors = small_functors(Z2, CECH2)
    assert len(functors) > 10
    for F in functors:
        b = functor_to_bibundle(F)
        assert passed(validate_bibundle(b))
        flags, tests = classify(b), functor_surjectivity_tests(F)
        assert flags["is_functor"]
        assert flags["is_covering"] == tests["essentially_surjective"]
        assert flags["is_equivalence"] == (tests["essentially_surjective"]
                                           and tests["fully_faithful"])
        for Y in (canonical_action(F.dst), translations(F.dst)[0]):
            assert passed(validate_action(pullback_action(F, Y)))


def test_duals_and_composites(pool, Z2, Z4, CECH2):
    """dual, actor_to_bibundle and compose_bibundles build bibundles; a
    composite's middle action, the diagonal action of the balanced
    product, is an action."""
    for b in pool.values():
        assert passed(validate_bibundle(dual(b)))
    for x, y in composable(pool, 2):
        c = compose_bibundles(x, y)
        assert passed(validate_bibundle(c))
        FP, middle = balanced_product(x.right, y.left)
        assert FP.index == c.middle.index
        assert passed(validate_action(middle))
    for a in actors(Z2, Z4, CECH2):
        assert passed(validate_bibundle(actor_to_bibundle(a)))


def test_cech_equivalences(p2, p3, SIER):
    covers = [(p2, None), (p2, p3), (p3, p2), (p2, p2),
              (to_terminal(SIER), None)]
    for p, q in covers:
        b = cech_equivalence(p, q)
        assert passed(validate_bibundle(b))
        assert classify(b)["is_equivalence"]


def functor_bibundles(pool):
    return {name: b for name, b in pool.items()
            if classify(b)["is_functor"]}


def test_anafunctor_round_trips(monkeypatch, pool):
    """bibundle_to_anafunctor: a functor; two_sided_iso: a functor that
    is an iso on arrows; beta_ana_to_bibundle: the middle action of
    its composite is an action and the result a bibundle;
    roundtrip_beta: an iso of bibundles; roundtrip_ananat: a 2-arrow with
    an inverse."""
    middles = recorded(monkeypatch, bibundle_module, "is_basic")
    named = functor_bibundles(pool)
    assert len(named) > 8
    for name, x in named.items():
        ana = bibundle_to_anafunctor(x)
        assert passed(validate_functor(ana.F)), name
        iso = two_sided_iso(x, ana)
        assert passed(validate_functor(iso)), name
        assert is_iso(iso.F1), name
        assert passed(validate_bibundle(beta_ana_to_bibundle(ana))), name
        out = roundtrip_beta(x)
        assert is_iso(out["iso"]), name
        assert passed(validate_bibundle_map(out["beta"], x, out["iso"])), name
        psi = roundtrip_ananat(ana)
        assert passed(validate_ananat(psi)), name
        assert passed(validate_ananat(ananat_inverse(psi))), name
    assert len(middles) >= 3 * len(named)
    for (act,), _ in middles:
        assert passed(validate_action(act))


def test_associators_and_unitors(pool):
    for x, y, z in composable(pool, 3):
        out = associator(x, y, z)
        assert is_iso(out["iso"])
        assert passed(validate_bibundle_map(out["left"], out["right"],
                                            out["iso"]))
    for x in pool.values():
        for out in (left_unitor(x), right_unitor(x)):
            assert is_iso(out["iso"])
            assert passed(validate_bibundle_map(out["composite"], x,
                                                out["iso"]))


def test_check_inverse(pool):
    equivalences = [b for b in pool.values()
                    if classify(b)["is_equivalence"]]
    assert len(equivalences) > 6
    for x in equivalences:
        out = check_inverse(x)
        for key, c, g in (("iso1", "c1", x.g), ("iso2", "c2", x.h)):
            assert is_iso(out[key])
            assert passed(validate_bibundle_map(out[c], unit_bibundle(g),
                                                out[key]))


def test_decompose_actor(pool, Z4):
    xs = [b for b in pool.values() if classify(b)["is_actor"]]
    xs.append(actor_to_bibundle(left_mult_actor(Z4)))
    assert len(xs) > 6
    for x in xs:
        out = decompose_actor(x)
        diag = balanced_product(x.right, x.right)[1]
        assert passed(validate_action(diag))
        assert passed(validate_groupoid(out["k"]))
        assert passed(validate_actor(out["actor"]))
        assert passed(validate_bibundle(out["equiv"]))
        assert classify(out["equiv"])["is_equivalence"]
        assert is_iso(out["iso"])
        assert passed(validate_bibundle_map(out["composite"], x, out["iso"]))


def test_imprimitivity(pool):
    xs = [subgroup_bibundle()] + [
        b for b in pool.values()
        if is_basic(b.left)["flag"] and is_basic(b.right)["flag"]]
    assert len(xs) > 4
    for x in xs:
        out = imprimitivity(x)
        assert passed(validate_bibundle(out))
        assert classify(out)["is_equivalence"]


def test_composite_witness(pool):
    """A map that presents w as the composite is a cover; when x is a
    bibundle functor it pairs with x's anchor into an iso onto
    X x_{G0} W."""
    count = 0
    for x, y in composable(pool, 2):
        w = compose_bibundles(x, y)
        m = w.middle_proj
        assert composite_witness(x, y, w, m)
        assert is_cover(m)
        if not classify(x)["is_functor"]:
            continue
        count += 1
        FP = w.middle
        WFP = fibre_product(x.r_anchor, w.r_anchor)
        pairing = Mor(FP.apex, WFP.apex,
                      {e: WFP.index[(FP.pairing[e][0], m(e))]
                       for e in FP.apex.elements})
        assert is_iso(pairing)
    assert count > 10


def test_act_on(pool):
    xs = [b for b in pool.values() if classify(b)["is_actor"]]
    assert len(xs) > 6
    for x in xs:
        for y in (translations(x.h)[0], canonical_action(x.h)):
            out = act_on(x, y)
            assert passed(validate_action(out))
            assert passed(validate_action(balanced_product(x.right, y)[1]))


# ------------------------------------------------------------ morphism

def anafunctors(pool, Z2, CECH2):
    out = [bibundle_to_anafunctor(b) for b in functor_bibundles(pool).values()]
    out += [identity_anafunctor(g) for g in (Z2, CECH2)]
    out += [anafunctor_from_functor(F) for F in small_functors(Z2, CECH2)]
    return out


def test_ad_bisection(S3, CECH2, Z4):
    for g in (pair_groupoid(S3), CECH2, Z4):
        for phi in all_maps(g.G0, g.G1):
            res = ad_bisection(g, phi)
            if res["is_section"]:
                assert passed(validate_functor(res["ad"]))


def test_compose_anafunctors(pool, Z2, CECH2):
    every = anafunctors(pool, Z2, CECH2)
    count = 0
    for a in every:
        for b in every:
            if a.dst != b.src:
                continue
            c = compose_anafunctors(b, a)
            assert is_cover(c.p)
            assert passed(validate_functor(c.F))
            count += 1
    assert count > 20


def test_ananats(pool, Z2, CECH2):
    """identity_ananat (through iso_to_ananat), exists_ananat,
    ananat_inverse and both compositions of compose_ananat build
    2-arrows."""
    every = anafunctors(pool, Z2, CECH2)
    for a in every:
        assert passed(validate_ananat(identity_ananat(a)))
    found = []
    for a1 in every:
        for a2 in every:
            if (a1.src, a1.dst) != (a2.src, a2.dst):
                continue
            t = exists_ananat(a1, a2)
            if t is None:
                continue
            found.append(t)
            assert passed(validate_ananat(t))
            inv = ananat_inverse(t)
            assert passed(validate_ananat(inv))
            assert passed(validate_ananat(compose_ananat("vertical", inv, t)))
    assert len(found) > 10
    for phi in found:
        before = identity_ananat(identity_anafunctor(phi.from_.src))
        after = identity_ananat(identity_anafunctor(phi.from_.dst))
        for psi, inner in ((after, phi), (phi, before)):
            out = compose_ananat("horizontal", psi, inner)
            assert passed(validate_ananat(out))


def test_ana_equivalence_witness_covers(pool, Z2, CECH2):
    count = 0
    for a in anafunctors(pool, Z2, CECH2):
        w = is_ana_equivalence(a)["witness"]
        if w is not None:
            count += 1
            assert is_cover(w.p) and is_cover(w.q)
    assert count > 5


# ------------------------------------------------------------ bundle

def shear_pool(Z2, S2, SIER):
    """Actions, and tables that need not be actions, for the counted
    shear: Z/1-Z/4 on 0-4 points and the Čech groupoid of u, v -> s,
    w -> t on 1-3 points, both sides, from enumerate_actions; the 16
    tables of Z/2 on two points; translations and canonical actions; the
    unit groupoid on two points; and the sheet swap on a finite space."""
    sets = [make_finset(["p%d" % i for i in range(k)]) for k in range(5)]
    uvw = Mor(make_finset("uvw"), make_finset("st"),
              {"u": "s", "v": "s", "w": "t"})
    searched = [(cyclic_groupoid(n), sets) for n in (1, 2, 3, 4)]
    searched.append((cech_groupoid(uvw), sets[1:4]))
    out = [a for g, carriers in searched for X in carriers
           for anchor in all_maps(X, g.G0) for side in ("right", "left")
           for a in enumerate_actions(g, X, anchor, side)]
    anchor = to_terminal(S2)
    pairs = fibre_product(anchor, Z2.r)
    for values in product(S2.elements, repeat=len(pairs.apex)):
        tbl = dict(zip(pairs.apex.elements, values))
        out.append(Action(Z2, S2, anchor, Mor(pairs.apex, S2, tbl),
                          "right", pairs))
    for g in [cyclic_groupoid(n) for n in (1, 2, 3, 4)] + [
            cech_groupoid(uvw), cech_groupoid(to_terminal(SIER))]:
        out += [canonical_action(g), *translations(g)]
    return out + [canonical_action(unit_groupoid(S2)), sheet_swap()]


def test_counted_shear_matches_built_shear(Z2, S2, SIER):
    """check_principal without a shear, which counts it on finite sets,
    gives the findings of check_principal on the built shear, over each
    action's orbit map, the map to the point and the identity."""
    compared, verdicts = {"finset": 0, "fintop": 0}, set()
    for a in shear_pool(Z2, S2, SIER):
        for proj in (orbit_space(a).proj, to_terminal(a.X), identity(a.X)):
            try:
                shear = bundle_shear(a, proj)
            except (KeyError, NotAMorphism):
                continue   # proj is not invariant, or the shear not continuous
            got = check_principal(a, proj)
            assert got == check_principal(a, proj, shear), (
                a.mult.table, proj.table)
            compared[a.X.backend] += 1
            verdicts.add(passed(got))
    assert compared["finset"] > 400 and compared["fintop"] > 5
    assert verdicts == {True, False}


def test_basic_witness_functor(Z2, CECH2, SWAP, SIER):
    basic = [a for a in actions(Z2, CECH2, SWAP, SIER)
             if is_basic(a)["flag"]]
    assert len(basic) > 10
    for a in basic:
        F = basic_witness_functor(a)
        assert passed(validate_functor(F))
        assert is_iso(F.F1)


def test_cech_action_reconstruction(p2, p3, S2, S3):
    count = 0
    for p in (p2, p3, Mor(S3, S2, {"c": "a", "d": "b", "e": "b"})):
        g = cech_groupoid(p)
        X = make_finset(["y0", "y1", "y2", "y3"])
        for anchor in all_maps(X, g.G0):
            for a in enumerate_actions(g, X, anchor):
                count += 1
                assert is_iso(cech_action_reconstruction(a, p)["iso"])
    assert count > 10


# ------------------------------------------------------------ nerve

def test_horn_fill_inner2(pool):
    count = 0
    for x, y in composable(pool, 2):
        if classify(x)["is_functor"] and classify(y)["is_functor"]:
            count += 1
            assert passed(validate_simplex(horn_fill_inner2(x, y)))
    assert count > 10


# ------------------------------------------------------------ searches
#
# enumerate_actions, enumerate_functors and bibundle_isomorphic yield what
# their propagation proves, and enumerate_bibundles checks at a leaf only
# how its two proved actions fit together; the validators they no longer
# run at a leaf run here, over everything they yield.

def search_inputs(request):
    """(groupoid, carriers): the small groupoids of test_action.py with
    the finite sets of 0-4 points, and the finite-space groupoids with the
    finite spaces of at most 3 points."""
    sets = [make_finset(["p%d" % i for i in range(k)]) for k in range(5)]
    spaces = all_finspaces(3)
    return ([(request.getfixturevalue(name), sets) for name in SMALL_GROUPOIDS]
            + [(g, spaces) for g in fintop_groupoids()])


def test_enumerated_actions_are_actions(request):
    counts = {"finset": 0, "fintop": 0}
    for g, carriers in search_inputs(request):
        for X in carriers:
            for anchor in all_maps(X, g.G0):
                for side in ("right", "left"):
                    for a in enumerate_actions(g, X, anchor, side):
                        assert passed(validate_action(a)), (
                            g, anchor.table, side, a.mult.table)
                        counts[X.backend] += 1
    assert counts["finset"] > 150 and counts["fintop"] > 90


def test_enumerated_functors_are_functors(request):
    finset = [unit_groupoid(terminal("finset"))] + [
        request.getfixturevalue(name) for name in SMALL_GROUPOIDS]
    count = 0
    for gs in (finset, fintop_groupoids()):
        for g in gs:
            for h in gs:
                for F in enumerate_functors(g, h):
                    assert passed(validate_functor(F)), (g, h, F.F1.table)
                    count += 1
    assert count > 150


def bibundle_pool(Z2, Z3, CECH2, PT, S2):
    """Every ordered pair from Z/2, Z/3, the Čech groupoid of two points
    over one, the point and the unit groupoid on two points."""
    gs = [Z2, Z3, CECH2, unit_groupoid(PT), unit_groupoid(S2)]
    return [(g, h) for g in gs for h in gs]


def test_enumerated_bibundles_are_bibundles(Z2, Z3, CECH2, PT, S2):
    count = 0
    for g, h in bibundle_pool(Z2, Z3, CECH2, PT, S2):
        for b in enumerate_bibundles(g, h, max_size=3):
            assert passed(validate_bibundle(b)), (
                g, h, b.left.mult.table, b.right.mult.table)
            count += 1
    assert count > 300


def test_enumerate_bibundles_matches_full_validation(Z2, Z3, CECH2, PT, S2):
    """The same bibundles, in the same order, as the enumeration whose
    leaf runs all of ``validate_bibundle`` on every pair of actions."""
    def key(b):
        return (b.left.anchor, b.left.mult, b.right.anchor, b.right.mult)

    for g, h in bibundle_pool(Z2, Z3, CECH2, PT, S2):
        got = [key(b) for b in enumerate_bibundles(g, h, max_size=3)]
        want = [key(b) for b in reference_enumerate_bibundles(g, h, 3)]
        assert got == want and got, (g, h)


def test_bibundle_isomorphic_finds_bibundle_maps(pool):
    """Each bibundle of the pool against itself and its double dual, each
    composite with a dual against the unit bibundle, and the same on
    finite spaces."""
    pairs = []   # (b1, b2, whether they must be isomorphic)
    for name, b in pool.items():
        pairs += [(b, b, True), (dual(dual(b)), b, True)]
        if name.endswith("-with-dual"):
            pairs.append((b, unit_bibundle(b.g), False))
    for g in fintop_groupoids():
        u = unit_bibundle(g)
        pairs += [(u, u, True), (dual(dual(u)), u, True),
                  (compose_bibundles(u, dual(u)), u, True)]
    found = 0
    for b1, b2, must in pairs:
        f = bibundle_isomorphic(b1, b2)
        assert f is not None or not must
        if f is not None:
            assert is_iso(f) and passed(validate_bibundle_map(b1, b2, f))
            found += 1
    assert found > 70


# ------------------------------------------- argument checks that stay

def test_transformation_groupoid_rejects_a_non_action(Z2, S2):
    anchor = Mor(S2, Z2.G0, {"a": "*", "b": "*"})
    pairs = fibre_product(anchor, Z2.r)
    bad = Action(Z2, S2, anchor, Mor(pairs.apex, S2, {
        e: "a" for e in pairs.apex.elements}), "right", pairs)
    with pytest.raises(NotAnAction, match="unit"):
        transformation_groupoid(bad)


def test_functor_to_bibundle_rejects_a_non_functor(Z2, Z4):
    # 1 -> 1 does not preserve 1 + 1 = 0 from Z/2 to Z/4
    bad = Functor(Z2, Z4, identity(Z2.G0),
                  Mor(Z2.G1, Z4.G1, {"0": "0", "1": "1"}))
    with pytest.raises(NotAFunctor, match="multiplicative"):
        functor_to_bibundle(bad)


def test_nat_inverse_rejects_a_non_natural_map(CECH2):
    idF = identity_functor(CECH2)
    # the arrow a -> a at both objects has the wrong boundary at b
    a = CECH2.kernel.index[("a", "a")]
    with pytest.raises(NotNatural, match="anchor"):
        nat_inverse(NatTrans(idF, idF, Mor(CECH2.G0, CECH2.G1,
                                           {"a": a, "b": a})))


def test_ana_iso_rejects_a_non_functor(Z2):
    w = is_ana_equivalence(identity_anafunctor(Z2))["witness"]
    F1 = w.functor.F1
    swapped = Mor(F1.dom, F1.cod, dict(zip(F1.dom.elements, reversed(
        [F1(e) for e in F1.dom.elements]))))
    bad = Functor(w.functor.src, w.functor.dst, w.functor.F0, swapped)
    with pytest.raises(NotAFunctor, match="unit-preserving"):
        AnaIso(w.src, w.dst, w.p, w.q, bad)


def test_ana_iso_rejects_bad_covers_and_non_isos(Z2, S2):
    """Typed errors, so ``python -O`` rejects the same arguments: a map
    that is not a cover, covers from two spaces, and a functor that is
    not an isomorphism (Z/2 -> Z/2 sending both arrows to 0)."""
    one = identity(Z2.G0)
    collapse = Functor(Z2, Z2, one, Mor(Z2.G1, Z2.G1, {"0": "0", "1": "0"}))
    assert passed(validate_functor(collapse))
    with pytest.raises(NotACover):
        AnaIso(Z2, Z2, Mor(make_finset([]), Z2.G0, {}), one, collapse)
    with pytest.raises(BoundaryMismatch):
        AnaIso(Z2, Z2, one, to_terminal(S2), collapse)
    with pytest.raises(NotAMorphism, match="not an iso"):
        AnaIso(Z2, Z2, one, one, collapse)


def test_morphism_constructors_reject_bad_ends(Z2, Z4, S2):
    """Functor, NatTrans, Anafunctor, AnaNat and ad_bisection check their
    arguments' ends with typed errors, so ``python -O`` rejects the same
    arguments; F1 on the arrows of Z/2 for a functor out of Z/4 used to be
    accepted under ``-O``."""
    idZ2 = identity_functor(Z2)
    a = identity_anafunctor(Z2)
    bad = {
        "^Functor: F1": lambda: Functor(Z4, Z2, identity(Z2.G0),
                                        identity(Z2.G1)),
        "parallel functors": lambda: NatTrans(idZ2, identity_functor(Z4),
                                              Z2.u),
        "^NatTrans: phi": lambda: NatTrans(idZ2, idZ2, identity(Z2.G1)),
        "^Anafunctor: p": lambda: Anafunctor(Z2, Z2, to_terminal(S2), a.F),
        "^Anafunctor: F must land": lambda: Anafunctor(Z2, Z4, a.p, a.F),
        "parallel anafunctors": lambda: AnaNat(a, identity_anafunctor(Z4),
                                               identity(a.X)),
        "^AnaNat: phi": lambda: AnaNat(a, a, identity(a.X)),
        "^ad_bisection: phi": lambda: ad_bisection(Z2, identity(Z2.G1)),
    }
    for match, make in bad.items():
        with pytest.raises(BoundaryMismatch, match=match):
            make()
    with pytest.raises(NotACover, match="^Anafunctor: p"):
        Anafunctor(Z2, Z2, Mor(make_finset([]), Z2.G0, {}), a.F)


def test_iso_to_ananat_and_bisection_inverse_reject_non_isos(CECH2):
    """The swap of the two objects of the Čech groupoid of S2 does not
    commute with the identity anafunctor's cover, and the section that
    sends both objects to arrows out of b is no bisection: each used to
    be turned into a 2-arrow or an inverse under ``python -O``."""
    a = identity_anafunctor(CECH2)
    swap = Mor(a.X, a.X, {"a": "b", "b": "a"})
    with pytest.raises(NotNatural, match="^iso_to_ananat"):
        iso_to_ananat(a, a, swap)
    k = CECH2.kernel.index
    phi = Mor(CECH2.G0, CECH2.G1, {"a": k[("b", "a")], "b": k[("b", "b")]})
    assert ad_bisection(CECH2, phi)["is_section"]
    with pytest.raises(NotAMorphism, match="^bisection_inverse"):
        bisection_inverse(CECH2, phi)


def test_groupoid_and_bundle_constructors_reject_bad_ends(Z2, S2, SWAP):
    """Groupoid, check_principal, pullback_bundle and induced_base_map
    check their arguments' ends with ``BoundaryMismatch``."""
    b, other = (PrincipalBundle(a, is_basic(a)["orbits"].proj)
                for a in (SWAP, translations(Z2)[1]))
    same = GMap(SWAP, SWAP, identity(S2))
    bad = {
        "^Groupoid: u": lambda: Groupoid(Z2.G0, Z2.G1, Z2.r, Z2.s, Z2.m,
                                         Z2.i, Z2.u),
        "^Groupoid: m": lambda: Groupoid(Z2.G0, Z2.G1, Z2.r, Z2.s, Z2.i,
                                         Z2.u, Z2.i),
        "^check_principal: proj": lambda: check_principal(
            SWAP, identity(Z2.G0)),
        "^pullback_bundle: f": lambda: pullback_bundle(b, identity(S2)),
        "^induced_base_map: f": lambda: induced_base_map(same, b, other),
    }
    for match, make in bad.items():
        with pytest.raises(BoundaryMismatch, match=match):
            make()


def test_bibundle_constructors_reject_bad_arguments(Z2, Z4):
    with pytest.raises(BoundaryMismatch, match="target of F"):
        pullback_action(identity_functor(Z2), translations(Z4)[0])
    with pytest.raises(BackendMismatch, match="finite sets"):
        next(enumerate_bibundles(cyclic_groupoid(2, "fintop"), Z2))


def test_action_constructors_reject_bad_ends(Z2, Z4, S2, SWAP, CECH2):
    """Action, GMap, Bibundle, Actor, action_fibre_product and actor_apply
    check their arguments' ends, sides and groupoids with typed errors."""
    left, right = translations(Z2)
    canon = canonical_action(CECH2)
    bad = {
        "anchor": lambda: Action(Z2, S2, identity(Z2.G0), SWAP.mult,
                                 "right"),
        "multiplication": lambda: Action(Z2, S2, SWAP.anchor, identity(S2),
                                         "right"),
        "two groupoids or sides": lambda: GMap(SWAP, opposite(SWAP),
                                               identity(S2)),
        "equivariant map": lambda: GMap(SWAP, SWAP, identity(Z2.G1)),
        "left action of g and a": lambda: Bibundle(Z2, Z2, left, left),
        "on one carrier": lambda: Bibundle(Z4, Z2, left, right),
        "left g-action": lambda: Actor(Z2, Z2, right),
        "pushes only left": lambda: actor_apply(left_mult_actor(Z2), SWAP),
        "different targets": lambda: action_fibre_product(
            GMap(SWAP, SWAP, identity(S2)),
            GMap(canon, canon, identity(CECH2.G0))),
    }
    for match, make in bad.items():
        with pytest.raises(BoundaryMismatch, match=match):
            make()


def loops(tbl):
    """One object and the arrows 0 and 1, multiplied by ``tbl``."""
    pt = terminal("finset")
    G1 = make_finset(["0", "1"])
    const = Mor(G1, pt, {"0": "*", "1": "*"})
    pairs = fibre_product(const, const)
    return pt, G1, const, const, Mor(pairs.apex, G1, {
        pair_id(a, b): tbl(a, b) for a in "01" for b in "01"})


def walking_arrow():
    """Two objects and one arrow f between them: a category that is not
    a groupoid, with unique units and no inverse of f."""
    G0 = make_finset(["x", "y"])
    G1 = make_finset(["1x", "1y", "f"])
    r = Mor(G1, G0, {"1x": "x", "1y": "y", "f": "y"})
    s = Mor(G1, G0, {"1x": "x", "1y": "y", "f": "x"})
    pairs = fibre_product(s, r)
    m = Mor(pairs.apex, G1, {e: (b if a.startswith("1") else a)
                             for e, (a, b) in pairs.pairing.items()})
    return G0, G1, r, s, m


def test_from_multiplication_typed_errors(monkeypatch):
    """A wrong domain and failing boundary equations are rejected before
    the shear check; with the shear check passed over, so are a unit and
    an inverse that are not unique."""
    pt, G1, r, s, m = loops(lambda a, b: b)
    with pytest.raises(BoundaryMismatch):
        from_multiplication(pt, G1, r, s, Mor(G1, G1, identity(G1).table))
    G0, H1, hr, hs, hm = walking_arrow()
    with pytest.raises(BoundaryEquationFails):
        from_multiplication(G0, H1, hr, hs, Mor(hm.dom, H1, {
            e: "f" for e in hm.dom.elements}))
    monkeypatch.setattr(groupoid_module, "is_iso", lambda f: True)
    # x·y = y: every arrow is a left unit of every arrow
    with pytest.raises(UnitNotUnique):
        from_multiplication(pt, G1, r, s, m)
    with pytest.raises(InverseNotUnique):
        from_multiplication(G0, H1, hr, hs, hm)


def test_acceptance_battery_under_O():
    """The ten acceptance criteria pass under ``python -O`` too: no verdict
    of the library rests on an ``assert`` (pytest's rewritten asserts in
    the battery itself still run)."""
    tests = Path(__file__).resolve().parent
    res = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_acceptance.py")], cwd=tests.parent,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(groupoidal.__file__))),
        capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "10 passed" in res.stdout.splitlines()[-1], res.stdout
