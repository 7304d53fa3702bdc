"""The finite-set and the finite-space paths of the shear checks, and of
the anafunctor calculus built on them, agree.

A finite set carried to the discrete space on the same ids is the same
object of the site, so every verdict must be the same on both.  The two
backends reach some verdicts by different code: on a finite set
``bundle.check_principal`` counts the shear of an invariant projection,
on a finite space it builds the shear and tests it with ``is_iso``, and
``is_basic`` names its cross-check differently on the two.  The helpers
``carry_groupoid``, ``carry_action`` and ``carry_bibundle`` carry a
finset groupoid, action or bibundle to discrete spaces, keeping every
id, so each table and witness can be compared as it stands.  The inputs
are the acceptance battery, its duals, and the action pools of
``tests/test_counts.py``.
"""

from itertools import product

from groupoidal.site_core import (Mor, all_maps, fibre_product, identity,
                                  passed, to_terminal)
from groupoidal.backends import discrete
from groupoidal.groupoid import (Groupoid, cyclic_groupoid,
                                 from_multiplication, validate_groupoid)
from groupoidal.action import (Action, Bibundle, action_pairs,
                               enumerate_actions, on_side, validate_bibundle)
from groupoidal.bundle import PrincipalBundle, check_principal, orbit_space
from groupoidal.bibundle import (bibundle_to_anafunctor, classify,
                                 decompose_actor, dual, roundtrip_beta)
from test_acceptance import battery
from test_counts import CECH_FIBRES, ZN_ORDERS, fibred_cech_groupoid, points


def carry_map(f):
    """The finset map f between the discrete spaces on its ids."""
    return Mor(discrete(f.dom.elements), discrete(f.cod.elements), f.table)


def carry_groupoid(g, m=None):
    """The groupoid g, or g with its multiplication table replaced by m,
    on discrete spaces with the same ids."""
    r, s = carry_map(g.r), carry_map(g.s)
    pairs = fibre_product(s, r)
    return Groupoid(r.cod, r.dom, r, s,
                    Mor(pairs.apex, r.dom, (m or g.m).table),
                    carry_map(g.u), carry_map(g.i), pairs)


def carry_action(a, g):
    """The action a, of the groupoid that ``g`` carries, on the discrete
    space with the same ids."""
    X = discrete(a.X.elements)
    anchor = Mor(X, g.G0, a.anchor.table)
    pairs = action_pairs(g, anchor, a.side)
    return Action(g, X, anchor, Mor(pairs.apex, X, a.mult.table), a.side,
                  pairs)


def carry_bibundle(b):
    """The bibundle b on discrete spaces with the same ids."""
    g, h = carry_groupoid(b.g), carry_groupoid(b.h)
    return Bibundle(g, h, carry_action(b.left, g), carry_action(b.right, h))


def battery_bibundles():
    out = list(battery().values())
    return out + [dual(b) for b in out]


def groupoids():
    """The groupoids of the battery and of the action pools, one each."""
    out = [g for b in battery_bibundles() for g in (b.g, b.h)]
    out += [cyclic_groupoid(n) for n in ZN_ORDERS]
    out += [fibred_cech_groupoid(f) for f in CECH_FIBRES]
    unique = []
    for g in out:
        if g not in unique:
            unique.append(g)
    return unique


def action_pools():
    """Each groupoid with its actions: those of the battery's bibundles
    and their duals, and those that ``tests/test_counts.py`` counts."""
    for b in battery_bibundles():
        yield b.g, [b.left]
        yield b.h, [b.right]
    for side, n in product(["right", "left"], ZN_ORDERS):
        g = cyclic_groupoid(n)
        yield g, [a for X in map(points, range(6)) for a in enumerate_actions(
            g, X, Mor(X, g.G0, dict.fromkeys(X.elements, "*")), side)]
    for side, fibres in product(["right", "left"], CECH_FIBRES):
        g = fibred_cech_groupoid(fibres)
        yield g, [a for X in map(points, range(5))
                  for anchor in all_maps(X, g.G0)
                  for a in enumerate_actions(g, X, anchor, side)]


def corruptions(m, limit):
    """Up to ``limit`` tables of m with one value changed."""
    changes = [(e, v) for e in m.dom.elements for v in m.cod.elements
               if v != m(e)]
    for e, v in changes[:limit]:
        yield Mor(m.dom, m.cod, {**m.table, e: v})


def test_groupoid_verdicts_agree_on_discrete_spaces():
    """``from_multiplication`` reads the same unit and inversion on both
    backends, and ``validate_groupoid`` reports the same findings, with
    the same witnesses, for each groupoid and for its multiplication
    with one value changed."""
    for g in groupoids():
        d = carry_groupoid(g)
        got = from_multiplication(d.G0, d.G1, d.r, d.s, d.m)
        assert (got.u.table, got.i.table) == (g.u.table, g.i.table)
        assert validate_groupoid(d) == validate_groupoid(g)
        assert passed(validate_groupoid(g))
        for m in corruptions(g.m, 6):
            bad = Groupoid(g.G0, g.G1, g.r, g.s, m, g.u, g.i, g.pairs)
            assert validate_groupoid(carry_groupoid(g, m)) == (
                validate_groupoid(bad)), (g, m.table)


def solutions(b):
    """b.solve(x1, x2) for each pair of points of one fibre of b."""
    return {(x1, x2): b.solve(x1, x2)
            for x1, x2 in product(b.X.elements, repeat=2)
            if b.proj(x1) == b.proj(x2)}


def test_principal_verdicts_agree_on_discrete_spaces():
    """``check_principal`` over the orbit map, the map to the point and
    the identity, counted on a finite set and built on its discrete
    space, gives the same findings; and where the action is principal
    over its orbit map, ``PrincipalBundle.solve`` gives the same arrow on
    both backends, for the action and for its opposite, and that arrow
    takes x1 to x2."""
    bundles = 0
    for g, actions in action_pools():
        dg = carry_groupoid(g)
        for a in actions:
            bundles += check_both_backends(a, carry_action(a, dg))
    assert bundles > 600


def check_both_backends(a, d):
    """The checks of ``test_principal_verdicts_agree_on_discrete_spaces``
    on the finset action a and its carried copy d; the number of
    bundles solved in."""
    orbits = orbit_space(a).proj
    assert orbit_space(d).proj == carry_map(orbits)
    for proj in (orbits, to_terminal(a.X), identity(a.X)):
        assert check_principal(d, carry_map(proj)) == check_principal(
            a, proj)
    if not passed(check_principal(a, orbits)):
        return 0
    for side in ("right", "left"):
        a2 = on_side(a, side)
        got = solutions(PrincipalBundle(a2, orbits))
        assert solutions(PrincipalBundle(on_side(d, side),
                                         carry_map(orbits))) == got
        assert all(a2.apply(x1, gel) == x2 for (x1, x2), gel in got.items())
    return 2


def calculus(b):
    """What the anafunctor calculus reads off the bibundle b, by ids: the
    flags; for a functor the F1 table of its anafunctor, the carrier of
    the bibundle of that anafunctor and its validation, the round-trip
    iso and every solution in its principal right action; for an actor
    the sizes of K and the recomposition iso."""
    flags = classify(b)
    out = {"flags": flags}
    if flags["is_functor"]:
        rt = roundtrip_beta(b)
        out.update(F1=bibundle_to_anafunctor(b).F.F1.table,
                   beta=(rt["beta"].X.elements, validate_bibundle(rt["beta"])),
                   iso=rt["iso"].table,
                   solve=solutions(PrincipalBundle(b.right, b.r_anchor)))
    if flags["is_actor"]:
        res = decompose_actor(b)
        out["decompose"] = (len(res["k"].G0), len(res["k"].G1),
                            res["iso"].table)
    return out


def test_anafunctor_calculus_agrees_on_discrete_spaces():
    """Each bibundle of the battery and each dual, carried to discrete
    spaces, gives the same flags, anafunctor, bibundle of the anafunctor,
    round trip, solutions and actor decomposition, id for id."""
    read = []
    for b in battery_bibundles():
        got = calculus(b)
        assert calculus(carry_bibundle(b)) == got, b
        assert "beta" not in got or passed(got["beta"][1])
        read += got
    # 11 of the 12 are functors and every one is an actor
    assert (read.count("F1"), read.count("decompose")) == (11, 12)
