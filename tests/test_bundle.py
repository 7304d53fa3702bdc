import os
import subprocess
import sys

import pytest

import groupoidal
from groupoidal.site_core import (BoundaryMismatch, Mor, compose,
                                  fibre_product, identity, is_cover, is_iso,
                                  passed, terminal, to_terminal)
from groupoidal.backends import make_finset, sierpinski
from groupoidal.groupoid import (cech_groupoid, cyclic_groupoid,
                                 pair_groupoid, unit_groupoid)
from groupoidal.action import (Action, GMap, canonical_action,
                               enumerate_actions, validate_action)
from groupoidal.bundle import (NotPrincipal, PrincipalBundle,
                               basic_witness_functor, bundle_shear,
                               cech_action_reconstruction, check_principal,
                               induced_base_map, is_basic, orbit_space,
                               pullback_bundle)


def trivial_action(g, X):
    anchor = Mor(X, g.G0, {x: "*" for x in X.elements})
    pairs = fibre_product(anchor, g.r)
    tbl = {e: x for e, (x, gel) in pairs.pairing.items()}
    return Action(g, X, anchor, Mor(pairs.apex, X, tbl), "right", pairs)


def test_orbit_space_of_swap(SWAP):
    c = orbit_space(SWAP)
    assert len(c.quotient) == 1
    assert is_cover(c.proj)


def test_swap_is_principal_over_point(SWAP, p2):
    rep = check_principal(SWAP, p2)
    assert passed(rep)
    b = PrincipalBundle(SWAP, p2)
    assert b.solve("a", "b") == "1"
    assert b.solve("a", "a") == "0"


def test_trivial_action_not_principal(Z2, S2):
    a = trivial_action(Z2, S2)
    rep = check_principal(a, identity(S2))
    # projection is fine but the shear is 2:1
    names = {f.check for f in rep if not f.ok}
    assert names == {"shear-iso"}
    with pytest.raises(NotPrincipal):
        PrincipalBundle(a, identity(S2))


def test_is_basic_cross_checks(SWAP, Z2, S2):
    res = is_basic(SWAP)
    assert res.keys() == {"flag", "orbits", "cross"}
    assert res["flag"] and passed(res["cross"])
    b = PrincipalBundle(SWAP, res["orbits"].proj)
    assert b.solve("a", "b") == "1"
    res2 = is_basic(trivial_action(Z2, S2))
    assert not res2["flag"]
    assert passed(res2["cross"])


def sheet_swap():
    """Free Z/2-action on the doubled Sierpinski space, exchanging sheets."""
    Z2 = cyclic_groupoid(2, backend="fintop")
    from groupoidal.site_core import Obj
    names = ["0a", "1a", "0b", "1b"]
    nbhd = {"1a": frozenset(["1a"]), "0a": frozenset(["0a", "1a"]),
            "1b": frozenset(["1b"]), "0b": frozenset(["0b", "1b"])}
    X = Obj("fintop", names, nbhd)
    anchor = Mor(X, Z2.G0, {x: "*" for x in names})
    pairs = fibre_product(anchor, Z2.r)
    flip = {"0a": "0b", "0b": "0a", "1a": "1b", "1b": "1a"}
    tbl = {e: (x if gel == "0" else flip[x])
           for e, (x, gel) in pairs.pairing.items()}
    return Action(Z2, X, anchor, Mor(pairs.apex, X, tbl), "right", pairs)


def test_is_basic_fintop():
    a = sheet_swap()
    assert passed(validate_action(a))
    res = is_basic(a)
    assert res["flag"] and passed(res["cross"])
    assert len(res["orbits"].quotient) == 2


def test_free_action_whose_shear_inverse_is_not_continuous():
    """Z/2 swaps a with b and c with d, on the space where a and b lie
    below c and d.  The action is free and its orbit map a cover, but
    (a, a) lies below (c, d), which the arrow 1 joins and (a, a) the arrow
    0: the shear's inverse is not continuous, so the action is not basic,
    and the fintop cross-check needs that continuity to agree."""
    from groupoidal.site_core import Obj
    Z2 = cyclic_groupoid(2, backend="fintop")
    up = {"a": "acd", "b": "bcd", "c": "c", "d": "d"}
    X = Obj("fintop", list(up), {x: frozenset(u) for x, u in up.items()})
    anchor = Mor(X, Z2.G0, dict.fromkeys(up, "*"))
    pairs = fibre_product(anchor, Z2.r)
    flip = {"a": "b", "b": "a", "c": "d", "d": "c"}
    a = Action(Z2, X, anchor, Mor(pairs.apex, X, {
        e: x if gel == "0" else flip[x]
        for e, (x, gel) in pairs.pairing.items()}), "right", pairs)
    assert passed(validate_action(a))
    res = is_basic(a)
    assert not res["flag"] and is_cover(res["orbits"].proj)
    assert [(f.check, f.ok) for f in res["cross"]] == [
        ("basic-iff-free-and-continuous", True)]


def counted(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_is_basic_builds_the_shear_once(monkeypatch, Z2, S2, SWAP, p2):
    """One principality check per call.  On finsets the shear is counted,
    never built, and is_basic builds no bundle; on fintop it is built
    once and the cross-check reuses it; a bundle built from an action and
    a projection counts it on finsets and builds it once on fintop."""
    import groupoidal.bundle as bundle
    sheets = sheet_swap()
    sheets_proj = orbit_space(sheets).proj
    calls = counted(monkeypatch, bundle, ["check_principal", "bundle_shear"])
    cases = [(lambda: is_basic(trivial_action(Z2, S2)), 0),
             (lambda: is_basic(SWAP), 0),
             (lambda: is_basic(sheet_swap()), 1),
             (lambda: PrincipalBundle(SWAP, p2), 0),
             (lambda: PrincipalBundle(sheets, sheets_proj), 1)]
    for build, shears in cases:
        calls.update(check_principal=0, bundle_shear=0)
        build()
        assert calls == {"check_principal": 1, "bundle_shear": shears}


def test_injective_shear_that_is_not_onto_is_no_iso(S2):
    """The unit groupoid on two points over the point: its shear is
    injective, but X x_Z X has four points and the action two cells."""
    a = canonical_action(unit_groupoid(S2))
    rep = {f.check: f.ok for f in check_principal(a, to_terminal(S2))}
    assert rep == {"projection-cover": True, "projection-invariant": True,
                   "shear-iso": False}
    assert is_basic(a)["flag"]


def test_solve_needs_two_points_of_one_fibre(SWAP, p2):
    """A point outside the carrier, or two points in two fibres, is a
    BoundaryMismatch that names both points."""
    a = sheet_swap()
    cases = [(PrincipalBundle(SWAP, p2), "a", "zz"),
             (PrincipalBundle(a, is_basic(a)["orbits"].proj), "0a", "1a")]
    for b, x1, x2 in cases:
        with pytest.raises(BoundaryMismatch) as err:
            b.solve(x1, x2)
        assert repr(x1) in str(err.value) and repr(x2) in str(err.value)


def test_canonical_cech_action_is_basic(CECH3):
    a = canonical_action(CECH3)
    res = is_basic(a)
    assert res["flag"]
    assert len(res["orbits"].quotient) == 1


def test_pullback_bundle(SWAP, p2, S3):
    b = PrincipalBundle(SWAP, p2)
    f = Mor(S3, p2.cod, {x: "*" for x in "cde"})
    pb = pullback_bundle(b, f)
    assert len(pb.X) == 6
    assert pb.Z == S3
    # to_total covers the original total space and is equivariant
    assert is_cover(pb.to_total)
    for e, (w, gel) in pb.action.pairs.pairing.items():
        assert pb.to_total(pb.action.mult(e)) == \
            b.action.act(pb.to_total(w), gel)


def test_induced_base_map(SWAP, S2, p2):
    b = PrincipalBundle(SWAP, p2)
    f = GMap(SWAP, SWAP, Mor(S2, S2, {"a": "b", "b": "a"}))
    q = induced_base_map(f, b, b)
    assert is_iso(q)


INDUCED_BASE_MAP_CASE = """
from groupoidal.site_core import Mor, NotWellDefined, fibre_product, terminal
from groupoidal.backends import make_finset
from groupoidal.groupoid import cyclic_groupoid
from groupoidal.action import Action, GMap
from groupoidal.bundle import PrincipalBundle, induced_base_map

z2 = cyclic_groupoid(2)
flip = {"a": "b", "b": "a", "c": "d", "d": "c"}


def swap_action(X):
    anchor = Mor(X, z2.G0, {x: "*" for x in X.elements})
    pairs = fibre_product(anchor, z2.r)
    tbl = {e: (x if gel == "0" else flip[x])
           for e, (x, gel) in pairs.pairing.items()}
    return Action(z2, X, anchor, Mor(pairs.apex, X, tbl), "right", pairs)


S2, S4 = make_finset(["a", "b"]), make_finset(["a", "b", "c", "d"])
swap2, swap4 = swap_action(S2), swap_action(S4)
b1 = PrincipalBundle(swap2, Mor(S2, terminal("finset"),
                                {"a": "*", "b": "*"}))
b2 = PrincipalBundle(swap4, Mor(S4, make_finset(["x", "y"]),
                                {"a": "x", "b": "x", "c": "y", "d": "y"}))
f = GMap(swap2, swap4, Mor(S2, S4, {"a": "a", "b": "c"}))
try:
    print(induced_base_map(f, b1, b2).table)
except NotWellDefined:
    print("NotWellDefined")
"""


def test_induced_base_map_rejects_non_equivariant_map_under_O():
    """a and b share an orbit but a -> a and b -> c land in different
    orbits, so no base map exists; this must not rest on assert."""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", INDUCED_BASE_MAP_CASE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "NotWellDefined"


NOT_BASIC_CASE = """
from groupoidal.action import build_action
from groupoidal.backends import make_finset
from groupoidal.bundle import NotBasic, basic_witness_functor
from groupoidal.groupoid import cyclic_groupoid
from groupoidal.site_core import to_terminal
z2, pt = cyclic_groupoid(2), make_finset(["x"])
a = build_action(z2, pt, to_terminal(pt), "right", lambda x, gel: x)
try:
    basic_witness_functor(a)
except NotBasic:
    print("NotBasic")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_basic_witness_functor_rejects_non_basic(flags):
    """The trivial Z/2-action on one point is not free, so not basic:
    NotBasic, with or without -O."""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    res = subprocess.run([sys.executable, *flags, "-c", NOT_BASIC_CASE],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "NotBasic"


def test_basic_witness_functor(SWAP):
    F = basic_witness_functor(SWAP)
    # identity on objects, iso on arrows
    assert F.F0 == identity(SWAP.X)
    assert is_iso(F.F1)


def test_cech_action_reconstruction(p2, CECH2):
    # Čech groupoid of p2 acting canonically on its own objects
    a = canonical_action(CECH2)
    out = cech_action_reconstruction(a, p2)
    assert is_iso(out["iso"])
    assert len(out["fp"].apex) == len(a.X)


def test_all_cech_actions_are_basic(CECH2):
    """Every action of a kernel-pair groupoid is basic.  The groupoid is
    transitive, so actions need equal-size anchor fibres: use 4 points."""
    from groupoidal.site_core import all_maps
    X = make_finset(["p", "q", "r", "s"])
    count = 0
    for anchor in all_maps(X, CECH2.G0):
        for a in enumerate_actions(CECH2, X, anchor):
            count += 1
            assert is_basic(a)["flag"]
    assert count > 0
