import os
import subprocess
import sys

import pytest

import groupoidal
from groupoidal import action, morphism
from groupoidal.site_core import (Mor, compose, fibre_product, identity,
                                  is_cover, is_iso, pair_id, passed,
                                  terminal, to_terminal)
from groupoidal.backends import make_finset
from groupoidal.groupoid import (cech_groupoid, cyclic_groupoid,
                                 pair_groupoid, unit_groupoid)
from groupoidal.action import (Bibundle, build_action, canonical_action,
                               opposite, unit_bibundle, validate_bibundle)
from groupoidal.morphism import (Functor, anafunctor_from_functor,
                                 exists_ananat, identity_anafunctor,
                                 validate_ananat)
from groupoidal.bibundle import (MiddleMismatch, NotABibundleFunctor,
                                 NotAnActor, NotAnEquivalence, NotBasic,
                                 NotComposable, act_on, associator,
                                 beta_ana_to_bibundle,
                                 bibundle_isomorphic,
                                 bibundle_to_anafunctor,
                                 brute_force_quasi_inverse, cech_equivalence,
                                 check_inverse, classify, compose_bibundles,
                                 composite_class, composite_witness,
                                 decompose_actor, dual, enumerate_bibundles,
                                 functor_to_bibundle, imprimitivity,
                                 left_unitor, pullback_action, right_unitor,
                                 roundtrip_ananat, roundtrip_beta,
                                 validate_bibundle_map)


def point_groupoid():
    return unit_groupoid(terminal("finset"))


def unit_inclusion_functor(Z2):
    pt = point_groupoid()
    return Functor(pt, Z2, Mor(pt.G0, Z2.G0, {"*": "*"}),
                   Mor(pt.G1, Z2.G1, {"*": "0"}))


def object_inclusion_functor(CECH2):
    """Pick out the object `a` of a transitive groupoid: es and ff."""
    pt = point_groupoid()
    return Functor(pt, CECH2, Mor(pt.G0, CECH2.G0, {"*": "a"}),
                   Mor(pt.G1, CECH2.G1, {"*": CECH2.kernel.index[("a", "a")]}))


def subgroup_bibundle():
    """{0, 2} inside Z/4 acting on Z/4 from both sides by addition."""
    h2 = cyclic_groupoid(2)
    X = make_finset(["0", "1", "2", "3"])
    anchor = Mor(X, h2.G0, {x: "*" for x in X.elements})

    def add(x, gel):
        return str((int(x) + 2 * int(gel)) % 4)

    left = build_action(h2, X, anchor, "left", add)
    right = build_action(h2, X, anchor, "right", add)
    b = Bibundle(h2, h2, left, right)
    assert passed(validate_bibundle(b))
    return b


def test_classify_unit(Z2, CECH2):
    for g in (Z2, CECH2):
        flags = classify(unit_bibundle(g))
        assert all(flags.values())


def test_classify_cech_equivalences(E63, EQ23):
    assert classify(E63)["is_equivalence"]
    assert classify(EQ23)["is_equivalence"]


def test_functor_bibundle_of_identity_is_unit(Z2):
    from groupoidal.morphism import identity_functor
    b = functor_to_bibundle(identity_functor(Z2))
    assert bibundle_isomorphic(b, unit_bibundle(Z2)) is not None


def test_unit_inclusion_bibundle_flags(Z2):
    b = functor_to_bibundle(unit_inclusion_functor(Z2))
    flags = classify(b)
    assert flags["is_functor"] and flags["is_covering"]
    assert not flags["is_equivalence"]
    assert len(b.X) == 2


def test_object_inclusion_is_equivalence(CECH2):
    b = functor_to_bibundle(object_inclusion_functor(CECH2))
    assert classify(b)["is_equivalence"]


def test_generalized_functor_pullback(Z2, CECH2):
    """Pulling a left carrier back along a functor gives a left action on
    the fibre product."""
    F = object_inclusion_functor(CECH2)
    Y = opposite(canonical_action(CECH2))
    pulled = pullback_action(F, Y)
    assert pulled.side == "left"
    assert len(pulled.X) == 1


def test_bibundle_to_anafunctor(Z2):
    b = functor_to_bibundle(unit_inclusion_functor(Z2))
    ana = bibundle_to_anafunctor(b)
    assert ana.src.G0 == b.g.G0 and ana.dst == Z2
    # agrees with the direct anafunctor of the functor up to a 2-arrow
    direct = anafunctor_from_functor(unit_inclusion_functor(Z2))
    n = exists_ananat(ana, direct)
    assert n is not None and passed(validate_ananat(n))


def test_bibundle_to_anafunctor_rejects_non_functor(Z2):
    # the dual of a non-equivalence functor bibundle is not a functor
    b = dual(functor_to_bibundle(unit_inclusion_functor(Z2)))
    with pytest.raises(NotABibundleFunctor):
        bibundle_to_anafunctor(b)


def test_roundtrip_beta(Z2, E63, EQ23):
    for b in (unit_bibundle(Z2), E63, EQ23):
        out = roundtrip_beta(b)
        assert is_iso(out["iso"])
        assert len(out["beta"].X) == len(b.X)


def test_roundtrip_ananat(Z2, CECH2):
    for a in (identity_anafunctor(Z2),
              anafunctor_from_functor(unit_inclusion_functor(Z2)),
              identity_anafunctor(CECH2)):
        psi = roundtrip_ananat(a)
        assert passed(validate_ananat(psi))


def test_compose_unit_unit(Z2):
    u = unit_bibundle(Z2)
    c = compose_bibundles(u, u)
    assert len(c.X) == 2
    assert bibundle_isomorphic(c, u) is not None


def test_compose_equivalence_with_dual(EQ23, CECH2):
    c = compose_bibundles(EQ23, dual(EQ23))
    assert len(c.X) == 4
    assert bibundle_isomorphic(c, unit_bibundle(CECH2)) is not None


def test_compose_boundary_mismatch(Z2, Z4):
    with pytest.raises(MiddleMismatch):
        compose_bibundles(unit_bibundle(Z2), unit_bibundle(Z4))


def test_compose_requires_basic_middle(Z2):
    """A non-free middle action cannot be quotiented away."""
    X = make_finset(["p"])
    anchor = Mor(X, Z2.G0, {"p": "*"})
    left = build_action(Z2, X, anchor, "left", lambda x, gel: "p")
    right = build_action(Z2, X, anchor, "right", lambda x, gel: "p")
    triv = Bibundle(Z2, Z2, left, right)
    assert passed(validate_bibundle(triv))
    # middle acts trivially on the point-to-point pair: not free
    with pytest.raises(NotComposable):
        compose_bibundles(triv, triv)
    with pytest.raises(morphism.NotComposable):
        compose_bibundles(triv, triv)


def test_associator(EQ23):
    out = associator(EQ23, dual(EQ23), EQ23)
    assert is_iso(out["iso"])


def test_associator_on_units(Z2):
    u = unit_bibundle(Z2)
    out = associator(u, u, u)
    assert is_iso(out["iso"])


def test_unitors(EQ23, E63):
    for b in (EQ23, E63):
        lo = left_unitor(b)
        ro = right_unitor(b)
        assert is_iso(lo["iso"]) and is_iso(ro["iso"])


def test_dual_involution(EQ23):
    dd = dual(dual(EQ23))
    assert dd.left.mult == EQ23.left.mult
    assert dd.right.mult == EQ23.right.mult


def test_dual_of_unit(Z2):
    d = dual(unit_bibundle(Z2))
    f = bibundle_isomorphic(d, unit_bibundle(Z2))
    assert f is not None
    # inversion is such an isomorphism
    assert passed(validate_bibundle_map(d, unit_bibundle(Z2), Z2.i))


def test_check_inverse_oracles(EQ23, Z2):
    out = check_inverse(EQ23)
    assert len(out["c1"].X) == 4
    assert len(out["c2"].X) == 9
    out2 = check_inverse(unit_bibundle(Z2))
    assert is_iso(out2["iso1"]) and is_iso(out2["iso2"])


def test_check_inverse_rejects_non_equivalence(Z2):
    b = functor_to_bibundle(unit_inclusion_functor(Z2))
    with pytest.raises(NotAnEquivalence):
        check_inverse(b)


def test_decompose_actor_unit(Z2):
    out = decompose_actor(unit_bibundle(Z2))
    K = out["k"]
    assert len(K.G0) == 1 and len(K.G1) == 2
    assert classify(out["equiv"])["is_equivalence"]
    assert is_iso(out["iso"])


def test_decompose_actor_rejects(Z2):
    # Z/2 acting trivially on a point: the right action is not basic
    X = make_finset(["p"])
    anchor = Mor(X, Z2.G0, {"p": "*"})
    left = build_action(Z2, X, anchor, "left", lambda x, gel: "p")
    right = build_action(Z2, X, anchor, "right", lambda x, gel: "p")
    with pytest.raises(NotAnActor):
        decompose_actor(Bibundle(Z2, Z2, left, right))
    with pytest.raises(action.NotAnActor):
        decompose_actor(Bibundle(Z2, Z2, left, right))


def test_imprimitivity_subgroup():
    b = subgroup_bibundle()
    out = imprimitivity(b)
    assert len(out.A.G0) == 2 and len(out.A.G1) == 4
    assert len(out.B.G0) == 2 and len(out.B.G1) == 4
    assert classify(out)["is_equivalence"]


def test_imprimitivity_rejects_non_basic(Z2):
    X = make_finset(["p"])
    anchor = Mor(X, Z2.G0, {"p": "*"})
    left = build_action(Z2, X, anchor, "left", lambda x, gel: "p")
    right = build_action(Z2, X, anchor, "right", lambda x, gel: "p")
    with pytest.raises(NotBasic):
        imprimitivity(Bibundle(Z2, Z2, left, right))


def test_composite_witness(Z2):
    u = unit_bibundle(Z2)
    FP = fibre_product(u.s_anchor, u.r_anchor)
    mult = Mor(FP.apex, Z2.G1,
               {e: Z2.mul(a, b) for e, (a, b) in FP.pairing.items()})
    assert composite_witness(u, u, u, mult)
    const = Mor(FP.apex, Z2.G1, {e: "0" for e in FP.apex.elements})
    assert not composite_witness(u, u, u, const)


def test_composite_witness_needs_equivariance(Z3):
    """m(a, b) = (a·b)⁻¹ is invariant and descends to a bijection from
    the composite of the unit bibundle of Z/3 with itself, but it is not
    equivariant: g·[a, b] goes to (g·a·b)⁻¹, not g·(a·b)⁻¹."""
    u = unit_bibundle(Z3)
    FP = fibre_product(u.s_anchor, u.r_anchor)
    m = Mor(FP.apex, Z3.G1,
            {e: Z3.i(Z3.mul(a, b)) for e, (a, b) in FP.pairing.items()})
    assert not composite_witness(u, u, u, m)


def test_act_on(Z2):
    u = unit_bibundle(Z2)
    y = opposite(canonical_action(Z2))
    out = act_on(u, y)
    # acting through the identity actor on the one-point base
    assert len(out.X) == 1
    assert passed((__import__("groupoidal.action", fromlist=["validate_action"])
                   .validate_action)(out))


def test_right_actions_are_read_as_left(Z2, CECH2):
    """A right action passed where a left one is wanted acts through its
    opposite."""
    u, y = unit_bibundle(Z2), canonical_action(Z2)
    assert act_on(u, y).mult == act_on(u, opposite(y)).mult
    F, Y = object_inclusion_functor(CECH2), canonical_action(CECH2)
    assert pullback_action(F, Y).mult == \
        pullback_action(F, opposite(Y)).mult


ACT_ON_NON_BASIC_CASE = """
from groupoidal import morphism
from groupoidal.action import build_action, unit_bibundle
from groupoidal.backends import make_finset
from groupoidal.bibundle import act_on
from groupoidal.groupoid import cyclic_groupoid
from groupoidal.site_core import Mor

z2 = cyclic_groupoid(2)
Y = make_finset(["p", "q"])
anchor = Mor(Y, z2.G0, {"p": "*", "q": "*"})
# every arrow sends every point to p: not an action, and the diagonal
# action on Z/2 x Y is not free
y = build_action(z2, Y, anchor, "left", lambda y, gel: "p")
try:
    act_on(unit_bibundle(z2), y)
except morphism.NotComposable:
    print("NotComposable")
"""


def test_act_on_rejects_non_basic_middle_under_O():
    """The middle-not-basic check of act_on must not rest on assert."""
    src = os.path.dirname(os.path.dirname(groupoidal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        res = subprocess.run([sys.executable, *flags, "-c",
                              ACT_ON_NON_BASIC_CASE], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "NotComposable"


def test_bibundle_isomorphic_negative(Z2):
    u = unit_bibundle(Z2)
    b = functor_to_bibundle(unit_inclusion_functor(Z2))
    # different groupoid boundaries: no isomorphism
    assert bibundle_isomorphic(u, dual(u)) is not None
    assert bibundle_isomorphic(
        b, functor_to_bibundle(unit_inclusion_functor(Z2))) is not None


def test_enumerate_bibundles(Z2):
    found = list(enumerate_bibundles(Z2, Z2, max_size=2))
    assert found
    for b in found:
        assert passed(validate_bibundle(b))
    # the unit bibundle shape appears: carrier of size two, both free
    assert any(len(b.X) == 2 and classify(b)["is_equivalence"]
               for b in found)


def test_brute_force_quasi_inverse(E63):
    q = brute_force_quasi_inverse(E63, cap=2)
    assert q is not None
    assert bibundle_isomorphic(q, dual(E63)) is not None


def test_brute_force_no_inverse(Z2):
    b = functor_to_bibundle(unit_inclusion_functor(Z2))
    assert brute_force_quasi_inverse(b, cap=2) is None
