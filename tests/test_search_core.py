"""The exhaustive searches on ``site_core.backtrack`` against brute force.

Each reference below runs through the Cartesian product of a search's
candidates, in order, and keeps what the notion's validator accepts.  The
searches run no validator at their leaves: their propagation must prune
exactly the tables the validator rejects, so the fast path must give the
same list in the same order.  On finite spaces a table that is not
continuous is no map; the references skip it, as the searches do.
"""

from itertools import product

import pytest

from groupoidal.site_core import (Mor, NotAMorphism, all_maps, backtrack,
                                  fibre_product, is_iso, passed, terminal,
                                  to_terminal)
from groupoidal.backends import all_finspaces, make_finset
from groupoidal.groupoid import (cech_groupoid, cyclic_groupoid,
                                 pair_groupoid, unit_groupoid)
from groupoidal.action import (Action, Bibundle, action_pairs, build_action,
                               enumerate_actions, unit_bibundle,
                               validate_action, validate_bibundle)
from groupoidal.morphism import (AnaNat, Functor, anafunctor_from_functor,
                                 compose_anafunctors, enumerate_functors,
                                 exists_ananat, identity_anafunctor,
                                 validate_ananat, validate_functor)
from groupoidal.bibundle import (beta_ana_to_bibundle, bibundle_isomorphic,
                                 bibundle_to_anafunctor, compose_bibundles,
                                 dual, enumerate_bibundles,
                                 validate_bibundle_map)

from test_acceptance import battery


def test_backtrack_without_propagation_is_the_product():
    cand = {"a": [1, 2], "b": [3, 4, 5], "c": [6]}
    got = list(backtrack(["b", "a", "c"], cand, lambda v, y, assign: []))
    assert got == [dict(zip("bac", t))
                   for t in product([3, 4, 5], [1, 2], [6])]


def test_backtrack_forces_and_undoes():
    # a = b and b = c, by propagation only
    cand = {v: [0, 1, 2] for v in "abc"}
    same = {"a": "b", "b": "c", "c": "b"}

    def implied(v, y, assign):
        return [(same[v], y)] + ([("a", y)] if v == "b" else [])

    got = list(backtrack(list("abc"), cand, implied))
    assert got == [{"a": y, "b": y, "c": y} for y in (0, 1, 2)]


def test_backtrack_conflicts():
    cand = {"a": [0, 1], "b": [0]}
    # a forced value outside the candidates, then an explicit conflict
    forced = backtrack(["a", "b"], cand, lambda v, y, assign: [("b", y)])
    assert list(forced) == [{"a": 0, "b": 0}]

    def no_b_after_a0(v, y, assign):
        return None if v == "b" and assign["a"] == 0 else []

    got = list(backtrack(["a", "b"], cand, no_b_after_a0))
    assert got == [{"a": 1, "b": 0}]


# ------------------------------------------------------------ actions

def reference_actions(g, X, anchor, side):
    """Every table whose unit cell of x is x and whose other cells (x, p)
    take a point over the end where x·p lands, kept when it validates."""
    pairs = action_pairs(g, anchor, side)
    cells, cands = [], []
    for e, pair in pairs.pairing.items():
        x, p = pair if side == "right" else pair[::-1]
        lands = g.s(p) if side == "right" else g.r(p)
        cells.append(e)
        cands.append([x] if p == g.u(anchor(x)) else
                     [y for y in X.elements if anchor(y) == lands])
    out = []
    for values in product(*cands):
        tbl = dict(zip(cells, values))
        try:
            mult = Mor(pairs.apex, X, tbl)
        except NotAMorphism:
            continue
        if passed(validate_action(Action(g, X, anchor, mult, side, pairs))):
            out.append(tbl)
    return out


def tables(actions):
    return [a.mult.table for a in actions]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_actions_matches_brute_force_cyclic(n, side):
    g = cyclic_groupoid(n)
    for k in range(4):
        X = make_finset(["p%d" % i for i in range(k)])
        anchor = Mor(X, g.G0, {x: "*" for x in X.elements})
        assert (tables(enumerate_actions(g, X, anchor, side))
                == reference_actions(g, X, anchor, side))


@pytest.mark.parametrize("side", ["right", "left"])
def test_enumerate_actions_matches_brute_force_cech(side):
    A = make_finset(["a", "b", "c"])
    B = make_finset(["u", "v"])
    g = cech_groupoid(Mor(A, B, {"a": "u", "b": "u", "c": "v"}))
    X = make_finset(["p", "q"])
    total = 0
    for anchor in all_maps(X, g.G0):
        want = reference_actions(g, X, anchor, side)
        assert tables(enumerate_actions(g, X, anchor, side)) == want
        total += len(want)
    assert total > 0


def fintop_groupoids():
    """The pair groupoids of the nonempty finite spaces of at most two
    points, and Z/2 on a discrete space."""
    return [pair_groupoid(x) for x in all_finspaces(2) if len(x)] + [
        cyclic_groupoid(2, "fintop")]


@pytest.mark.parametrize("side", ["right", "left"])
def test_enumerate_actions_matches_brute_force_fintop(side):
    """Finite-space carriers of at most three points, where about half of
    the brute force's tables are not continuous."""
    total = 0
    for g in fintop_groupoids():
        for X in all_finspaces(3):
            for anchor in all_maps(X, g.G0):
                want = reference_actions(g, X, anchor, side)
                assert tables(enumerate_actions(g, X, anchor, side)) == want
                total += len(want)
    assert total > 40
# ------------------------------------------------------------ functors

def reference_functors(g, h):
    out = []
    for F0 in all_maps(g.G0, h.G0):
        cands = [[b for b in h.arrows()
                  if h.r(b) == F0(g.r(a)) and h.s(b) == F0(g.s(a))]
                 for a in g.arrows()]
        for values in product(*cands):
            try:
                F1 = Mor(g.G1, h.G1, dict(zip(g.arrows(), values)))
            except NotAMorphism:
                continue
            F = Functor(g, h, F0, F1)
            if passed(validate_functor(F)):
                out.append(F)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_functors_matches_brute_force(m, n):
    g, h = cyclic_groupoid(m), cyclic_groupoid(n)
    assert list(enumerate_functors(g, h)) == reference_functors(g, h)


def test_enumerate_functors_matches_brute_force_fintop():
    gs = fintop_groupoids()
    total = 0
    for g in gs:
        for h in gs:
            want = reference_functors(g, h)
            assert list(enumerate_functors(g, h)) == want
            total += len(want)
    assert total > 40


# ------------------------------------------------------------ bibundle isos

def reference_isomorphism(b1, b2):
    if b1.g != b2.g or b1.h != b2.h or len(b1.X) != len(b2.X):
        return None
    xs = b1.X.elements
    cands = [[ye for ye in b2.X.elements
              if b1.r_anchor(xe) == b2.r_anchor(ye)
              and b1.s_anchor(xe) == b2.s_anchor(ye)] for xe in xs]
    for values in product(*cands):
        f = Mor(b1.X, b2.X, dict(zip(xs, values)))
        if is_iso(f) and passed(validate_bibundle_map(b1, b2, f)):
            return f
    return None


def bibundle_pairs():
    pairs = []
    for name, b in battery().items():
        d = dual(b)
        pairs += [(name, b, b), (name + "-dual", d, d),
                  (name + "-dual-dual", dual(d), b)]
        c = compose_bibundles(b, d)
        pairs.append((name + "-with-dual", c, unit_bibundle(b.g)))
        if b.g == b.h:
            pairs.append((name + "-vs-dual", b, d))
    return pairs


def test_bibundle_isomorphic_matches_brute_force():
    found = 0
    for name, b1, b2 in bibundle_pairs():
        want = reference_isomorphism(b1, b2)
        assert bibundle_isomorphic(b1, b2) == want, name
        found += want is not None
    assert found > 10


def one_sided_bibundles(h, max_size):
    """The point groupoid acting trivially on the left of each right
    h-action on at most max_size points, and the duals: an
    anchor-preserving bijection is then equivariant on the trivial side,
    so only the other side's moves tell isomorphic from not."""
    pt = unit_groupoid(terminal("finset"))
    out = []
    for k in range(1, max_size + 1):
        X = make_finset(["x%d" % i for i in range(k)])
        trivial = build_action(pt, X, to_terminal(X), "left",
                               lambda x, gel: x)
        for anchor in all_maps(X, h.G0):
            out += [Bibundle(pt, h, trivial, right)
                    for right in enumerate_actions(h, X, anchor, "right")]
    return out + [dual(b) for b in out]


def test_bibundle_isomorphic_needs_both_sides():
    found = missing = 0
    for h in (cyclic_groupoid(2), cyclic_groupoid(3)):
        bs = one_sided_bibundles(h, 3)
        for b1 in bs:
            for b2 in bs:
                want = reference_isomorphism(b1, b2)
                assert bibundle_isomorphic(b1, b2) == want
                found += want is not None
                missing += want is None and len(b1.X) == len(b2.X)
    assert found > 10 and missing > 10


def reference_enumerate_bibundles(g, h, max_size):
    """The enumeration with the right actions listed again for every
    left action."""
    for n in range(max_size + 1):
        X = make_finset(["y%d" % i for i in range(n)])
        for r_anchor in all_maps(X, g.G0):
            for s_anchor in all_maps(X, h.G0):
                for left in enumerate_actions(g, X, r_anchor, "left"):
                    for right in enumerate_actions(h, X, s_anchor, "right"):
                        b = Bibundle(g, h, left, right)
                        if passed(validate_bibundle(b)):
                            yield b


def test_enumerate_bibundles_keeps_its_order(Z2, CECH2):
    for g, h in ((Z2, Z2), (Z2, CECH2), (CECH2, Z2)):
        got = [(b.left.mult, b.right.mult)
               for b in enumerate_bibundles(g, h, max_size=2)]
        want = [(b.left.mult, b.right.mult)
                for b in reference_enumerate_bibundles(g, h, 2)]
        assert got == want and got


# ------------------------------------------------------------ ananats

def reference_ananat(a1, a2):
    h = a1.dst
    fp = fibre_product(a1.p, a2.p)
    elems = fp.apex.elements
    cands = [[v for v in h.arrows()
              if h.s(v) == a1.F0(x1) and h.r(v) == a2.F0(x2)]
             for x1, x2 in (fp.pairing[e] for e in elems)]
    for values in product(*cands):
        t = AnaNat(a1, a2, Mor(fp.apex, h.G1, dict(zip(elems, values))), fp)
        if passed(validate_ananat(t)):
            return t.phi
    return None


def anafunctor_pairs(Z2, CECH2):
    pairs = []
    for name, b in battery().items():
        ana = bibundle_to_anafunctor(b)
        back = bibundle_to_anafunctor(beta_ana_to_bibundle(ana))
        pairs += [(name, ana, ana), (name + "-beta", back, ana),
                  (name + "-unit", compose_anafunctors(
                      identity_anafunctor(ana.dst), ana), ana)]
    for g, h in ((Z2, Z2), (CECH2, Z2)):
        anas = [anafunctor_from_functor(F) for F in enumerate_functors(g, h)]
        pairs += [("functors", a1, a2) for a1 in anas for a2 in anas]
    return pairs


def test_exists_ananat_matches_brute_force(Z2, CECH2):
    found = missing = 0
    for name, a1, a2 in anafunctor_pairs(Z2, CECH2):
        want = reference_ananat(a1, a2)
        got = exists_ananat(a1, a2)
        assert (got and got.phi) == want, name
        found += want is not None
        missing += want is None
    assert found > 10 and missing > 0
