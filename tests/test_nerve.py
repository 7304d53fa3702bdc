from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from groupoidal.site_core import (BoundaryMismatch, Mor, NotAMorphism,
                                  SiteError, compose, fibre_product,
                                  first_failure, identity, is_iso, passed,
                                  terminal)
from groupoidal.backends import make_finset
from groupoidal.groupoid import (cyclic_groupoid, pair_groupoid,
                                 unit_groupoid)
from groupoidal.action import unit_bibundle
from groupoidal.bibundle import compose_bibundles, dual
from groupoidal import nerve
from groupoidal.nerve import (NSimplex, NotMonotone, build_simplex,
                              diagonal_groupoid, edge_bibundle,
                              horn_fill_inner2, restrict_simplex,
                              simplex_from_bibundle, simplex_from_groupoid,
                              unique_inner3_check, validate_simplex)


def test_zero_simplex(Z2):
    sx = simplex_from_groupoid(Z2)
    assert passed(validate_simplex(sx))
    g = diagonal_groupoid(sx, 0)
    assert g.u == Z2.u and g.i == Z2.i


def test_one_simplex_from_bibundle(Z2, EQ23):
    for b in (unit_bibundle(Z2), EQ23):
        sx = simplex_from_bibundle(b)
        assert passed(validate_simplex(sx))
        back = edge_bibundle(sx, 0, 1)
        assert back.left.mult == b.left.mult
        assert back.right.mult == b.right.mult


def test_horn_fill_unit_chain(Z2):
    sx = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    assert sx.n == 2
    assert passed(validate_simplex(sx))
    assert len(sx.composite.X) == 2


def test_horn_fill_equivalence_chain(EQ23):
    sx = horn_fill_inner2(EQ23, dual(EQ23))
    assert passed(validate_simplex(sx))
    assert len(sx.XX[(0, 2)]) == 4


def test_faces_and_degeneracies(Z2):
    sx = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    for phi in ([0, 1], [1, 2], [0, 2]):
        face = restrict_simplex(phi, sx)
        assert passed(validate_simplex(face))
    # the (0, 2)-face carries the composite edge
    face02 = restrict_simplex([0, 2], sx)
    assert face02.XX[(0, 1)] == sx.XX[(0, 2)]
    # degeneracy of an edge
    edge = restrict_simplex([0, 1], sx)
    deg = restrict_simplex([0, 0, 1], edge)
    assert passed(validate_simplex(deg))


def test_simplicial_identity(Z2):
    """Restricting twice equals restricting along the composite
    reindexing."""
    sx = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    a = restrict_simplex([0, 1], restrict_simplex([0, 2], sx))
    b = restrict_simplex([0, 2], sx)
    assert a.XX == b.XX and a.r == b.r and a.s == b.s and a.m == b.m


def test_restrict_rejects_non_monotone(Z2):
    sx = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    with pytest.raises(NotMonotone):
        restrict_simplex([2, 0], sx)


def degenerate_3_simplex(g):
    """All edges the unit bibundle of g, all multiplications g.m."""
    u = unit_bibundle(g)
    edges = {(i, j): u for i in range(3) for j in range(i + 1, 4)}
    inner = {(i, j, k): g.m
             for i in range(4) for j in range(i + 1, 4)
             for k in range(j + 1, 4)}
    return build_simplex([g, g, g, g], edges, inner)


def test_two_fillers_at_dimension_two(Z2):
    """Inner 2-horns over a one-object group need not fill uniquely: the
    shift by the nontrivial loop is a second coherent filler.  Uniqueness
    only starts at dimension three."""
    full = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    m = dict(full.m)
    wanted = m.pop((0, 1, 2))
    horn = NSimplex(2, full.X, full.XX, full.r, full.s, m)
    out = unique_inner3_check(horn, (0, 1, 2))
    assert len(out["fillers"]) == 2
    assert wanted in out["fillers"]


def test_unique_inner3_filler(Z2):
    full = degenerate_3_simplex(Z2)
    assert passed(validate_simplex(full))
    m = dict(full.m)
    wanted = m.pop((0, 1, 3))
    horn = NSimplex(3, full.X, full.XX, full.r, full.s, m)
    out = unique_inner3_check(horn, (0, 1, 3))
    assert out["fillers"] == [wanted]


def test_unique_inner3_filler_pair_groupoid(S2):
    g = pair_groupoid(S2)
    full = degenerate_3_simplex(g)
    assert passed(validate_simplex(full))
    m = dict(full.m)
    wanted = m.pop((0, 2, 3))
    horn = NSimplex(3, full.X, full.XX, full.r, full.s, m)
    out = unique_inner3_check(horn, (0, 2, 3))
    assert out["fillers"] == [wanted]


def test_corrupted_horn_has_no_filler(S2):
    """Twisting s_03 breaks the boundary equations for every candidate
    filler of the missing inner multiplication."""
    g = pair_groupoid(S2)
    full = degenerate_3_simplex(g)
    swap = Mor(S2, S2, {"a": "b", "b": "a"})
    s = dict(full.s)
    s[(0, 3)] = compose(swap, s[(0, 3)])
    # m_033 must be rebuilt on the fibre product of the twisted source
    fp = fibre_product(s[(0, 3)], full.r[(3, 3)])
    m = dict(full.m)
    m[(0, 3, 3)] = Mor(fp.apex, full.XX[(0, 3)],
                       {e: g.kernel.index[(g.r(v), g.s(w))]
                        for e, (v, w) in fp.pairing.items()})
    m.pop((0, 1, 3))
    horn = NSimplex(3, full.X, full.XX, full.r, s, m)
    out = unique_inner3_check(horn, (0, 1, 3))
    assert out["fillers"] == []


def test_degenerate_from_zero_simplex_fills_uniquely(Z2):
    sx = restrict_simplex([0, 0, 0, 0], simplex_from_groupoid(Z2))
    assert passed(validate_simplex(sx))
    m = dict(sx.m)
    wanted = m.pop((0, 1, 2))
    horn = NSimplex(3, sx.X, sx.XX, sx.r, sx.s, m)
    out = unique_inner3_check(horn, (0, 1, 2))
    assert out["fillers"] == [wanted]


def test_validate_flags_broken_associativity(Z2):
    full = horn_fill_inner2(unit_bibundle(Z2), unit_bibundle(Z2))
    m = dict(full.m)
    old = m[(0, 1, 2)]
    # a constant inner multiplication satisfies the boundary equations
    # over one object but fails associativity
    const = sorted(old.cod.elements)[0]
    m[(0, 1, 2)] = Mor(old.dom, old.cod,
                       {e: const for e in old.dom.elements})
    bad = NSimplex(2, full.X, full.XX, full.r, full.s, m)
    rep = validate_simplex(bad)
    assert not passed(rep)


def test_build_simplex_matches_horn_fill(Z2):
    u = unit_bibundle(Z2)
    c = horn_fill_inner2(u, u)
    built = build_simplex([Z2, Z2, Z2],
                          {(0, 1): u, (1, 2): u, (0, 2): c.composite},
                          {(0, 1, 2): c.m[(0, 1, 2)]})
    assert passed(validate_simplex(built))


def old_associativity_cases(sx):
    """The associativity cases of ``validate_simplex`` as first written:
    every point of the next edge space, filtered by source and range."""
    for quad in combinations_with_replacement(range(sx.n + 1), 4):
        i, j, k, l = quad
        for x in sx.XX[(i, j)].elements:
            for y in sx.XX[(j, k)].elements:
                if sx.s[(i, j)](x) != sx.r[(j, k)](y):
                    continue
                xy = sx.mul(i, j, k, x, y)
                for z in sx.XX[(k, l)].elements:
                    if sx.s[(j, k)](y) != sx.r[(k, l)](z):
                        continue
                    yield (quad, x, y, z), (
                        sx.mul(i, k, l, xy, z) ==
                        sx.mul(i, j, l, x, sx.mul(j, k, l, y, z)))


def old_candidates(sx, missing):
    """The candidate values of each point of the missing face, as
    ``unique_inner3_check`` first filtered them from the whole edge space."""
    i, j, k = missing
    return [[v for v in sx.XX[(i, k)].elements
             if sx.r[(i, k)](v) == sx.r[(i, j)](x)
             and sx.s[(i, k)](v) == sx.s[(j, k)](y)]
            for x, y in sx.fp(i, j, k).pairing.values()]


def completions(sx, missing, tables):
    """The simplices that fill the missing face with each table."""
    i, j, k = missing
    fp = sx.fp(i, j, k)
    for choice in tables:
        try:
            mm = Mor(fp.apex, sx.XX[(i, k)], dict(zip(fp.apex.elements,
                                                      choice)))
        except NotAMorphism:
            continue
        yield mm, NSimplex(sx.n, sx.X, sx.XX, sx.r, sx.s,
                           {**sx.m, missing: mm})


def old_fillers(sx, missing):
    """``unique_inner3_check`` as first written."""
    return [mm for mm, full in completions(
        sx, missing, product(*old_candidates(sx, missing)))
        if passed(validate_simplex(full))]


def corrupted_horn(S2):
    """The horn of ``test_corrupted_horn_has_no_filler``."""
    g = pair_groupoid(S2)
    full = degenerate_3_simplex(g)
    swap = Mor(S2, S2, {"a": "b", "b": "a"})
    s = dict(full.s)
    s[(0, 3)] = compose(swap, s[(0, 3)])
    fp = fibre_product(s[(0, 3)], full.r[(3, 3)])
    m = dict(full.m)
    m[(0, 3, 3)] = Mor(fp.apex, full.XX[(0, 3)],
                       {e: g.kernel.index[(g.r(v), g.s(w))]
                        for e, (v, w) in fp.pairing.items()})
    wanted = m.pop((0, 1, 3))
    return NSimplex(3, full.X, full.XX, full.r, s, m), wanted


def horn(full, missing):
    m = dict(full.m)
    wanted = m.pop(missing)
    return NSimplex(full.n, full.X, full.XX, full.r, full.s, m), wanted


HORNS = {
    "Z2-dim2": lambda Z2, S2: (horn(horn_fill_inner2(
        unit_bibundle(Z2), unit_bibundle(Z2)), (0, 1, 2)), (0, 1, 2)),
    "Z2-013": lambda Z2, S2: (horn(degenerate_3_simplex(Z2), (0, 1, 3)),
                              (0, 1, 3)),
    "pair-023": lambda Z2, S2: (horn(degenerate_3_simplex(
        pair_groupoid(S2)), (0, 2, 3)), (0, 2, 3)),
    "corrupted-013": lambda Z2, S2: (corrupted_horn(S2), (0, 1, 3)),
    "degenerate-012": lambda Z2, S2: (horn(restrict_simplex(
        [0, 0, 0, 0], simplex_from_groupoid(Z2)), (0, 1, 2)), (0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(HORNS))
def test_horns_fill_and_fail_as_the_old_loops(name, Z2, S2):
    """On each horn of this file the fillers, in order, are those of the
    old filtered loops, and every completion by a candidate table or by
    the removed multiplication reports the old associativity witness."""
    (sx, wanted), missing = HORNS[name](Z2, S2)
    assert unique_inner3_check(sx, missing)["fillers"] == old_fillers(
        sx, missing)
    tables = list(product(*old_candidates(sx, missing)))
    tables.append([wanted(e) for e in wanted.dom.elements])
    for _, full in completions(sx, missing, tables):
        found = {f.check: f.witness for f in validate_simplex(full)}
        assert found["associativity"] == first_failure(
            old_associativity_cases(full))


@pytest.mark.parametrize("name", sorted(HORNS))
def test_inner3_candidates_share_the_horns_fibre_products(name, Z2, S2,
                                                          monkeypatch):
    """Every candidate completion has the horn's r and s, so it reads the
    horn's fibre products: the search builds each missing one once.  On
    the Z/2 horn missing (0, 1, 3) that is 27 calls; a fresh simplex per
    candidate, rebuilding its 20 face products, made 737."""
    (sx, _), missing = HORNS[name](Z2, S2)
    calls = []
    real = nerve.fibre_product

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(nerve, "fibre_product", spy)
    before = set(sx.pullbacks)
    unique_inner3_check(sx, missing)
    assert len(calls) == len(set(sx.pullbacks) - before)
    if name == "Z2-013":
        assert len(calls) == 27


INNER3 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

BAD_HORNS = {
    "Z2": lambda S2: (degenerate_3_simplex(cyclic_groupoid(2)), INNER3),
    "pair": lambda S2: (degenerate_3_simplex(pair_groupoid(S2)), INNER3),
    "Z2-fintop": lambda S2: (degenerate_3_simplex(
        cyclic_groupoid(2, "fintop")), INNER3),
    "Z2-dim2": lambda S2: (horn_fill_inner2(
        unit_bibundle(cyclic_groupoid(2)), unit_bibundle(cyclic_groupoid(2))),
        [(0, 1, 2)]),
}


def bad_horns(full, missing):
    """The horns of ``full`` missing a face, each with one value of one
    present face changed: the n-th present face gets the n-th of its
    single-value corruptions, counted round, so the changed cell moves
    from face to face.  Every face is corrupted once, those inside the
    missing triangle included: they break a diagonal or an edge that the
    filler reads."""
    m = dict(full.m)
    m.pop(missing)
    for turn, key in enumerate(sorted(m)):
        old = m[key]
        changes = [(e, v) for e in old.dom.elements for v in old.cod.elements
                   if v != old(e)]
        e, v = changes[turn % len(changes)]
        bad = Mor(old.dom, old.cod, {**old.table, e: v})
        yield key, NSimplex(full.n, full.X, full.XX, full.r, full.s,
                            {**m, key: bad})


@pytest.mark.parametrize("name", sorted(BAD_HORNS))
def test_bad_horns_fill_and_fail_as_the_old_loops(name, S2):
    """On horns with one corrupted face the fillers are ``old_fillers``',
    and neither raises.  Among the horns are those whose edges are no
    bibundle functors: there the composite of two edges may not exist, so
    the filler must find that an edge check fails before it composes."""
    full, faces = BAD_HORNS[name](S2)
    for missing in faces:
        for key, sx in bad_horns(full, missing):
            assert unique_inner3_check(sx, missing)["fillers"] == old_fillers(
                sx, missing), (missing, key)


@pytest.mark.parametrize("order", [4, 6])
def test_degenerate_horns_of_larger_groups_fill_uniquely(order):
    """Z/4 and Z/6, whose product searches would try 4¹⁶ and 6³⁶ tables:
    each inner face of the degenerate 3-simplex is its only filler."""
    full = degenerate_3_simplex(cyclic_groupoid(order))
    for missing in INNER3:
        sx, wanted = horn(full, missing)
        assert unique_inner3_check(sx, missing)["fillers"] == [wanted]


@pytest.mark.parametrize("kind", ["Z2", "Z3", "pair"])
def test_corrupted_inner_multiplication_keeps_its_witness(kind, Z2, Z3, S2):
    """One wrong value of the inner multiplication m_012 of a degenerate
    3-simplex: the associativity witness is the old loops' first."""
    g = {"Z2": Z2, "Z3": Z3, "pair": pair_groupoid(S2)}[kind]
    full = degenerate_3_simplex(g)
    m = dict(full.m)
    old = m[(0, 1, 2)]
    e = old.dom.elements[-1]
    other = next(v for v in old.cod.elements if v != old(e))
    m[(0, 1, 2)] = Mor(old.dom, old.cod, {**old.table, e: other})
    bad = NSimplex(3, full.X, full.XX, full.r, full.s, m)
    want = first_failure(old_associativity_cases(bad))
    assert want is not None
    found = {f.check: f.witness for f in validate_simplex(bad)}
    assert found["associativity"] == want


def test_bad_simplex_arguments_are_typed_errors(Z2):
    """Indices outside 0..n, maps with the wrong ends and a face that is
    not a missing inner one raise ``BoundaryMismatch``, with or without
    ``python -O``."""
    full = degenerate_3_simplex(Z2)
    low = {k: v for k, v in full.XX.items() if max(k) <= 2}
    with pytest.raises(BoundaryMismatch, match="^edge .* outside 0..2"):
        NSimplex(2, full.X, full.XX, full.r, full.s,
                 {k: v for k, v in full.m.items() if max(k) <= 2})
    with pytest.raises(BoundaryMismatch, match="^face .* outside 0..2"):
        NSimplex(2, full.X, low, full.r, full.s, full.m)
    for part in ("r", "s"):
        maps = dict(getattr(full, part))
        maps[(0, 1)] = identity(Z2.G1)
        args = {"r": full.r, "s": full.s, part: maps}
        with pytest.raises(BoundaryMismatch, match="^%s" % part):
            NSimplex(3, full.X, full.XX, args["r"], args["s"], full.m)
    with pytest.raises(BoundaryMismatch, match="^m"):
        NSimplex(3, full.X, full.XX, full.r, full.s,
                 {**full.m, (0, 1, 2): identity(Z2.G1)})
    with pytest.raises(BoundaryMismatch):
        restrict_simplex([0, 4], full)
    for face in [(0, 1, 3), (1, 1, 2)]:
        with pytest.raises(BoundaryMismatch):
            unique_inner3_check(full, face)


def test_composing_edges_of_corrupted_faces_is_typed(S2):
    """Every single-value corruption of a face of the degenerate pair(S2)
    3-simplex: composing its edges 01 and 13 returns a bibundle or raises
    a ``SiteError``.  Where an action of an edge moves a pair out of the
    middle fibre product, the composite raises ``NotComposable`` naming
    the pair, not a bare ``KeyError``."""
    full = degenerate_3_simplex(pair_groupoid(S2))
    outcomes, messages = Counter(), {}
    for key, old in sorted(full.m.items()):
        for e, v in product(old.dom.elements, old.cod.elements):
            if v == old(e):
                continue
            sx = NSimplex(3, full.X, full.XX, full.r, full.s, {
                **full.m, key: Mor(old.dom, old.cod, {**old.table, e: v})})
            try:
                compose_bibundles(edge_bibundle(sx, 0, 1),
                                  edge_bibundle(sx, 1, 3))
                outcomes["composed"] += 1
            except SiteError as exc:
                outcomes[type(exc).__name__] += 1
                messages[key, e, v] = str(exc)
    assert outcomes == {"composed": 344, "BoundaryEquationFails": 72,
                        "NotComposable": 64}
    assert messages[(0, 0, 1), "a|a|a|a", "a|b"] == (
        "(a|b, a|a) leaves the middle fibre product")
