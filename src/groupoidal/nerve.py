"""Simplices of groupoids and bibundles.

An n-simplex is a family of carriers X_i, edge spaces X_ij (i <= j) with
range/source maps and partial multiplications m_ijk; the diagonal data
are groupoids, the edges are bibundle functors between them, and the
inner multiplications descend to isomorphisms from composites.
"""

from itertools import combinations_with_replacement

from .site_core import (BoundaryMismatch, Mor, SiteError, compose,
                        fibre_product, first_failure, group_by, is_cover,
                        is_iso, pair_id, passed, require_ends,
                        witness_finding)
from .groupoid import from_multiplication
from .action import Action, Bibundle, validate_bibundle
from .bundle import check_principal
from .bibundle import (bibundle_isomorphisms, compose_bibundles,
                       composite_fault)


class NotMonotone(SiteError):
    pass


class NSimplex:
    """X: dict i -> Obj; XX: dict (i,j) -> Obj; r, s: dicts (i,j) -> Mor;
    m: dict (i,j,k) -> Mor on the fibre product of s_ij with r_jk.
    Raises BoundaryMismatch on an index outside 0..n or a map whose ends
    are not those of its place.  ``pullbacks`` caches the fibre products
    of r and s; simplices with the same r and s may share it."""

    def __init__(self, n, X, XX, r, s, m, pullbacks=None):
        self.n = n
        self.X, self.XX, self.r, self.s, self.m = X, XX, r, s, m
        self.pullbacks = {} if pullbacks is None else pullbacks
        for (i, j) in XX:
            if not 0 <= i <= j <= n:
                raise BoundaryMismatch("edge %r outside 0..%d" % ((i, j), n))
            require_ends(r[(i, j)], XX[(i, j)], X[i], "r%r" % ((i, j),))
            require_ends(s[(i, j)], XX[(i, j)], X[j], "s%r" % ((i, j),))
        for (i, j, k), mm in m.items():
            if not 0 <= i <= j <= k <= n:
                raise BoundaryMismatch("face %r outside 0..%d"
                                       % ((i, j, k), n))
            require_ends(mm, self.fp(i, j, k).apex, XX[(i, k)],
                         "m%r" % ((i, j, k),))

    def fp(self, i, j, k):
        return self.pullback(("s", (i, j)), ("r", (j, k)))

    def pullback(self, a, b):
        """The fibre product of the maps named a and b, as ("s", (0, 1))."""
        if (a, b) not in self.pullbacks:
            self.pullbacks[(a, b)] = fibre_product(
                getattr(self, a[0])[a[1]], getattr(self, b[0])[b[1]])
        return self.pullbacks[(a, b)]

    def mul(self, i, j, k, x, y):
        return self.m[(i, j, k)](pair_id(x, y))

    def triples(self):
        return list(combinations_with_replacement(range(self.n + 1), 3))

    def __repr__(self):
        return "NSimplex(n=%d)" % self.n


def diagonal_groupoid(sx, i):
    """The groupoid on X_i carried by the diagonal edge, with unit and
    inversion recovered from the multiplication."""
    return from_multiplication(sx.X[i], sx.XX[(i, i)], sx.r[(i, i)],
                               sx.s[(i, i)], sx.m[(i, i, i)])


def edge_bibundle(sx, i, j, gi=None, gj=None):
    """X_ij as a bibundle between the diagonal groupoids."""
    gi = gi or diagonal_groupoid(sx, i)
    gj = gj or diagonal_groupoid(sx, j)
    left = Action(gi, sx.XX[(i, j)], sx.r[(i, j)], sx.m[(i, i, j)],
                  "left", sx.fp(i, i, j))
    right = Action(gj, sx.XX[(i, j)], sx.s[(i, j)], sx.m[(i, j, j)],
                   "right", sx.fp(i, j, j))
    return Bibundle(gi, gj, left, right)


def is_bibundle_functor(b):
    """A bibundle whose right action is principal over its range anchor:
    what each edge of a simplex must be."""
    return passed(validate_bibundle(b)) and passed(
        check_principal(b.right, b.r_anchor))


def validate_simplex(sx):
    """All six structural conditions, then the derived facts: diagonals
    are groupoids, edges are bibundle functors, and the inner
    multiplications descend to isomorphisms from the composites."""
    n = sx.n

    def boundary_cases():
        for (i, j, k) in sx.triples():
            for e, (x, y) in sx.fp(i, j, k).pairing.items():
                v = sx.m[(i, j, k)](e)
                yield (i, j, k, e), (sx.r[(i, k)](v) == sx.r[(i, j)](x) and
                                     sx.s[(i, k)](v) == sx.s[(j, k)](y))

    # each edge space by range: the points composable after a point
    by_range = {e: group_by(sx.XX[e].elements, sx.r[e].table.__getitem__)
                for e in sx.XX}

    def associativity_cases():
        for quad in combinations_with_replacement(range(n + 1), 4):
            i, j, k, l = quad
            for x in sx.XX[(i, j)].elements:
                for y in by_range[(j, k)].get(sx.s[(i, j)](x), ()):
                    xy = sx.mul(i, j, k, x, y)
                    for z in by_range[(k, l)].get(sx.s[(j, k)](y), ()):
                        yield (quad, x, y, z), (
                            sx.mul(i, k, l, xy, z) ==
                            sx.mul(i, j, l, x, sx.mul(j, k, l, y, z)))

    def shear_is_iso(i, j, k, side):
        """(x, y) -> (x, xy) onto the fibre product of the ranges, or
        (x, y) -> (xy, y) onto that of the sources."""
        fp, m = sx.fp(i, j, k), sx.m[(i, j, k)]
        if side == "left":
            cod = sx.pullback(("r", (i, j)), ("r", (i, k)))
        else:
            cod = sx.pullback(("s", (i, k)), ("s", (j, k)))
        try:
            sh = Mor(fp.apex, cod.apex,
                     {e: cod.index[(x, m(e)) if side == "left" else (m(e), y)]
                      for e, (x, y) in fp.pairing.items()})
        except KeyError:
            return False
        return is_iso(sh)

    out = [
        witness_finding("range-covers", first_failure(
            ((i, j), is_cover(sx.r[(i, j)])) for (i, j) in sx.XX)),
        witness_finding("diagonal-source-covers", first_failure(
            (i, is_cover(sx.s[(i, i)])) for i in range(n + 1))),
        witness_finding("boundary-equations", first_failure(boundary_cases())),
        witness_finding("associativity", first_failure(associativity_cases())),
        witness_finding("left-shear-iso", first_failure(
            ((i, j, k), shear_is_iso(i, j, k, "left"))
            for (i, j, k) in sx.triples() if i == j or j == k)),
        witness_finding("right-shear-iso", first_failure(
            ((i, j, k), shear_is_iso(i, j, k, "right"))
            for (i, j, k) in sx.triples() if j == k)),
    ]
    if not passed(out):
        return out

    def attempts(keys, make):
        """(witness, ok) cases for make(*key): a key fails when make
        returns False or raises, with the error message in the witness."""
        for key in keys:
            try:
                ok, msg = make(*key), ""
            except SiteError as exc:
                ok, msg = False, str(exc)
            yield key + (msg,), ok

    groupoids, edges = {}, {}

    def diagonal(i):
        groupoids[i] = diagonal_groupoid(sx, i)
        return True

    def edge(i, j):
        edges[(i, j)] = edge_bibundle(sx, i, j, groupoids[i], groupoids[j])
        return is_bibundle_functor(edges[(i, j)])

    def descends_to_iso(i, j, k):
        fault = composite_fault(
            compose_bibundles(edges[(i, j)], edges[(j, k)]), edges[(i, k)],
            sx.m[(i, j, k)])
        if fault == "not invariant":
            return (i, j, k, fault), False
        return (i, j, k), fault is None

    out.append(witness_finding("diagonals-are-groupoids", first_failure(
        attempts([(i,) for i in range(n + 1)], diagonal))))
    if not out[-1].ok:
        return out
    out.append(witness_finding("edges-are-bibundle-functors", first_failure(
        attempts(list(sx.XX), edge))))
    if not out[-1].ok:
        return out
    out.append(witness_finding(
        "inner-multiplications-descend-to-isos", first_failure(
            descends_to_iso(i, j, k) for (i, j, k) in sx.triples()
            if i < j < k)))
    return out


def restrict_simplex(phi, sx):
    """Reindex along an order-preserving map {0..n} -> {0..m} given as a
    list of values."""
    phi = list(phi)
    if any(a > b for a, b in zip(phi, phi[1:])):
        raise NotMonotone(phi)
    n = len(phi) - 1
    if not all(0 <= v <= sx.n for v in phi):
        raise BoundaryMismatch("%r leaves 0..%d" % (phi, sx.n))
    X = {i: sx.X[phi[i]] for i in range(n + 1)}
    XX, r, s, m = {}, {}, {}, {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            XX[(i, j)] = sx.XX[(phi[i], phi[j])]
            r[(i, j)] = sx.r[(phi[i], phi[j])]
            s[(i, j)] = sx.s[(phi[i], phi[j])]
            for k in range(j, n + 1):
                m[(i, j, k)] = sx.m[(phi[i], phi[j], phi[k])]
    return NSimplex(n, X, XX, r, s, m)


def simplex_from_groupoid(g):
    return build_simplex([g], {}, {})


def simplex_from_bibundle(b):
    """A 1-simplex from a bibundle functor."""
    return build_simplex([b.g, b.h], {(0, 1): b}, {})


def build_simplex(groupoids, edges, inner):
    """Assemble a fully expanded simplex from groupoids 0..n, bibundle
    functors for i < j, and inner multiplications for i < j < k."""
    n = len(groupoids) - 1
    X = {i: groupoids[i].G0 for i in range(n + 1)}
    XX, r, s, m = {}, {}, {}, {}
    for i in range(n + 1):
        XX[(i, i)] = groupoids[i].G1
        r[(i, i)] = groupoids[i].r
        s[(i, i)] = groupoids[i].s
        m[(i, i, i)] = groupoids[i].m
    for (i, j), b in edges.items():
        XX[(i, j)] = b.X
        r[(i, j)] = b.r_anchor
        s[(i, j)] = b.s_anchor
        m[(i, i, j)] = b.left.mult
        m[(i, j, j)] = b.right.mult
    for key, mm in inner.items():
        m[key] = mm
    return NSimplex(n, X, XX, r, s, m)


def horn_fill_inner2(x01, x12):
    """Fill the inner horn of two composable bibundle functors with their
    composite and the quotient map."""
    c = compose_bibundles(x01, x12)
    sx = build_simplex([x01.g, x01.h, x12.h],
                       {(0, 1): x01, (1, 2): x12, (0, 2): c},
                       {(0, 1, 2): c.middle_proj})
    sx.composite = c
    return sx


def unique_inner3_check(sx, missing):
    """Every map that completes the missing inner multiplication (i, j, k)
    to a valid simplex.  A completion must descend to an isomorphism of
    bibundles from the composite of the edges ij and jk onto ik, so the
    candidates are those isomorphisms after the composite's orbit map,
    each validated with the whole simplex.  There are none when a
    diagonal is no groupoid or an edge no bibundle functor."""
    i, j, k = missing
    if not i < j < k or missing in sx.m:
        raise BoundaryMismatch("%r is not a missing inner face" % (missing,))
    try:
        g = {a: diagonal_groupoid(sx, a) for a in missing}
    except SiteError:
        return {"fillers": []}
    ij, jk, ik = (edge_bibundle(sx, a, b, g[a], g[b])
                  for a, b in ((i, j), (j, k), (i, k)))
    if not all(map(is_bibundle_functor, (ij, jk, ik))):
        return {"fillers": []}
    c = compose_bibundles(ij, jk)
    fillers = []
    for f in bibundle_isomorphisms(c, ik):
        mm = compose(f, c.middle_proj)
        full = NSimplex(sx.n, sx.X, sx.XX, sx.r, sx.s, {**sx.m, missing: mm},
                        sx.pullbacks)
        if passed(validate_simplex(full)):
            fillers.append(mm)
    return {"fillers": fillers}
