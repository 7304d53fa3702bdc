"""Internal groupoids over a finite site.

A groupoid is the tuple (G0, G1, r, s, m, u, i) with r, s covers and the
usual equations; multiplication lives on the canonical fibre product of
(s, r), so composability of a pair is exactly membership of its pair id
in the domain of m.
"""

from .site_core import (BoundaryMismatch, Mor, NotAMorphism, Obj,
                        SiteError, descend, fibre_product, first_failure,
                        group_by, identity, inverse, is_cover, is_iso,
                        kernel_pair, pair_id, require_cover, require_ends,
                        shear, terminal, to_terminal, triple_product,
                        witness_finding)


class NotAssociative(SiteError):
    pass


class ShearNotIso(SiteError):
    pass


class BoundaryEquationFails(SiteError):
    pass


class OrderOutOfRange(SiteError):
    pass


MAX_CYCLIC_ORDER = 256   # cyclic_groupoid(n) builds n² composable pairs


class Groupoid:
    def __init__(self, G0, G1, r, s, m, u, i, pairs=None):
        require_ends(r, G1, G0, "Groupoid: r")
        require_ends(s, G1, G0, "Groupoid: s")
        require_ends(u, G0, G1, "Groupoid: u")
        require_ends(i, G1, G1, "Groupoid: i")
        if pairs is None:
            pairs = fibre_product(s, r)
        require_ends(m, pairs.apex, G1, "Groupoid: m")
        self.G0, self.G1 = G0, G1
        self.r, self.s, self.m, self.u, self.i = r, s, m, u, i
        self.pairs = pairs
        self.backend = G0.backend

    def mul(self, a, b):
        try:
            return self.m.table[self.pairs.index[a, b]]
        except KeyError:
            raise KeyError(pair_id(a, b)) from None

    def unit(self, x):
        return self.u(x)

    def inv(self, a):
        return self.i(a)

    def arrows(self):
        return self.G1.elements

    def objects(self):
        return self.G0.elements

    def __eq__(self, other):
        if not isinstance(other, Groupoid):
            return NotImplemented
        return (self.G0 == other.G0 and self.G1 == other.G1
                and self.r == other.r and self.s == other.s
                and self.m == other.m and self.u == other.u
                and self.i == other.i)

    def __hash__(self):
        return hash((self.G0, self.G1, self.r, self.s, self.m))

    def __repr__(self):
        return "Groupoid(|G0|=%d, |G1|=%d)" % (len(self.G0), len(self.G1))


def validate_groupoid(g):
    """Check every axiom; returns all failures, not just the first."""
    arrows = g.arrows()
    by_range = group_by(arrows, g.r)
    out = [
        witness_finding("range-cover",
                        None if is_cover(g.r) else "r is not a cover"),
        witness_finding("source-cover",
                        None if is_cover(g.s) else "s is not a cover"),
        witness_finding("mult-range", first_failure(
            (e, g.r(g.m(e)) == g.r(a))
            for e, (a, b) in g.pairs.pairing.items())),
        witness_finding("mult-source", first_failure(
            (e, g.s(g.m(e)) == g.s(b))
            for e, (a, b) in g.pairs.pairing.items())),
        witness_finding("associativity", first_failure(
            ((a, b, c), g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c)))
            for a in arrows for b in by_range.get(g.s(a), ())
            for c in by_range.get(g.s(b), ()))),
        witness_finding("unit-section", first_failure(
            (x, g.r(g.u(x)) == x and g.s(g.u(x)) == x)
            for x in g.objects())),
        witness_finding("left-unit", first_failure(
            (a, g.mul(g.u(g.r(a)), a) == a) for a in arrows)),
        witness_finding("right-unit", first_failure(
            (a, g.mul(a, g.u(g.s(a))) == a) for a in arrows)),
        witness_finding("inverse-boundaries", first_failure(
            (a, g.s(g.i(a)) == g.r(a) and g.r(g.i(a)) == g.s(a))
            for a in arrows)),
        witness_finding("left-inverse", first_failure(
            (a, g.mul(g.i(a), a) == g.u(g.s(a))) for a in arrows)),
        witness_finding("right-inverse", first_failure(
            (a, g.mul(a, g.i(a)) == g.u(g.r(a))) for a in arrows)),
        # derived identities
        witness_finding("unit-idempotent", first_failure(
            (x, g.mul(g.u(x), g.u(x)) == g.u(x)) for x in g.objects())),
        witness_finding("inversion-involutive", first_failure(
            (a, g.i(g.i(a)) == a) for a in arrows)),
        witness_finding("inversion-antihom", first_failure(
            ((a, b), g.i(g.mul(a, b)) == g.mul(g.i(b), g.i(a)))
            for a, b in g.pairs.pairing.values())),
    ]
    try:
        sh1 = shear(g.pairs, g.m, fibre_product(g.s, g.s), 1)
        sh2 = shear(g.pairs, g.m, fibre_product(g.r, g.r), 0)
        out.append(witness_finding(
            "shear-right-iso", None if is_iso(sh1) else "not invertible"))
        out.append(witness_finding(
            "shear-left-iso", None if is_iso(sh2) else "not invertible"))
    except (KeyError, NotAMorphism) as exc:
        out.append(witness_finding("shear-right-iso",
                                   "shear map undefined: %s" % exc))
    out.append(witness_finding(
        "mult-cover", None if is_cover(g.m) else "m is not a cover"))
    return out


def from_multiplication(G0, G1, r, s, m):
    """Recover unit and inversion from multiplication alone.

    The input must satisfy the multiplication-only groupoid description:
    r, s covers, boundary equations, associativity, and both shear maps
    invertible.  Unit and inversion are read off the inverse of the shear
    (x, g) -> (x·g, g), a bijection onto G1 x_s G1: the unit at r(g) is
    the first factor of the preimage of (g, g), the inverse of g that of
    (u(s(g)), g).  Both pairs lie in G1 x_s G1, as s(u(x)) = x, so
    neither read can be missing or doubled; associativity and the other
    shear make the unit depend only on r(g), which ``descend`` checks.
    """
    require_cover(r, "from_multiplication: r")
    require_cover(s, "from_multiplication: s")
    pairs = fibre_product(s, r)
    if m.dom != pairs.apex or m.cod != G1:
        raise BoundaryMismatch("m must go from the composable pairs to G1")

    def mul(a, b):
        return m(pair_id(a, b))

    for e, (a, b) in pairs.pairing.items():
        if r(m(e)) != r(a) or s(m(e)) != s(b):
            raise BoundaryEquationFails("boundary equations fail")
    by_range = group_by(G1.elements, r)
    for a in G1.elements:
        for b in by_range.get(s(a), ()):
            for c in by_range.get(s(b), ()):
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    raise NotAssociative("(%s, %s, %s)" % (a, b, c))
    ss = fibre_product(s, s)
    right = shear(pairs, m, ss, 1)
    if not is_iso(right):
        raise ShearNotIso("(x, g) -> (x·g, g)")
    if not is_iso(shear(pairs, m, fibre_product(r, r), 0)):
        raise ShearNotIso("(g, x) -> (g, g·x)")
    back = inverse(right)

    def factor(a, b):
        """The only x with x·b = a."""
        return pairs.pairing[back(ss.index[(a, b)])][0]

    u = descend(G0, G1, ((r(gel), factor(gel, gel)) for gel in G1.elements))
    i = Mor(G1, G1, {gel: factor(u(s(gel)), gel) for gel in G1.elements})
    return Groupoid(G0, G1, r, s, m, u, i, pairs=pairs)


def build_groupoid(G0, G1, r, s, mul, unit, inv):
    """The groupoid whose multiplication sends each composable pair
    (a, b) to mul(a, b), whose unit sends each object x to unit(x) and
    whose inversion sends each arrow a to inv(a)."""
    pairs = fibre_product(s, r)
    m = Mor(pairs.apex, G1, {e: mul(a, b) for e, (a, b)
                             in pairs.pairing.items()})
    u = Mor(G0, G1, {x: unit(x) for x in G0.elements})
    i = Mor(G1, G1, {a: inv(a) for a in G1.elements})
    return Groupoid(G0, G1, r, s, m, u, i, pairs=pairs)


def unit_groupoid(X):
    """All arrows are units: G1 = G0 = X."""
    idx = identity(X)
    return build_groupoid(X, X, idx, idx, lambda a, b: a, lambda x: x,
                          lambda a: a)


def cech_groupoid(p):
    """The kernel-pair groupoid of a cover p: X -> Y."""
    require_cover(p, "cech_groupoid: p")
    K = kernel_pair(p)
    g = build_groupoid(
        p.dom, K.apex, K.pr1, K.pr2,
        lambda a, b: K.index[(K.pairing[a][0], K.pairing[b][1])],
        lambda x: K.index[(x, x)], lambda e: K.index[K.pairing[e][::-1]])
    g.kernel = K
    return g


def pair_groupoid(X):
    """Čech groupoid of the map to the point: all ordered pairs."""
    return cech_groupoid(to_terminal(X))


def pullback_groupoid(g, p):
    """Arrows are triples (x, h, y) with p(x) = r(h), s(h) = p(y).

    The triple decodings are attached as ``triples`` / ``triple_index``;
    ``morphism.hypercover`` is the functor down to g.
    """
    require_cover(p, "pullback_groupoid: p")
    G1x, triples, index = triple_product(p, g.r, g.s, p)

    def mul(t1, t2):
        x1, h1, _ = triples[t1]
        _, h2, y2 = triples[t2]
        return index[(x1, g.mul(h1, h2), y2)]

    def inv(e):
        x, h, y = triples[e]
        return index[(y, g.inv(h), x)]

    gx = build_groupoid(
        p.dom, G1x, Mor(G1x, p.dom, {e: t[0] for e, t in triples.items()}),
        Mor(G1x, p.dom, {e: t[2] for e, t in triples.items()}), mul,
        lambda x: index[(x, g.unit(p(x)), x)], inv)
    gx.triples = triples
    gx.triple_index = index
    return gx


def cyclic_groupoid(n, backend="finset"):
    """Z/n as a one-object groupoid with arrows 0..n-1."""
    if not 1 <= n <= MAX_CYCLIC_ORDER:
        raise OrderOutOfRange("the order of Z/n is %d, not in 1..%d"
                              % (n, MAX_CYCLIC_ORDER))
    G0 = terminal(backend)
    names = [str(k) for k in range(n)]
    if backend == "finset":
        G1 = Obj("finset", names)
    else:
        G1 = Obj("fintop", names, {x: frozenset([x]) for x in names})
    const = Mor(G1, G0, {x: "*" for x in names})
    return build_groupoid(G0, G1, const, const,
                          lambda a, b: str((int(a) + int(b)) % n),
                          lambda x: "0", lambda a: str((-int(a)) % n))
