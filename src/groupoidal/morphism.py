"""Functors, natural transformations, bisections, and anafunctors.

An anafunctor from G to H is a span: a cover p: X -> G0 together with a
functor from the pulled-back groupoid G(X) to H.  Composition, the
2-arrows between anafunctors, and the equivalence test (fully faithful +
essentially surjective, with a constructed isomorphism witness) live
here.
"""

from .site_core import (BoundaryMismatch, Mor, NotAMorphism, SiteError,
                        all_maps, backtrack, compose, descend, fibre_product,
                        first_failure, group_by, identity, inverse, is_cover,
                        is_iso, pair_id, require, require_cover, require_ends,
                        witness_finding)
from .groupoid import pullback_groupoid


class NotComposable(SiteError):
    pass


class NotAFunctor(SiteError):
    pass


class NotNatural(SiteError):
    pass


class Functor:
    def __init__(self, src, dst, F0, F1):
        require_ends(F0, src.G0, dst.G0, "Functor: F0")
        require_ends(F1, src.G1, dst.G1, "Functor: F1")
        self.src, self.dst, self.F0, self.F1 = src, dst, F0, F1

    def __eq__(self, other):
        if not isinstance(other, Functor):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.F0 == other.F0 and self.F1 == other.F1)

    def __hash__(self):
        return hash((self.F0, self.F1))

    def __repr__(self):
        return "Functor(%r -> %r)" % (self.src, self.dst)


def identity_functor(g):
    return Functor(g, g, identity(g.G0), identity(g.G1))


def validate_functor(F):
    g, h = F.src, F.dst
    f0, f1 = F.F0.table, F.F1.table
    return [
        witness_finding("range-compat", first_failure(
            (a, h.r(f1[a]) == f0[g.r(a)]) for a in g.arrows())),
        witness_finding("source-compat", first_failure(
            (a, h.s(f1[a]) == f0[g.s(a)]) for a in g.arrows())),
        witness_finding("multiplicative", first_failure(
            ((a, b), f1[g.m.table[e]] == h.mul(f1[a], f1[b]))
            for e, (a, b) in g.pairs.pairing.items())),
        witness_finding("unit-preserving", first_failure(
            (x, f1[g.u(x)] == h.u(f0[x])) for x in g.objects())),
    ]


def compose_functors(F2, F1):
    """F2 after F1."""
    if F1.dst != F2.src:
        raise NotComposable("functor boundaries do not match")
    return Functor(F1.src, F2.dst,
                   compose(F2.F0, F1.F0), compose(F2.F1, F1.F1))


class NatTrans:
    """phi: G0 -> H1 from one functor to a parallel one."""

    def __init__(self, from_, to, phi):
        if from_.src != to.src or from_.dst != to.dst:
            raise BoundaryMismatch("NatTrans needs parallel functors")
        require_ends(phi, from_.src.G0, from_.dst.G1, "NatTrans: phi")
        self.from_, self.to, self.phi = from_, to, phi

    def __eq__(self, other):
        if not isinstance(other, NatTrans):
            return NotImplemented
        return (self.from_ == other.from_ and self.to == other.to
                and self.phi == other.phi)

    def __repr__(self):
        return "NatTrans(%r)" % (self.phi.table,)


def validate_nat(t):
    g = t.from_.src
    h = t.from_.dst
    F1, F2 = t.from_, t.to
    return [
        witness_finding("anchor", first_failure(
            (x, h.s(t.phi(x)) == F1.F0(x) and h.r(t.phi(x)) == F2.F0(x))
            for x in g.objects())),
        witness_finding("naturality", first_failure(
            (a, h.mul(t.phi(g.r(a)), F1.F1(a))
             == h.mul(F2.F1(a), t.phi(g.s(a)))) for a in g.arrows())),
    ]


def identity_nat(F):
    return NatTrans(F, F, compose(F.dst.u, F.F0))


def nat_inverse(t):
    """The inverse transformation; raises NotNatural, naming the failing
    checks, when ``t`` is not a natural transformation."""
    require(validate_nat(t), NotNatural)
    return NatTrans(t.to, t.from_, compose(t.from_.dst.i, t.phi))


def compose_nat(mode, a, b):
    """Vertical: a after b on parallel functors; horizontal: a is the
    outer (codomain-side) transformation."""
    if mode == "vertical":
        if b.to != a.from_:
            raise NotComposable("vertical composite undefined")
        h = a.from_.dst
        phi = Mor(b.from_.src.G0, h.G1,
                  {x: h.mul(a.phi(x), b.phi(x))
                   for x in b.from_.src.G0.elements})
        return NatTrans(b.from_, a.to, phi)
    if mode == "horizontal":
        if b.from_.dst != a.from_.src:
            raise NotComposable("horizontal composite undefined")
        k = a.from_.dst
        phi = Mor(b.from_.src.G0, k.G1,
                  {x: k.mul(a.phi(b.to.F0(x)), a.from_.F1(b.phi(x)))
                   for x in b.from_.src.G0.elements})
        return NatTrans(compose_functors(a.from_, b.from_),
                        compose_functors(a.to, b.to), phi)
    raise NotComposable("unknown mode %r" % (mode,))


def ad_bisection(g, phi):
    """Sections of s, their inner automorphisms, and bisections.

    phi: G0 -> G1.  A section picks an arrow out of each object; its
    adjoint functor conjugates arrows by the chosen ones.  A bisection is
    a section whose range composite is invertible.
    """
    require_ends(phi, g.G0, g.G1, "ad_bisection: phi")
    is_section = all(g.s(phi(x)) == x for x in g.objects())
    r_phi = compose(g.r, phi)
    is_bisection = is_section and is_iso(r_phi)
    ad = None
    if is_section:
        F1 = Mor(g.G1, g.G1,
                 {a: g.mul(g.mul(phi(g.r(a)), a), g.i(phi(g.s(a))))
                  for a in g.arrows()})
        ad = Functor(g, g, r_phi, F1)
    return {"is_section": is_section, "is_bisection": is_bisection, "ad": ad}


def section_product(g, p1, p2):
    """(p1 ∘ p2)(x) = p1(r(p2(x))) · p2(x); the group law on sections."""
    return Mor(g.G0, g.G1,
               {x: g.mul(p1(g.r(p2(x))), p2(x)) for x in g.objects()})


def bisection_inverse(g, phi):
    alpha = compose(g.r, phi)
    if not is_iso(alpha):
        raise NotAMorphism("bisection_inverse: r∘phi = %r is not an iso"
                           % (alpha,))
    ainv = inverse(alpha)
    return Mor(g.G0, g.G1, {x: g.i(phi(ainv(x))) for x in g.objects()})


def functor_surjectivity_tests(F):
    """Essential surjectivity: (x, h) -> s(h) on G0 x_{H0} H1 is a cover.
    Full faithfulness: g -> (r(g), F1(g), s(g)) into the arrow span is an
    isomorphism.  Returns both flags, the first map and the fibre product
    ``D`` = G0 x_{H0} H1."""
    g, h = F.src, F.dst
    D = fibre_product(F.F0, h.r)
    es_map = Mor(D.apex, h.G0,
                 {e: h.s(hh) for e, (x, hh) in D.pairing.items()})
    C = fibre_product(compose(h.s, D.pr2), F.F0)
    ff_map = Mor(g.G1, C.apex,
                 {a: C.index[(D.index[(g.r(a), F.F1(a))], g.s(a))]
                  for a in g.arrows()})
    return {"essentially_surjective": is_cover(es_map),
            "fully_faithful": is_iso(ff_map), "es_map": es_map, "D": D}


class Anafunctor:
    """A cover p: X -> G0 plus a functor F from the pulled-back groupoid
    ``gx`` = ``pullback_groupoid(src, p)``, which is F.src."""

    def __init__(self, src, dst, p, F):
        require_cover(p, "Anafunctor: p")
        require_ends(p, F.src.G0, src.G0, "Anafunctor: p")
        if F.dst != dst:
            raise BoundaryMismatch("Anafunctor: F must land in %r" % (dst,))
        r, s, t = src.r.table, src.s.table, getattr(F.src, "triples", None)
        if t is None or any((r.get(g), s.get(g)) != (p(x1), p(x2))
                            for x1, g, x2 in t.values()):
            raise BoundaryMismatch("Anafunctor: F must start at a pullback "
                                   "groupoid of %r over p" % (src,))
        self.src, self.dst = src, dst
        self.X, self.p, self.F = p.dom, p, F
        self.gx = F.src

    def F0(self, x):
        return self.F.F0(x)

    def F1t(self, x1, h, x2):
        """Evaluate the functor on the arrow (x1, h, x2)."""
        return self.F.F1(self.gx.triple_index[(x1, h, x2)])

    def __repr__(self):
        return "Anafunctor(|X|=%d, %r -> %r)" % (len(self.X), self.src,
                                                 self.dst)


def hypercover(g, p):
    """The functor from the pullback groupoid of g along p down to g:
    objects p, arrows the middle projection."""
    gx = pullback_groupoid(g, p)
    return Functor(gx, g, p, Mor(gx.G1, g.G1,
                                 {e: t[1] for e, t in gx.triples.items()}))


def identity_anafunctor(g):
    return Anafunctor(g, g, identity(g.G0), hypercover(g, identity(g.G0)))


def anafunctor_from_functor(F):
    g = F.src
    return Anafunctor(g, F.dst, identity(g.G0),
                      compose_functors(F, hypercover(g, identity(g.G0))))


def compose_anafunctors(b, a):
    """b after a; the carrier is the fibre product of a's object map with
    b's cover."""
    if a.dst != b.src:
        raise NotComposable("anafunctor boundaries do not match")
    FP = fibre_product(a.F.F0, b.p)
    p13 = compose(a.p, FP.pr1)
    gx13 = pullback_groupoid(a.src, p13)
    F0 = compose(b.F.F0, FP.pr2)
    table = {}
    for e, (z1, g, z2) in gx13.triples.items():
        x1, y1 = FP.pairing[z1]
        x2, y2 = FP.pairing[z2]
        hmid = a.F1t(x1, g, x2)
        table[e] = b.F1t(y1, hmid, y2)
    F13 = Functor(gx13, b.dst, F0, Mor(gx13.G1, b.dst.G1, table))
    out = Anafunctor(a.src, b.dst, p13, F13)
    out.fp = FP
    return out


def is_anafunctor_iso(a1, a2, phi):
    """phi: X1 -> X2, a bijection commuting with both covers and functors."""
    return (compose(a2.p, phi) == a1.p and is_iso(phi)
            and all(a2.F0(phi(x)) == a1.F0(x) for x in a1.X.elements)
            and all(a2.F1t(phi(x1), h, phi(x2)) == a1.F1t(x1, h, x2)
                    for x1, h, x2 in a1.gx.triples.values()))


class AnaNat:
    """A 2-arrow between parallel anafunctors: a map on the joint fibre
    product of the carriers, valued in the codomain's arrows."""

    def __init__(self, from_, to, phi, fp=None):
        if from_.src != to.src or from_.dst != to.dst:
            raise BoundaryMismatch("AnaNat needs parallel anafunctors")
        if fp is None:
            fp = fibre_product(from_.p, to.p)
        require_ends(phi, fp.apex, from_.dst.G1, "AnaNat: phi")
        self.from_, self.to, self.phi, self.fp = from_, to, phi, fp

    def at(self, x1, x2):
        return self.phi(pair_id(x1, x2))


def naturality_squares(a1, a2, fp):
    """(g, e1, e2, f1, f2) for each square t(e1)·f1 = f2·t(e2) of a 2-arrow
    on fp = X1 x X2: e1 = (x1, x2) over r(g), e2 = (x3, x4) over s(g),
    f1 = F1(x1, g, x3) and f2 = F2(x2, g, x4)."""
    src = a1.src
    over = group_by(fp.apex.elements, lambda e: a1.p(fp.pairing[e][0]))
    for g in src.arrows():
        for e1 in over.get(src.r(g), ()):
            x1, x2 = fp.pairing[e1]
            for e2 in over.get(src.s(g), ()):
                x3, x4 = fp.pairing[e2]
                yield g, e1, e2, a1.F1t(x1, g, x3), a2.F1t(x2, g, x4)


def validate_ananat(t):
    a1, a2, h, pairing = t.from_, t.to, t.from_.dst, t.fp.pairing
    return [
        witness_finding("anchor", first_failure(
            (e, h.s(t.phi(e)) == a1.F0(x1) and h.r(t.phi(e)) == a2.F0(x2))
            for e, (x1, x2) in pairing.items())),
        witness_finding("naturality", first_failure(
            ((*pairing[e1], g, *pairing[e2]),
             h.mul(t.phi(e1), f1) == h.mul(f2, t.phi(e2)))
            for g, e1, e2, f1, f2 in naturality_squares(a1, a2, t.fp))),
    ]


def identity_ananat(a):
    return iso_to_ananat(a, a, identity(a.X))


def iso_to_ananat(a1, a2, phi):
    """Turn an isomorphism of anafunctors into a 2-arrow; raises
    NotNatural when phi is not one."""
    if not is_anafunctor_iso(a1, a2, phi):
        raise NotNatural("iso_to_ananat: phi = %r is not an isomorphism "
                         "of anafunctors" % (phi,))
    fp = fibre_product(a1.p, a2.p)
    tbl = {e: a2.F1t(x2, a2.src.u(a2.p(x2)), phi(x1))
           for e, (x1, x2) in fp.pairing.items()}
    return AnaNat(a1, a2, Mor(fp.apex, a1.dst.G1, tbl), fp)


def ananat_inverse(t):
    h = t.from_.dst
    fp = fibre_product(t.to.p, t.from_.p)
    tbl = {e: h.inv(t.at(x1, x2)) for e, (x2, x1) in fp.pairing.items()}
    return AnaNat(t.to, t.from_, Mor(fp.apex, h.G1, tbl), fp)


def compose_ananat(mode, a, b):
    """Vertical: a after b; horizontal: a is the outer 2-arrow."""
    if mode == "vertical":
        if b.to is not a.from_ and (b.to.p != a.from_.p
                                    or b.to.F != a.from_.F):
            raise NotComposable("vertical composite undefined")
        af1, af3 = b.from_, a.to
        h = af1.dst
        mid = group_by(b.to.X.elements, b.to.p)
        fp = fibre_product(af1.p, af3.p)
        return AnaNat(af1, af3, descend(fp.apex, h.G1, (
            (e, h.mul(a.at(x2, x3), b.at(x1, x2)))
            for e, (x1, x3) in fp.pairing.items()
            for x2 in mid.get(af1.p(x1), ()))), fp)
    if mode == "horizontal":
        phi, psi = b, a
        c1 = compose_anafunctors(psi.from_, phi.from_)
        c2 = compose_anafunctors(psi.to, phi.to)
        k = psi.from_.dst
        b2 = psi.to
        fibre = group_by(b2.X.elements, b2.p)
        fp = fibre_product(c1.p, c2.p)

        def values():
            for e, (z1, z2) in fp.pairing.items():
                x1, y1 = c1.fp.pairing[z1]
                x2, y2 = c2.fp.pairing[z2]
                for y2p in fibre.get(phi.from_.F0(x1), ()):
                    yield e, k.mul(b2.F1t(y2, phi.at(x1, x2), y2p),
                                   psi.at(y1, y2p))

        return AnaNat(c1, c2, descend(fp.apex, k.G1, values()), fp)
    raise NotComposable("unknown mode %r" % (mode,))


class AnaIso:
    """A common cover of both object spaces with an isomorphism of the
    pulled-back groupoids that is the identity on objects.  Raises
    NotAFunctor, naming the failing checks, when ``functor`` is not one."""

    def __init__(self, src, dst, p, q, functor):
        require_cover(p, "AnaIso: p")
        require_cover(q, "AnaIso: q")
        if q.dom != p.dom or functor.F0 != identity(p.dom):
            raise BoundaryMismatch("AnaIso needs p, q from Z and F0 = 1_Z")
        if not is_iso(functor.F1):
            raise NotAMorphism("AnaIso: F1 = %r is not an iso" % (functor.F1,))
        require(validate_functor(functor), NotAFunctor)
        self.src, self.dst = src, dst
        self.p, self.q, self.functor = p, q, functor


def is_ana_equivalence(a):
    """Fully-faithful + essentially-surjective test with a constructed
    isomorphism witness on success."""
    tests = functor_surjectivity_tests(a.F)
    flag = tests["essentially_surjective"] and tests["fully_faithful"]
    if not flag:
        return {"flag": False, "witness": None}
    g, h = a.src, a.dst
    D, q2 = tests["D"], tests["es_map"]
    Z = D.apex
    p2 = compose(a.p, D.pr1)
    gz = pullback_groupoid(g, p2)
    hz = pullback_groupoid(h, q2)
    tbl = {}
    for e, (z1, gg, z2) in gz.triples.items():
        x1, h1 = D.pairing[z1]
        x2, h2 = D.pairing[z2]
        hmid = h.mul(h.mul(h.inv(h1), a.F1t(x1, gg, x2)), h2)
        tbl[e] = hz.triple_index[(z1, hmid, z2)]
    functor = Functor(gz, hz, identity(Z), Mor(gz.G1, hz.G1, tbl))
    witness = AnaIso(g, h, p2, q2, functor)
    return {"flag": True, "witness": witness}


def enumerate_functors(g, h):
    """All functors between the groupoids g and h: for each object map, a
    backtracking search over arrow images in which the images of two
    composable arrows force the image of their product.  The candidates
    prove range- and source-compat, the forcing multiplicative and, as
    (u, u, u) forces F(u) = F(u)·F(u) and a groupoid's only idempotents
    are units, unit-preserving.  A leaf is checked only for continuity on
    finite spaces, by ``Mor``."""
    arrows = list(g.arrows())
    # the composable triples (a, b, a·b) that each arrow is part of
    touching = {c: [] for c in arrows}
    for e, (a, b) in g.pairs.pairing.items():
        triple = (a, b, g.m(e))
        for c in dict.fromkeys(triple):
            touching[c].append(triple)

    def implied(c, v, assign):
        return [(ab, h.mul(assign[a], assign[b]))
                for a, b, ab in touching[c] if a in assign and b in assign]

    for F0 in all_maps(g.G0, h.G0):
        cand = {a: [b for b in h.arrows()
                    if h.r(b) == F0(g.r(a)) and h.s(b) == F0(g.s(a))]
                for a in arrows}
        if not all(cand.values()):
            continue
        for assign in backtrack(arrows, cand, implied):
            try:
                F1 = Mor(g.G1, h.G1, assign)
            except NotAMorphism:
                continue
            yield Functor(g, h, F0, F1)


def exists_ananat(a1, a2):
    """Is there any 2-arrow between these parallel anafunctors?  (Every
    2-arrow is invertible, so existence is mutual isomorphism.)  Each
    naturality square t(e1)·f1 = f2·t(e2) forces t(e2) from t(e1); as
    functors preserve inverses, the square of g⁻¹ forces t(e1) from t(e2)."""
    h = a1.dst
    fp = fibre_product(a1.p, a2.p)
    elems = list(fp.apex.elements)
    ends = group_by(h.arrows(), lambda v: (h.s(v), h.r(v)))
    cand = {e: ends.get((a1.F0(x1), a2.F0(x2)))
            for e, (x1, x2) in fp.pairing.items()}
    if None in cand.values():
        return None

    squares = {e: [] for e in elems}
    for g, e1, e2, f1, f2 in naturality_squares(a1, a2, fp):
        # t(e2) = f2⁻¹·t(e1)·f1
        squares[e1].append((e2, h.i(f2), f1))

    def implied(e, v, assign):
        return [(other, h.mul(h.mul(left, v), right))
                for other, left, right in squares[e]]

    got = next(backtrack(elems, cand, implied), None)
    if got is None:
        return None
    return AnaNat(a1, a2, Mor(fp.apex, h.G1, got), fp)
