"""Functors, natural transformations, bisections, and anafunctors.

An anafunctor from G to H is a span: a cover p: X -> G0 together with a
functor from the pulled-back groupoid G(X) to H.  Composition, the
2-arrows between anafunctors, and the equivalence test (fully faithful +
essentially surjective, with a constructed isomorphism witness) live
here.
"""

from .site_core import (Mor, NotAMorphism, SiteError, all_maps, backtrack,
                        compose, descend, fibre_product, first_failure,
                        group_by, identity, inverse, is_cover, is_iso,
                        pair_id, require, witness_finding)
from .groupoid import pullback_groupoid


class NotComposable(SiteError):
    pass


class NotAFunctor(SiteError):
    pass


class NotNatural(SiteError):
    pass


class Functor:
    def __init__(self, src, dst, F0, F1):
        assert F0.dom == src.G0 and F0.cod == dst.G0
        assert F1.dom == src.G1 and F1.cod == dst.G1
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
        assert from_.src == to.src and from_.dst == to.dst
        assert phi.dom == from_.src.G0 and phi.cod == from_.dst.G1
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
    assert phi.dom == g.G0 and phi.cod == g.G1
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
    assert is_iso(alpha)
    ainv = inverse(alpha)
    return Mor(g.G0, g.G1, {x: g.i(phi(ainv(x))) for x in g.objects()})


def functor_surjectivity_tests(F):
    """Essential surjectivity: (x, h) -> s(h) on G0 x_{H0} H1 is a cover.
    Full faithfulness: g -> (r(g), F1(g), s(g)) into the arrow span is an
    isomorphism.  Returns both flags, both maps and the fibre product
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
            "fully_faithful": is_iso(ff_map),
            "es_map": es_map, "ff_map": ff_map, "D": D}


class Anafunctor:
    """A cover p: X -> G0 plus a functor from the pulled-back groupoid."""

    def __init__(self, src, dst, p, F, gx=None, hyper=None):
        assert is_cover(p) and p.cod == src.G0
        if gx is None:
            gx, hyper = pullback_groupoid(src, p)
        assert F.src == gx and F.dst == dst
        self.src, self.dst = src, dst
        self.X, self.p, self.F = p.dom, p, F
        self.gx, self.hyper = gx, hyper

    def F0(self, x):
        return self.F.F0(x)

    def F1t(self, x1, h, x2):
        """Evaluate the functor on the arrow (x1, h, x2)."""
        return self.F.F1(self.gx.triple_index[(x1, h, x2)])

    def __repr__(self):
        return "Anafunctor(|X|=%d, %r -> %r)" % (len(self.X), self.src,
                                                 self.dst)


def identity_anafunctor(g):
    gx, hyper = pullback_groupoid(g, identity(g.G0))
    return Anafunctor(g, g, identity(g.G0), hyper, gx, hyper)


def anafunctor_from_functor(F):
    g = F.src
    gx, hyper = pullback_groupoid(g, identity(g.G0))
    return Anafunctor(g, F.dst, identity(g.G0),
                      compose_functors(F, hyper), gx, hyper)


def compose_anafunctors(b, a):
    """b after a; the carrier is the fibre product of a's object map with
    b's cover."""
    if a.dst != b.src:
        raise NotComposable("anafunctor boundaries do not match")
    FP = fibre_product(a.F.F0, b.p)
    p13 = compose(a.p, FP.pr1)
    gx13, hyper13 = pullback_groupoid(a.src, p13)
    F0 = compose(b.F.F0, FP.pr2)
    table = {}
    for e, (z1, g, z2) in gx13.triples.items():
        x1, y1 = FP.pairing[z1]
        x2, y2 = FP.pairing[z2]
        hmid = a.F1t(x1, g, x2)
        table[e] = b.F1t(y1, hmid, y2)
    F13 = Functor(gx13, b.dst, F0, Mor(gx13.G1, b.dst.G1, table))
    out = Anafunctor(a.src, b.dst, p13, F13, gx13, hyper13)
    out.fp = FP
    out.factors = (a, b)
    return out


def is_anafunctor_iso(a1, a2, phi):
    """phi: X1 -> X2 commuting with the covers and the functors."""
    return (compose(a2.p, phi) == a1.p
            and all(a2.F0(phi(x)) == a1.F0(x) for x in a1.X.elements)
            and all(a2.F1t(phi(x1), h, phi(x2)) == a1.F1t(x1, h, x2)
                    for x1, h, x2 in a1.gx.triples.values()))


class AnaNat:
    """A 2-arrow between parallel anafunctors: a map on the joint fibre
    product of the carriers, valued in the codomain's arrows."""

    def __init__(self, from_, to, phi, fp=None):
        assert from_.src == to.src and from_.dst == to.dst
        if fp is None:
            fp = fibre_product(from_.p, to.p)
        assert phi.dom == fp.apex and phi.cod == from_.dst.G1
        self.from_, self.to, self.phi, self.fp = from_, to, phi, fp

    def at(self, x1, x2):
        return self.phi(pair_id(x1, x2))


def validate_ananat(t):
    a1, a2 = t.from_, t.to
    h = a1.dst

    fibre1 = group_by(a1.X.elements, a1.p)
    fibre2 = group_by(a2.X.elements, a2.p)

    def naturality_cases():
        for g in a1.src.arrows():
            rg, sg = a1.src.r(g), a1.src.s(g)
            for x1 in fibre1.get(rg, ()):
                for x2 in fibre2.get(rg, ()):
                    for x3 in fibre1.get(sg, ()):
                        for x4 in fibre2.get(sg, ()):
                            lhs = h.mul(t.at(x1, x2), a1.F1t(x1, g, x3))
                            rhs = h.mul(a2.F1t(x2, g, x4), t.at(x3, x4))
                            yield (x1, x2, g, x3, x4), lhs == rhs

    return [
        witness_finding("anchor", first_failure(
            (e, h.s(t.phi(e)) == a1.F0(x1) and h.r(t.phi(e)) == a2.F0(x2))
            for e, (x1, x2) in t.fp.pairing.items())),
        witness_finding("naturality", first_failure(naturality_cases())),
    ]


def identity_ananat(a):
    return iso_to_ananat(a, a, identity(a.X))


def iso_to_ananat(a1, a2, phi):
    """Turn an isomorphism of anafunctors into a 2-arrow."""
    assert is_anafunctor_iso(a1, a2, phi)
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
        assert is_cover(p) and is_cover(q)
        assert p.dom == q.dom
        assert functor.F0 == identity(p.dom)
        assert is_iso(functor.F1)
        require(validate_functor(functor), NotAFunctor)
        self.src, self.dst, self.Z = src, dst, p.dom
        self.p, self.q, self.functor = p, q, functor


def is_ana_equivalence(a):
    """Fully-faithful + essentially-surjective test with a constructed
    isomorphism witness on success."""
    tests = functor_surjectivity_tests(a.F)
    flag = tests["essentially_surjective"] and tests["fully_faithful"]
    if not flag:
        return {"flag": False, "witness": None, "tests": tests}
    g, h = a.src, a.dst
    D, q2 = tests["D"], tests["es_map"]
    Z = D.apex
    p2 = compose(a.p, D.pr1)
    gz, _ = pullback_groupoid(g, p2)
    hz, _ = pullback_groupoid(h, q2)
    tbl = {}
    for e, (z1, gg, z2) in gz.triples.items():
        x1, h1 = D.pairing[z1]
        x2, h2 = D.pairing[z2]
        hmid = h.mul(h.mul(h.inv(h1), a.F1t(x1, gg, x2)), h2)
        tbl[e] = hz.triple_index[(z1, hmid, z2)]
    functor = Functor(gz, hz, identity(Z), Mor(gz.G1, hz.G1, tbl))
    witness = AnaIso(g, h, p2, q2, functor)
    return {"flag": True, "witness": witness, "tests": tests}


def enumerate_functors(g, h):
    """All functors between the groupoids g and h: for each object map, a
    backtracking search over arrow images in which the images of two
    composable arrows force the image of their product.  With candidates
    of the right ends and forced units, this proves ``validate_functor``;
    a leaf is checked only for continuity on finite spaces, by ``Mor``."""
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
        # units are forced
        units = {g.u(x): h.u(F0(x)) for x in g.objects()}
        cand.update((ua, [ub]) for ua, ub in units.items())
        free = [a for a in arrows if a not in units]
        for assign in backtrack(list(units) + free, cand, implied):
            try:
                F1 = Mor(g.G1, h.G1, assign)
            except NotAMorphism:
                continue
            yield Functor(g, h, F0, F1)


def exists_ananat(a1, a2):
    """Is there any 2-arrow between these parallel anafunctors?  (Every
    2-arrow is invertible, so existence is mutual isomorphism.)  Each
    naturality square t(e1)·f1 = f2·t(e2) determines either corner from
    the other."""
    h = a1.dst
    fp = fibre_product(a1.p, a2.p)
    elems = list(fp.apex.elements)
    ends = group_by(h.arrows(), lambda v: (h.s(v), h.r(v)))
    cand = {}
    for e in elems:
        x1, x2 = fp.pairing[e]
        cand[e] = ends.get((a1.F0(x1), a2.F0(x2)))
        if cand[e] is None:
            return None

    # the pairs (x1, x2) of the joint carrier by the base point of x1
    over = group_by(elems, lambda e: a1.p(fp.pairing[e][0]))
    squares = {e: [] for e in elems}
    for g in a1.src.arrows():
        for e1 in over.get(a1.src.r(g), ()):
            x1, x2 = fp.pairing[e1]
            for e2 in over.get(a1.src.s(g), ()):
                x3, x4 = fp.pairing[e2]
                f1, f2 = a1.F1t(x1, g, x3), a2.F1t(x2, g, x4)
                # t(e2) = f2⁻¹·t(e1)·f1 and t(e1) = f2·t(e2)·f1⁻¹
                squares[e1].append((e2, h.i(f2), f1))
                squares[e2].append((e1, f2, h.i(f1)))

    def implied(e, v, assign):
        return [(other, h.mul(h.mul(left, v), right))
                for other, left, right in squares[e]]

    got = next(backtrack(elems, cand, implied), None)
    if got is None:
        return None
    return AnaNat(a1, a2, Mor(fp.apex, h.G1, got), fp)


def has_quasi_inverse(a, cap=4):
    """Bounded search for an anafunctor quasi-inverse: all carriers up to
    the cap, all covers, all functors.  Returns a quasi-inverse or None."""
    from .site_core import Obj
    g, h = a.src, a.dst
    ida = identity_anafunctor(g)
    idb = identity_anafunctor(h)
    for n in range(1, cap + 1):
        if h.G0.backend == "finset":
            Y = Obj("finset", ["y%d" % i for i in range(n)])
        else:
            Y = Obj("fintop", ["y%d" % i for i in range(n)],
                    {("y%d" % i): frozenset(["y%d" % i]) for i in range(n)})
        for q in all_maps(Y, h.G0):
            if not is_cover(q):
                continue
            gy, hy = pullback_groupoid(h, q)
            for F in enumerate_functors(gy, g):
                b = Anafunctor(h, g, q, F, gy, hy)
                c1 = compose_anafunctors(b, a)
                if exists_ananat(c1, ida) is None:
                    continue
                c2 = compose_anafunctors(a, b)
                if exists_ananat(c2, idb) is None:
                    continue
                return b
    return None
