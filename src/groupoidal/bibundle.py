"""Classification and calculus of bibundles.

Flags, conversions to and from functors and anafunctors, composition with
associators and unitors, duals, inverses, actor decomposition and
imprimitivity.  Quotient carriers are named by least-id representatives,
so a class id is always an element of the space being quotiented.

The calculus is built from two moves: ``balanced_product`` forms the
fibre product X x_{H0} Y of a right and a left H-action with its diagonal
H-action, whose orbit space is X x_H Y, and ``site_core.descend`` turns a
map that is constant on orbits into a map out of the orbit space.
"""

from .site_core import (BoundaryMismatch, Mor, NotAMorphism, NotWellDefined,
                        SiteError, backtrack, compose, descend, fibre_product,
                        first_failure, group_by, identity, is_cover, is_iso,
                        passed, require, triple_product, witness_finding)
from .action import (Bibundle, NotAnActor, build_action, is_invariant,
                     on_side, opposite, transformation_groupoid,
                     translations, two_sided_transformation_groupoid,
                     unit_bibundle, validate_bibundle)
from .bundle import (NotBasic, NotPrincipal, PrincipalBundle, check_principal,
                     is_basic, orbit_space)
from .morphism import NotComposable


class MiddleMismatch(SiteError):
    pass


class NotABibundleFunctor(SiteError):
    pass


class NotAnEquivalence(SiteError):
    pass


def classify(x):
    """The four flags of a bibundle: functor, covering, actor,
    equivalence."""
    right_principal_over_r = passed(check_principal(x.right, x.r_anchor))
    s_cover = is_cover(x.s_anchor)
    is_functor = right_principal_over_r
    is_covering = is_functor and s_cover
    is_actor = actor_orbits(x) is not None
    is_equivalence = is_covering and passed(
        check_principal(x.left, x.s_anchor))
    return {"is_functor": is_functor, "is_covering": is_covering,
            "is_actor": is_actor, "is_equivalence": is_equivalence}


def actor_orbits(x):
    """``is_basic`` of x's right action when x is an actor (that action
    basic and the source anchor a cover), else None."""
    res = is_basic(x.right)
    return res if res["flag"] and is_cover(x.s_anchor) else None


def validate_bibundle_map(x, y, f):
    """An equivariant map of bibundles over both anchors."""
    return [
        witness_finding("anchors-over", first_failure(
            (e, y.r_anchor(f(e)) == x.r_anchor(e)
             and y.s_anchor(f(e)) == x.s_anchor(e))
            for e in x.X.elements)),
        witness_finding("left-equivariance", first_failure(
            (e, f(x.lact(gel, xe)) == y.lact(gel, f(xe)))
            for e, (gel, xe) in x.left.pairs.pairing.items())),
        witness_finding("right-equivariance", first_failure(
            (e, f(x.ract(xe, hel)) == y.ract(f(xe), hel))
            for e, (xe, hel) in x.right.pairs.pairing.items())),
    ]


def dual(x):
    """Exchange the anchors; h·x·g becomes g⁻¹·x·h⁻¹."""
    return Bibundle(x.h, x.g, opposite(x.right), opposite(x.left))


def functor_to_bibundle(F, Y=None):
    """The bibundle G0 x_{F0, H0, r} H1 of a functor, with the optional
    generalization that replaces the arrows of H by an H-carrier Y, read
    as a left action.  Raises NotAFunctor, naming the failing checks, when
    ``F`` is not a functor."""
    from .morphism import NotAFunctor, validate_functor
    require(validate_functor(F), NotAFunctor)
    g, h = F.src, F.dst
    generalized = Y is not None
    Y = on_side(Y, "left") if generalized else translations(h)[0]
    assert Y.g == h
    FP = fibre_product(F.F0, Y.anchor)

    def lrule(w, gel):
        return FP.index[(g.r(gel), Y.apply(FP.pairing[w][1], F.F1(gel)))]

    left = build_action(g, FP.apex, FP.pr1, "left", lrule)
    if generalized:
        # generalized pullback of an H-carrier: just the induced G-action
        left.fp = FP
        return left

    def rrule(w, hel):
        x0, k = FP.pairing[w]
        return FP.index[(x0, h.mul(k, hel))]

    right = build_action(h, FP.apex, compose(h.s, FP.pr2), "right", rrule)
    out = Bibundle(g, h, left, right)
    out.F = F
    out.fp = FP
    return out


def actor_to_bibundle(a):
    """An actor as a bibundle on the arrows of its target."""
    return Bibundle(a.g, a.h, a.action, translations(a.h)[1])


def bibundle_to_anafunctor(x):
    """The anafunctor (X, r, F_X) of a bibundle functor; the arrow part
    solves g·x1 · F_X = x2 in the principal right action.

    The isomorphism between the pullback groupoid over r and the
    two-sided transformation groupoid is built and attached as
    ``two_sided_iso``.
    """
    try:
        bundle = PrincipalBundle(x.right, x.r_anchor)
    except NotPrincipal:
        raise NotABibundleFunctor(
            "right action not principal over r") from None
    from .groupoid import pullback_groupoid
    from .morphism import Anafunctor, Functor
    g, h = x.g, x.h
    gx, hyper = pullback_groupoid(g, x.r_anchor)
    f1tab = {}
    for e, (x1, gel, x2) in gx.triples.items():
        xm = x.lact(g.i(gel), x1)
        f1tab[e] = bundle.solve(xm, x2)
    F = Functor(gx, h, x.s_anchor, Mor(gx.G1, h.G1, f1tab))
    ana = Anafunctor(g, h, x.r_anchor, F, gx, hyper)
    # two-sided transformation groupoid matches the pullback groupoid
    t = two_sided_transformation_groupoid(x)
    itab = {e: gx.triple_index[(x.lact(gel, xe), gel, x.ract(xe, hel))]
            for e, (gel, xe, hel) in t.triples.items()}
    ana.two_sided_iso = Functor(t, gx, identity(x.X), Mor(t.G1, gx.G1, itab))
    ana.bundle = bundle
    return ana


def beta_ana_to_bibundle(a):
    """The bibundle of an anafunctor: the orbit space of the canonical
    right action of the pullback groupoid on G1 x X x H1 triples, with
    the surviving outer G- and H-actions."""
    g, h = a.src, a.dst
    gx = a.gx
    T, triples, index = triple_product(g.s, a.p, a.F.F0, h.r)
    anchor = Mor(T, gx.G0, {e: xe for e, (gel, xe, hel) in triples.items()})

    def mrule(te, ae):
        g1, _, hel = triples[te]
        _, g2, x2 = gx.triples[ae]
        return index[(g.mul(g1, g2), x2, h.mul(h.i(a.F.F1(ae)), hel))]

    act = build_action(gx, T, anchor, "right", mrule)
    coeq = orbit_space(act)
    Z = coeq.quotient

    def cls(gel, xe, hel):
        return coeq.proj(index[(gel, xe, hel)])

    def lrule(c, gel):
        g1, xe, hel = triples[c]
        return cls(g.mul(gel, g1), xe, hel)

    def rrule(c, hel):
        g1, xe, h1 = triples[c]
        return cls(g1, xe, h.mul(h1, hel))

    l_anchor = descend(Z, g.G0, ((coeq.proj(e), g.r(gel))
                                 for e, (gel, xe, hel) in triples.items()))
    left = build_action(g, Z, l_anchor, "left", lrule)
    r_anchor = Mor(Z, h.G0, {c: h.s(triples[c][2]) for c in Z.elements})
    right = build_action(h, Z, r_anchor, "right", rrule)
    out = Bibundle(g, h, left, right)
    out.triples = triples
    out.triple_index = index
    out.triple_proj = coeq.proj
    return out


def cech_equivalence(p, q=None):
    """The canonical equivalence bibundle between the kernel-pair
    groupoids of two covers with the same codomain, carried by the fibre
    product of the covers.  With one argument the second groupoid is the
    trivial groupoid on the codomain."""
    from .groupoid import cech_groupoid, unit_groupoid
    from .site_core import identity
    if q is None:
        q = identity(p.cod)
    if p.cod != q.cod:
        raise BoundaryMismatch("the two covers must share a codomain")
    g = cech_groupoid(p)
    h = unit_groupoid(q.dom) if is_iso(q) else cech_groupoid(q)
    FP = fibre_product(p, q)

    def lrule(w, ar):
        return FP.index[(g.kernel.pairing[ar][0], FP.pairing[w][1])]

    def rrule(w, ar):
        y2 = h.s(ar) if h.G1 == h.G0 else h.kernel.pairing[ar][1]
        return FP.index[(FP.pairing[w][0], y2)]

    left = build_action(g, FP.apex, FP.pr1, "left", lrule)
    right = build_action(h, FP.apex, FP.pr2, "right", rrule)
    return Bibundle(g, h, left, right)


def roundtrip_beta(x):
    """For a bibundle functor, the isomorphism from the bibundle of its
    anafunctor back to the bibundle itself: a class of (g, x, h) maps to
    g·x·h."""
    ana = bibundle_to_anafunctor(x)
    b = beta_ana_to_bibundle(ana)
    iso = descend(b.X, x.X, ((b.triple_proj(e), x.ract(x.lact(gel, xe), hel))
                             for e, (gel, xe, hel) in b.triples.items()))
    return {"beta": b, "iso": iso, "ana": ana}


def roundtrip_ananat(a):
    """The canonical invertible 2-arrow from the anafunctor of the
    bibundle of `a` back to `a`."""
    from .morphism import AnaNat
    b = beta_ana_to_bibundle(a)
    a2 = bibundle_to_anafunctor(b)
    h = a.dst
    fp = fibre_product(a2.p, a.p)
    tbl = {}
    for e, (c, xt) in fp.pairing.items():
        gel, xe, hel = b.triples[c]
        arrow = a.gx.triple_index[(xt, gel, xe)]
        tbl[e] = h.mul(a.F.F1(arrow), hel)
    return AnaNat(a2, a, Mor(fp.apex, h.G1, tbl), fp)


def balanced_product(x, y):
    """The fibre product X x_{H0} Y of a right H-action x and an H-action
    y, read as a left action, with the diagonal right action
    (x, y)·h = (x·h, h⁻¹·y) whose orbit space is the balanced product
    X x_H Y.  Returns the fibre product and the diagonal action."""
    i = x.g.i
    y = on_side(y, "left")
    FP = fibre_product(x.anchor, y.anchor)

    def rule(w, hel):
        xe, ye = FP.pairing[w]
        return FP.index[(x.apply(xe, hel), y.apply(ye, i(hel)))]

    return FP, x.on(FP.apex, compose(x.anchor, FP.pr1), rule)


def descended_left(x, FP, coeq):
    """The left action of x's G on the orbit space ``coeq`` of a balanced
    product FP of x's right action: g·[xe, ye] = [g·xe, ye]."""
    Z = coeq.quotient

    def rule(c, gel):
        xe, ye = FP.pairing[c]
        return coeq.proj(FP.index[(x.lact(gel, xe), ye)])

    l_anchor = Mor(Z, x.g.G0,
                   {c: x.r_anchor(FP.pairing[c][0]) for c in Z.elements})
    return x.left.on(Z, l_anchor, rule)


def quotient_by_middle(x, y):
    """The balanced product of x's right action with y, checked to be a
    basic action, and x's left action descended to its orbit space.
    Returns the fibre product, the ``is_basic`` result and the left
    action; raises NotComposable when the diagonal action is not basic."""
    FP, diag = balanced_product(x.right, y)
    res = is_basic(diag)
    if not res["flag"]:
        raise NotComposable("middle action is not basic")
    return FP, res, descended_left(x, FP, res["orbits"])


def compose_bibundles(x, y):
    """The orbit space of the diagonal middle action on the fibre product
    of carriers, with the surviving outer actions.

    The middle action is always checked to be basic directly.
    """
    if x.h != y.g:
        raise MiddleMismatch("middle groupoids differ")
    FP, res, left = quotient_by_middle(x, y.left)
    coeq = res["orbits"]
    Z = coeq.quotient

    def rule(c, kel):
        xe, ye = FP.pairing[c]
        return coeq.proj(FP.index[(xe, y.ract(ye, kel))])

    r_anchor = Mor(Z, y.h.G0,
                   {c: y.s_anchor(FP.pairing[c][1]) for c in Z.elements})
    out = Bibundle(x.g, y.h, left, y.right.on(Z, r_anchor, rule))
    out.middle = FP
    out.middle_proj = coeq.proj
    out.middle_coeq = coeq
    out.middle_bundle = res["bundle"]
    out.factors = (x, y)
    return out


def composite_class(c, xe, ye):
    """Class id of a factor pair in a composite bibundle."""
    return c.middle_proj(c.middle.index[(xe, ye)])


def induced_composite_map(c1, c2, f, g):
    """f x g on composites, descending [x, y] to [f x, g y]."""
    return descend(c1.X, c2.X,
                   ((c1.middle_proj(e), composite_class(c2, f(xe), g(ye)))
                    for e, (xe, ye) in c1.middle.pairing.items()))


def associator(x, y, z):
    """The canonical isomorphism (x∘y)∘z ≅ x∘(y∘z)."""
    c1 = compose_bibundles(x, y)
    c12 = compose_bibundles(c1, z)
    c2 = compose_bibundles(y, z)
    c21 = compose_bibundles(x, c2)
    over = group_by(z.X.elements, z.r_anchor)
    iso = descend(c12.X, c21.X, (
        (composite_class(c12, c1.middle_proj(e), ze),
         composite_class(c21, xe, composite_class(c2, ye, ze)))
        for e, (xe, ye) in c1.middle.pairing.items()
        for ze in over.get(y.s_anchor(ye), ())))
    return {"iso": iso, "left": c12, "right": c21}


def left_unitor(x):
    """G1 ∘ x ≅ x by acting."""
    u = unit_bibundle(x.g)
    c = compose_bibundles(u, x)
    iso = descend(c.X, x.X, ((c.middle_proj(e), x.lact(gel, xe))
                             for e, (gel, xe) in c.middle.pairing.items()))
    return {"iso": iso, "composite": c, "unit": u}


def right_unitor(x):
    """x ∘ H1 ≅ x by acting."""
    u = unit_bibundle(x.h)
    c = compose_bibundles(x, u)
    iso = descend(c.X, x.X, ((c.middle_proj(e), x.ract(xe, hel))
                             for e, (xe, hel) in c.middle.pairing.items()))
    return {"iso": iso, "composite": c, "unit": u}


def check_inverse(x):
    """For an equivalence, the canonical isomorphisms x∘x* ≅ G1 and
    x*∘x ≅ H1 by solving the principal-bundle equations."""
    try:
        rb = PrincipalBundle(x.right, x.r_anchor)
        lb = PrincipalBundle(x.left, x.s_anchor)
    except NotPrincipal:
        raise NotAnEquivalence("bibundle is not an equivalence") from None
    g, h = x.g, x.h
    xd = dual(x)
    c1 = compose_bibundles(x, xd)
    # the unique g with g·x2 = x1
    iso1 = descend(c1.X, g.G1, ((c1.middle_proj(e), lb.solve(x2, x1))
                                for e, (x1, x2) in c1.middle.pairing.items()))
    c2 = compose_bibundles(xd, x)
    # the unique h with x1·h = x2
    iso2 = descend(c2.X, h.G1, ((c2.middle_proj(e), rb.solve(x1, x2))
                                for e, (x1, x2) in c2.middle.pairing.items()))
    return {"iso1": iso1, "iso2": iso2, "c1": c1, "c2": c2}


def decompose_actor(x):
    """Split a bibundle actor G–H into an actor onto an intermediate
    groupoid K built from H-orbits of carrier pairs, followed by a K–H
    bibundle equivalence carried by the original carrier."""
    from .action import Actor
    from .groupoid import build_groupoid
    g, h = x.g, x.h
    res = actor_orbits(x)
    if res is None:
        raise NotAnActor("bibundle is not an actor")
    bundle = res["bundle"]
    p = bundle.proj
    K0 = bundle.Z
    # X x_H X: read as a left action, the right action turns h⁻¹·x2 into
    # x2·h, so the diagonal action is (x1, x2)·h = (x1·h, x2·h)
    XX, diag = balanced_product(x.right, x.right)
    coeq = orbit_space(diag)
    K1 = coeq.quotient

    def cls(x1, x2):
        return coeq.proj(XX.index[(x1, x2)])

    def decode(c):
        return XX.pairing[c]

    def mul(a, b):
        x1, x2 = decode(a)
        y1, y2 = decode(b)
        return cls(x1, x.ract(y2, bundle.solve(y1, x2)))

    rep_of_obj = {p(xe): xe for xe in x.X.elements}
    K = build_groupoid(
        K0, K1, Mor(K1, K0, {c: p(decode(c)[0]) for c in K1.elements}),
        Mor(K1, K0, {c: p(decode(c)[1]) for c in K1.elements}), mul,
        lambda c: cls(rep_of_obj[c], rep_of_obj[c]),
        lambda c: cls(*decode(c)[::-1]))

    def krule(xe, c):
        x1, x2 = decode(c)
        return x.ract(x1, bundle.solve(x2, xe))

    actor = Actor(g, K, descended_left(x, XX, coeq))
    leftK = build_action(K, x.X, p, "left", krule)
    equiv = Bibundle(K, h, leftK, x.right)

    actor_bib = actor_to_bibundle(actor)
    c = compose_bibundles(actor_bib, equiv)
    iso = descend(c.X, x.X, ((c.middle_proj(e), equiv.lact(ke, xe))
                             for e, (ke, xe) in c.middle.pairing.items()))
    return {"k": K, "actor": actor, "equiv": equiv,
            "actor_bibundle": actor_bib, "iso": iso, "composite": c}


def imprimitivity(x):
    """A bibundle with both actions basic carries an equivalence between
    the transformation groupoids of the descended actions on the two
    orbit spaces."""
    g, h = x.g, x.h
    res_r = is_basic(x.right)
    if not res_r["flag"]:
        raise NotBasic("right")
    res_l = is_basic(x.left)
    if not res_l["flag"]:
        raise NotBasic("left")
    ql = res_r["orbits"].proj          # X -> X/H
    qr = res_l["orbits"].proj          # X -> G\X
    XH, GX = ql.cod, qr.cod

    l_anchor = descend(XH, g.G0,
                       ((ql(xe), x.r_anchor(xe)) for xe in x.X.elements))
    A = transformation_groupoid(x.left.on(
        XH, l_anchor, lambda c, gel: ql(x.lact(gel, c))))

    r_anchor = descend(GX, h.G0,
                       ((qr(xe), x.s_anchor(xe)) for xe in x.X.elements))
    B = transformation_groupoid(x.right.on(
        GX, r_anchor, lambda c, hel: qr(x.ract(c, hel))))

    # an arrow of A or B is a cell (orbit, arrow of G or H)
    leftA = build_action(A, x.X, ql, "left",
                         lambda xe, ae: x.lact(A.parts[ae][1], xe))
    rightB = build_action(B, x.X, qr, "right",
                          lambda xe, be: x.ract(xe, B.parts[be][1]))
    out = Bibundle(A, B, leftA, rightB)
    out.A, out.B = A, B
    out.left_quotient, out.right_quotient = ql, qr
    return out


def composite_witness(x, y, w, m):
    """True iff the invariant equivariant map m on the middle fibre
    product presents w as the composite of x and y."""
    if x.h != y.g or x.g != w.g or y.h != w.h:
        raise BoundaryMismatch("bibundle chain does not match w")
    FP, diag = balanced_product(x.right, y.left)
    if m.dom != FP.apex or m.cod != w.X:
        raise BoundaryMismatch("m must go from the middle fibre product to w")
    if not is_invariant(diag, m):
        return False
    # equivariance on the two outer sides
    for e, (xe, ye) in FP.pairing.items():
        for gel in x.g.arrows():
            if x.g.s(gel) == x.r_anchor(xe):
                e2 = FP.index[(x.lact(gel, xe), ye)]
                if m(e2) != w.lact(gel, m(e)):
                    return False
        for kel in y.h.arrows():
            if y.h.r(kel) == y.s_anchor(ye):
                e2 = FP.index[(xe, y.ract(ye, kel))]
                if m(e2) != w.ract(m(e), kel):
                    return False
        if w.r_anchor(m(e)) != x.r_anchor(xe) or \
                w.s_anchor(m(e)) != y.s_anchor(ye):
            return False
    c = compose_bibundles(x, y)
    try:
        induced = descend(c.X, w.X, ((c.middle_proj(e), m(e))
                                     for e in FP.apex.elements))
    except NotWellDefined:
        return False
    return is_iso(induced)


def act_on(x, y):
    """Push an H-action y, read as a left action, through a bibundle actor
    to a left G-action on the orbit carrier X x_H Y."""
    if actor_orbits(x) is None:
        raise NotAnActor("bibundle is not an actor")
    if y.g != x.h:
        raise MiddleMismatch("y is not an action of the actor's target")
    FP, res, out = quotient_by_middle(x, y)
    out.middle = FP
    out.middle_proj = res["orbits"].proj
    return out


def bibundle_isomorphic(b1, b2):
    """An isomorphism of bibundles between the same pair of groupoids,
    or None.  Sending x to y sends g·x to g·y and x·h to y·h, and each x
    has the anchors of its candidates: this proves
    ``validate_bibundle_map``.  A leaf is checked only with ``is_iso``, as
    on finite spaces the search does not prove the inverse continuous."""
    if b1.g != b2.g or b1.h != b2.h or len(b1.X) != len(b2.X):
        return None
    xs = list(b1.X.elements)
    ends = group_by(b2.X.elements, lambda y: (b2.r_anchor(y), b2.s_anchor(y)))
    cand = {}
    for xe in xs:
        cand[xe] = ends.get((b1.r_anchor(xe), b1.s_anchor(xe)))
        if cand[xe] is None:
            return None
    lmoves, rmoves = {xe: [] for xe in xs}, {xe: [] for xe in xs}
    for gel, xe in b1.left.pairs.pairing.values():
        lmoves[xe].append((gel, b1.lact(gel, xe)))
    for xe, hel in b1.right.pairs.pairing.values():
        rmoves[xe].append((hel, b1.ract(xe, hel)))

    def implied(xe, ye, assign):
        if any(y == ye and x != xe for x, y in assign.items()):
            return None
        return ([(tgt, b2.lact(gel, ye)) for gel, tgt in lmoves[xe]]
                + [(tgt, b2.ract(ye, hel)) for hel, tgt in rmoves[xe]])

    for assign in backtrack(xs, cand, implied):
        f = Mor(b1.X, b2.X, assign)
        if is_iso(f):
            return f
    return None


def enumerate_bibundles(g, h, max_size=4):
    """All G–H bibundles with a canonically named carrier of at most the
    given size.  Finite-set backend only."""
    from .backends import make_finset
    from .site_core import all_maps
    from .action import enumerate_actions
    assert g.backend == "finset" and h.backend == "finset"
    for n in range(max_size + 1):
        X = make_finset(["y%d" % i for i in range(n)])
        s_anchors = list(all_maps(X, h.G0))
        # the right actions over each s-anchor, enumerated on first use
        rights = [None] * len(s_anchors)
        for r_anchor in all_maps(X, g.G0):
            lefts = list(enumerate_actions(g, X, r_anchor, "left"))
            for j, s_anchor in enumerate(s_anchors):
                if lefts and rights[j] is None:
                    rights[j] = list(enumerate_actions(h, X, s_anchor,
                                                       "right"))
                for left in lefts:
                    for right in rights[j]:
                        b = Bibundle(g, h, left, right)
                        if passed(validate_bibundle(b)):
                            yield b


def brute_force_quasi_inverse(x, cap=4):
    """Search every H–G bibundle with carrier at most cap for a
    two-sided inverse up to bibundle isomorphism."""
    g, h = x.g, x.h
    ug, uh = unit_bibundle(g), unit_bibundle(h)
    for q in enumerate_bibundles(h, g, cap):
        try:
            c1 = compose_bibundles(x, q)
        except (NotComposable, NotAMorphism):
            continue
        if bibundle_isomorphic(c1, ug) is None:
            continue
        try:
            c2 = compose_bibundles(q, x)
        except (NotComposable, NotAMorphism):
            continue
        if bibundle_isomorphic(c2, uh) is None:
            continue
        return q
    return None
