"""Classification and calculus of bibundles.

Flags, conversions to and from functors and anafunctors, composition with
associators and unitors, duals, inverses, actor decomposition and
imprimitivity.  Quotient carriers are named by least-id representatives,
so a class id is always an element of the space being quotiented.

The calculus is built from two moves: ``balanced_product`` forms the
fibre product X x_{H0} Y of a right and a left H-action with its diagonal
H-action, whose orbit space is X x_H Y, and ``site_core.descend`` turns a
map that is constant on orbits into a map out of the orbit space.  The
bibundle of an anafunctor is a composite too, so it takes its middle
orbit space from the same two moves.
"""

from .site_core import (BackendMismatch, BoundaryMismatch, Mor, NotAMorphism,
                        NotWellDefined, SiteError, all_maps, backtrack,
                        compose, descend, fibre_product, group_by, identity,
                        is_cover, is_iso, passed, require, require_ends)
from .backends import make_finset
from .groupoid import (build_groupoid, cech_groupoid, pullback_groupoid,
                       unit_groupoid)
from .action import (Actor, Bibundle, GMap, NotAnActor, bibundle_compat,
                     build_action, enumerate_actions, on_side, opposite,
                     transformation_groupoid, translations,
                     two_sided_transformation_groupoid, unit_bibundle,
                     validate_gmap)
from .bundle import (NotBasic, NotPrincipal, PrincipalBundle, check_principal,
                     is_basic, orbit_space)
from .morphism import (AnaNat, Anafunctor, Functor, NotAFunctor, NotComposable,
                       hypercover, validate_functor)


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
    """An equivariant map of bibundles: a map of the left actions and of
    the right actions, so over both anchors."""
    return (validate_gmap(GMap(x.left, y.left, f))
            + validate_gmap(GMap(x.right, y.right, f)))


def dual(x):
    """Exchange the anchors; h·x·g becomes g⁻¹·x·h⁻¹."""
    return Bibundle(x.h, x.g, opposite(x.right), opposite(x.left))


def pullback_action(F, Y):
    """The left G-action g·(x, y) = (r(g), F1(g)·y) on G0 x_{F0, H0} Y,
    pulled back along a functor F: G -> H from an H-action Y, read as a
    left action; the fibre product is attached as ``fp``.  Raises
    NotAFunctor, naming the failing checks, when ``F`` is not a functor,
    and BoundaryMismatch when Y is not an action of its target."""
    require(validate_functor(F), NotAFunctor)
    g = F.src
    Y = on_side(Y, "left")
    if Y.g != F.dst:
        raise BoundaryMismatch("Y must be an action of the target of F")
    FP = fibre_product(F.F0, Y.anchor)

    def rule(w, gel):
        return FP.index[(g.r(gel), Y.apply(FP.pairing[w][1], F.F1(gel)))]

    out = build_action(g, FP.apex, FP.pr1, "left", rule)
    out.fp = FP
    return out


def functor_to_bibundle(F):
    """The bibundle G0 x_{F0, H0, r} H1 of a functor: the pullback action
    of H's left translations, with H acting on the right on the arrows;
    the fibre product is attached as ``fp``."""
    h = F.dst
    left = pullback_action(F, translations(h)[0])
    FP = left.fp

    def rule(w, hel):
        x0, k = FP.pairing[w]
        return FP.index[(x0, h.mul(k, hel))]

    right = build_action(h, FP.apex, compose(h.s, FP.pr2), "right", rule)
    out = Bibundle(F.src, h, left, right)
    out.fp = FP
    return out


def actor_to_bibundle(a):
    """An actor as a bibundle on the arrows of its target."""
    return Bibundle(a.g, a.h, a.action, translations(a.h)[1])


def bibundle_to_anafunctor(x):
    """The anafunctor (X, r, F_X) of a bibundle functor; the arrow part
    solves g·x1 · F_X = x2 in the principal right action."""
    try:
        bundle = PrincipalBundle(x.right, x.r_anchor)
    except NotPrincipal:
        raise NotABibundleFunctor(
            "right action not principal over r") from None
    g, h = x.g, x.h
    gx = pullback_groupoid(g, x.r_anchor)
    f1tab = {}
    for e, (x1, gel, x2) in gx.triples.items():
        xm = x.lact(g.i(gel), x1)
        f1tab[e] = bundle.solve(xm, x2)
    F = Functor(gx, h, x.s_anchor, Mor(gx.G1, h.G1, f1tab))
    return Anafunctor(g, h, x.r_anchor, F)


def two_sided_iso(x, ana):
    """The identity-on-objects isomorphism from the two-sided
    transformation groupoid of a bibundle functor x to the pullback
    groupoid of its anafunctor ``ana`` = ``bibundle_to_anafunctor(x)``:
    (g, x, h) goes to (g·x, g, x·h)."""
    gx = ana.gx
    t = two_sided_transformation_groupoid(x)
    itab = {e: gx.triple_index[(x.lact(gel, xe), gel, x.ract(xe, hel))]
            for e, (gel, xe, hel) in t.triples.items()}
    return Functor(t, gx, identity(x.X), Mor(t.G1, gx.G1, itab))


def beta_ana_to_bibundle(a):
    """The bibundle of an anafunctor: the composite of the dual of the
    bibundle of its cover ``hypercover(a.gx)``, built on a's own groupoid,
    with the bibundle of its functor.  The two factors are attached as
    ``down`` and ``up``; their ``fp`` pairings decode a class
    [(x, g), (x, h)], which is the class of g⁻¹·x·h."""
    down = functor_to_bibundle(hypercover(a.gx))
    up = functor_to_bibundle(a.F)
    out = compose_bibundles(dual(down), up)
    out.down, out.up = down, up
    return out


def cech_equivalence(p, q=None):
    """The canonical equivalence bibundle between the kernel-pair
    groupoids of two covers with the same codomain, carried by the fibre
    product of the covers.  With one argument the second groupoid is the
    trivial groupoid on the codomain."""
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
    anafunctor back to the bibundle itself: the class of g⁻¹·x·h maps to
    that point."""
    b = beta_ana_to_bibundle(bibundle_to_anafunctor(x))

    def value(d, u):
        xe, gel = b.down.fp.pairing[d]
        return x.ract(x.lact(x.g.i(gel), xe), b.up.fp.pairing[u][1])

    return {"beta": b, "iso": from_composite(b, x.X, value)}


def roundtrip_ananat(a):
    """The canonical invertible 2-arrow from the anafunctor of the
    bibundle of `a` back to `a`: at a class of g⁻¹·x·h, read off its
    representative in the middle fibre product, and a point x' over the
    class's range anchor, it is F(x', g⁻¹, x)·h."""
    b = beta_ana_to_bibundle(a)
    a2 = bibundle_to_anafunctor(b)
    g, h = a.src, a.dst
    fp = fibre_product(a2.p, a.p)
    tbl = {}
    for e, (c, xt) in fp.pairing.items():
        d, u = b.middle.pairing[c]
        xe, gel = b.down.fp.pairing[d]
        arrow = a.gx.triple_index[(xt, g.i(gel), xe)]
        tbl[e] = h.mul(a.F.F1(arrow), b.up.fp.pairing[u][1])
    return AnaNat(a2, a, Mor(fp.apex, h.G1, tbl), fp)


def middle_pair(FP, pair):
    """The id of ``pair`` in the middle fibre product FP; raises
    NotComposable naming a pair that an action moved out of FP."""
    if pair not in FP.index:
        raise NotComposable("(%s, %s) leaves the middle fibre product" % pair)
    return FP.index[pair]


def balanced_product(x, y):
    """The fibre product X x_{H0} Y of a right H-action x and an H-action
    y, read as a left action, with the diagonal right action (x, y)·h =
    (x·h, h⁻¹·y), whose orbit space is the balanced product X x_H Y;
    raises NotComposable when it moves a pair out of the fibre product."""
    i = x.g.i
    y = on_side(y, "left")
    FP = fibre_product(x.anchor, y.anchor)

    def rule(w, hel):
        xe, ye = FP.pairing[w]
        return middle_pair(FP, (x.apply(xe, hel), y.apply(ye, i(hel))))

    return FP, x.on(FP.apex, compose(x.anchor, FP.pr1), rule)


def descended_left(x, FP, coeq):
    """The left action of x's G on the orbit space ``coeq`` of a balanced
    product FP of x's right action: g·[xe, ye] = [g·xe, ye]."""
    Z = coeq.quotient

    def rule(c, gel):
        xe, ye = FP.pairing[c]
        return coeq.proj(middle_pair(FP, (x.lact(gel, xe), ye)))

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
    of carriers, with the surviving outer actions; raises NotComposable
    when the middle action is not basic, or when an action moves a pair
    out of the fibre product.  The fibre product is attached as
    ``middle`` and the orbit map as ``middle_proj``."""
    if x.h != y.g:
        raise MiddleMismatch("middle groupoids differ")
    FP, res, left = quotient_by_middle(x, y.left)
    coeq = res["orbits"]
    Z = coeq.quotient

    def rule(c, kel):
        xe, ye = FP.pairing[c]
        return coeq.proj(middle_pair(FP, (xe, y.ract(ye, kel))))

    r_anchor = Mor(Z, y.h.G0,
                   {c: y.s_anchor(FP.pairing[c][1]) for c in Z.elements})
    out = Bibundle(x.g, y.h, left, y.right.on(Z, r_anchor, rule))
    out.middle = FP
    out.middle_proj = coeq.proj
    return out


def composite_class(c, xe, ye):
    """Class id of a factor pair in a composite bibundle."""
    return c.middle_proj(c.middle.index[(xe, ye)])


def from_composite(c, cod, value):
    """The map out of the composite bibundle c that sends the class
    [xe, ye] to value(xe, ye); raises NotWellDefined when value is not
    constant on classes."""
    return descend(c.X, cod, ((c.middle_proj(e), value(xe, ye))
                              for e, (xe, ye) in c.middle.pairing.items()))


def composite_fault(c, w, m):
    """None when m, a map from the middle fibre product of the composite
    c to the carrier of w, descends to an isomorphism of bibundles c -> w;
    else "not invariant" or why the descended map is not one."""
    try:
        f = from_composite(c, w.X, lambda xe, ye: m(c.middle.index[(xe, ye)]))
    except NotWellDefined:
        return "not invariant"
    if not (is_iso(f) and passed(validate_bibundle_map(c, w, f))):
        return "not an isomorphism of bibundles"
    return None


def induced_composite_map(c1, c2, f, g):
    """f x g on composites, descending [x, y] to [f x, g y]."""
    return from_composite(c1, c2.X,
                          lambda xe, ye: composite_class(c2, f(xe), g(ye)))


def associator(x, y, z):
    """The canonical isomorphism (x∘y)∘z ≅ x∘(y∘z).  A class of x∘y is
    named by a pair (xe, ye) of its own, so [[xe, ye], ze] goes to
    [xe, [ye, ze]]."""
    c1 = compose_bibundles(x, y)
    c12 = compose_bibundles(c1, z)
    c2 = compose_bibundles(y, z)
    c21 = compose_bibundles(x, c2)

    def value(cl, ze):
        xe, ye = c1.middle.pairing[cl]
        return composite_class(c21, xe, composite_class(c2, ye, ze))

    return {"iso": from_composite(c12, c21.X, value), "left": c12,
            "right": c21}


def left_unitor(x):
    """G1 ∘ x ≅ x by acting."""
    c = compose_bibundles(unit_bibundle(x.g), x)
    return {"iso": from_composite(c, x.X, x.lact), "composite": c}


def right_unitor(x):
    """x ∘ H1 ≅ x by acting."""
    c = compose_bibundles(x, unit_bibundle(x.h))
    return {"iso": from_composite(c, x.X, x.ract), "composite": c}


def check_inverse(x):
    """For an equivalence, the canonical isomorphisms x∘x* ≅ G1 and
    x*∘x ≅ H1 by solving the principal-bundle equations."""
    try:
        rb = PrincipalBundle(x.right, x.r_anchor)
        lb = PrincipalBundle(x.left, x.s_anchor)
    except NotPrincipal:
        raise NotAnEquivalence("bibundle is not an equivalence") from None
    xd = dual(x)
    c1 = compose_bibundles(x, xd)
    # the unique g with g·x2 = x1
    iso1 = from_composite(c1, x.g.G1, lambda x1, x2: lb.solve(x2, x1))
    c2 = compose_bibundles(xd, x)
    # the unique h with x1·h = x2
    iso2 = from_composite(c2, x.h.G1, rb.solve)
    return {"iso1": iso1, "iso2": iso2, "c1": c1, "c2": c2}


def decompose_actor(x):
    """Split a bibundle actor G–H into an actor onto an intermediate
    groupoid K built from H-orbits of carrier pairs, followed by a K–H
    bibundle equivalence carried by the original carrier.  The principal
    bundle of x's right action over its orbit map, built here, solves
    for the arrows of K."""
    g, h = x.g, x.h
    res = actor_orbits(x)
    if res is None:
        raise NotAnActor("bibundle is not an actor")
    p = res["orbits"].proj
    bundle = PrincipalBundle(x.right, p)
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

    c = compose_bibundles(actor_to_bibundle(actor), equiv)
    return {"k": K, "actor": actor, "equiv": equiv,
            "iso": from_composite(c, x.X, equiv.lact), "composite": c}


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
    return out


def composite_witness(x, y, w, m):
    """True iff m, a map from the middle fibre product of x and y to the
    carrier of w, presents w as the composite of x and y: it descends to
    an isomorphism of bibundles (``composite_fault``).  Raises
    NotComposable, as ``compose_bibundles`` does, when the middle action
    is not basic."""
    if x.h != y.g or x.g != w.g or y.h != w.h:
        raise BoundaryMismatch("bibundle chain does not match w")
    c = compose_bibundles(x, y)
    require_ends(m, c.middle.apex, w.X, "composite_witness: m")
    return composite_fault(c, w, m) is None


def act_on(x, y):
    """Push an H-action y, read as a left action, through a bibundle actor
    to a left G-action on the orbit carrier X x_H Y."""
    if actor_orbits(x) is None:
        raise NotAnActor("bibundle is not an actor")
    if y.g != x.h:
        raise MiddleMismatch("y is not an action of the actor's target")
    return quotient_by_middle(x, y)[2]


def bibundle_isomorphisms(b1, b2):
    """Every isomorphism of bibundles between the same pair of groupoids,
    in ``backtrack`` order.  Sending x to y sends g·x to g·y and x·h to
    y·h, and each x has the anchors of its candidates: this proves
    ``validate_bibundle_map``.  A leaf is checked only with ``is_iso``, as
    on finite spaces the search does not prove the inverse continuous."""
    if b1.g != b2.g or b1.h != b2.h or len(b1.X) != len(b2.X):
        return
    xs = list(b1.X.elements)
    ends = group_by(b2.X.elements, lambda y: (b2.r_anchor(y), b2.s_anchor(y)))
    cand = {}
    for xe in xs:
        cand[xe] = ends.get((b1.r_anchor(xe), b1.s_anchor(xe)))
        if cand[xe] is None:
            return
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
            yield f


def bibundle_isomorphic(b1, b2):
    """The first of ``bibundle_isomorphisms``, or None."""
    return next(bibundle_isomorphisms(b1, b2), None)


def enumerate_bibundles(g, h, max_size=4):
    """All G–H bibundles with a canonically named carrier of at most the
    given size, on finite sets.  ``enumerate_actions`` proves the axioms
    of each action, so a leaf checks only ``bibundle_compat``."""
    if g.backend != "finset" or h.backend != "finset":
        raise BackendMismatch("enumerate_bibundles runs on finite sets only")
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
                        if passed(bibundle_compat(b)):
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
