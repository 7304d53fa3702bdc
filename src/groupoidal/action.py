"""Groupoid actions, equivariant maps, transformation groupoids, bibundles
and actors.

A right action of G on X is an anchor X -> G0 together with a
multiplication table on the fibre product X x_{anchor, G0, r} G1; a left
action uses G1 x_{s, G0, anchor} X.  Both orientations are stored
natively and converted through inversion when needed.
"""

from .site_core import (Mor, SiteError, compose, fibre_product,
                        first_failure, is_cover, is_iso, is_surjective,
                        pair_id, passed, valid_mor_table, witness_finding)
from .groupoid import Groupoid


class NotAnActor(SiteError):
    pass


class Action:
    def __init__(self, g, X, anchor, mult, side, pairs=None):
        assert side in ("left", "right")
        assert anchor.dom == X and anchor.cod == g.G0
        if pairs is None:
            if side == "right":
                pairs = fibre_product(anchor, g.r)
            else:
                pairs = fibre_product(g.s, anchor)
        assert mult.dom == pairs.apex and mult.cod == X
        self.g, self.X, self.anchor = g, X, anchor
        self.mult, self.side, self.pairs = mult, side, pairs

    def act(self, a, b):
        """Right: act(x, g); left: act(g, x)."""
        return self.mult(pair_id(a, b))

    def __repr__(self):
        return "Action(%s, |X|=%d)" % (self.side, len(self.X))


def validate_action(a):
    """Axioms plus the cross-checks that unitality may be replaced by
    multiplication being epi, being a cover, or the shear map being
    invertible with the inversion formula as inverse."""
    g = a.g
    if a.side == "right":
        anchor_w = first_failure(
            (e, a.anchor(a.mult(e)) == g.s(gel))
            for e, (x, gel) in a.pairs.pairing.items())
        assoc_w = first_failure(
            ((x, g1, g2),
             a.act(a.act(x, g1), g2) == a.act(x, g.mul(g1, g2)))
            for x in a.X.elements for g1 in g.arrows() for g2 in g.arrows()
            if a.anchor(x) == g.r(g1) and g.composable(g1, g2))
        unit_w = first_failure(
            (x, a.act(x, g.u(a.anchor(x))) == x) for x in a.X.elements)
    else:
        anchor_w = first_failure(
            (e, a.anchor(a.mult(e)) == g.r(gel))
            for e, (gel, x) in a.pairs.pairing.items())
        assoc_w = first_failure(
            ((g1, g2, x),
             a.act(g1, a.act(g2, x)) == a.act(g.mul(g1, g2), x))
            for x in a.X.elements for g1 in g.arrows() for g2 in g.arrows()
            if a.anchor(x) == g.s(g2) and g.composable(g1, g2))
        unit_w = first_failure(
            (x, a.act(g.u(a.anchor(x)), x) == x) for x in a.X.elements)
    out = [witness_finding("anchor-compat", anchor_w),
           witness_finding("associativity", assoc_w),
           witness_finding("unit", unit_w)]

    if anchor_w is None and assoc_w is None:
        unit_holds = unit_w is None
        epi = is_surjective(a.mult)
        cover = is_cover(a.mult)
        out.append(witness_finding(
            "unit-vs-epi", None if unit_holds == epi else
            "unit axiom and epi multiplication disagree"))
        out.append(witness_finding(
            "unit-vs-cover", None if unit_holds == cover else
            "unit axiom and cover multiplication disagree"))
        shear_ok = False
        try:
            sh, shinv = action_shear(a)
            shear_ok = is_iso(sh)
            if shear_ok:
                from .site_core import inverse
                shear_ok = inverse(sh) == shinv
        except (AssertionError, KeyError):
            shear_ok = False
        out.append(witness_finding(
            "unit-vs-shear", None if unit_holds == shear_ok else
            "unit axiom and shear invertibility disagree"))
    return out


def action_shear(a):
    """Right: (x, g) -> (x·g, g) with stated inverse (x, g) -> (x·g⁻¹, g);
    left: (g, x) -> (g, g·x)."""
    g = a.g
    if a.side == "right":
        cod = fibre_product(a.anchor, g.s)
        tbl = {e: cod.index[(a.mult(e), gel)]
               for e, (x, gel) in a.pairs.pairing.items()}
        inv_tbl = {e: a.pairs.index[(a.act(x, g.i(gel)), gel)]
                   for e, (x, gel) in cod.pairing.items()}
        return (Mor(a.pairs.apex, cod.apex, tbl),
                Mor(cod.apex, a.pairs.apex, inv_tbl))
    cod = fibre_product(g.r, a.anchor)
    tbl = {e: cod.index[(gel, a.mult(e))]
           for e, (gel, x) in a.pairs.pairing.items()}
    inv_tbl = {e: a.pairs.index[(gel, a.act(g.i(gel), x))]
               for e, (gel, x) in cod.pairing.items()}
    return (Mor(a.pairs.apex, cod.apex, tbl),
            Mor(cod.apex, a.pairs.apex, inv_tbl))


def is_sheaf(a):
    return is_cover(a.anchor)


def to_right(a):
    """Convert a left action to the right action x·g := g⁻¹·x."""
    assert a.side == "left"
    g = a.g
    pairs = fibre_product(a.anchor, g.r)
    tbl = {e: a.act(g.i(gel), x) for e, (x, gel) in pairs.pairing.items()}
    return Action(g, a.X, a.anchor, Mor(pairs.apex, a.X, tbl), "right",
                  pairs)


def to_left(a):
    """Convert a right action to the left action g·x := x·g⁻¹."""
    assert a.side == "right"
    g = a.g
    pairs = fibre_product(g.s, a.anchor)
    tbl = {e: a.act(x, g.i(gel)) for e, (gel, x) in pairs.pairing.items()}
    return Action(g, a.X, a.anchor, Mor(pairs.apex, a.X, tbl), "left",
                  pairs)


def canonical_action(g):
    """G acting on its own objects through the source of arrows."""
    pairs = fibre_product(Mor.identity(g.G0), g.r)
    tbl = {e: g.s(gel) for e, (x, gel) in pairs.pairing.items()}
    return Action(g, g.G0, Mor.identity(g.G0),
                  Mor(pairs.apex, g.G0, tbl), "right", pairs)


class GMap:
    def __init__(self, from_, to, f):
        assert from_.g == to.g and from_.side == to.side
        assert f.dom == from_.X and f.cod == to.X
        self.from_, self.to, self.f = from_, to, f

    def __repr__(self):
        return "GMap(%r)" % (self.f.table,)


def validate_gmap(m):
    a, b, f = m.from_, m.to, m.f
    anchor_w = first_failure(
        (x, b.anchor(f(x)) == a.anchor(x)) for x in a.X.elements)
    if a.side == "right":
        eq_w = first_failure(
            (e, f(a.mult(e)) == b.act(f(x), gel))
            for e, (x, gel) in a.pairs.pairing.items())
    else:
        eq_w = first_failure(
            (e, f(a.mult(e)) == b.act(gel, f(x)))
            for e, (gel, x) in a.pairs.pairing.items())
    return [witness_finding("anchor-over", anchor_w),
            witness_finding("equivariance", eq_w)]


def is_invariant(a, f):
    """f: X -> W collapses the action."""
    if a.side == "right":
        return all(f(a.mult(e)) == f(x)
                   for e, (x, gel) in a.pairs.pairing.items())
    return all(f(a.mult(e)) == f(x)
               for e, (gel, x) in a.pairs.pairing.items())


def transformation_groupoid(a):
    """Objects X, arrows the action fibre product, range pr1, source the
    multiplication."""
    assert a.side == "right"
    assert passed(validate_action(a))
    g = a.g
    G1t = a.pairs.apex
    rt = a.pairs.pr1
    st = a.mult
    pairs_t = fibre_product(st, rt)
    mtab = {}
    for e, (e1, e2) in pairs_t.pairing.items():
        x1, g1 = a.pairs.pairing[e1]
        _, g2 = a.pairs.pairing[e2]
        mtab[e] = a.pairs.index[(x1, g.mul(g1, g2))]
    m = Mor(pairs_t.apex, G1t, mtab)
    u = Mor(a.X, G1t,
            {x: a.pairs.index[(x, g.u(a.anchor(x)))] for x in a.X.elements})
    itab = {e: a.pairs.index[(a.mult(e), g.i(gel))]
            for e, (x, gel) in a.pairs.pairing.items()}
    i = Mor(G1t, G1t, itab)
    t = Groupoid(a.X, G1t, rt, st, m, u, i, pairs=pairs_t)
    from .groupoid import validate_groupoid
    report = validate_groupoid(t)
    assert passed(report), [f for f in report if not f.ok]
    t.parts = a.pairs.pairing
    t.pair_index = a.pairs.index
    t.action = a
    return t


def left_transformation_groupoid(a):
    """Arrows G1 x_{s,G0,anchor} X with range the multiplication and
    source the second projection."""
    assert a.side == "left"
    assert passed(validate_action(a))
    g = a.g
    G1t = a.pairs.apex
    rt = a.mult
    st = a.pairs.pr2
    pairs_t = fibre_product(st, rt)
    mtab = {}
    for e, (e1, e2) in pairs_t.pairing.items():
        g1, _ = a.pairs.pairing[e1]
        g2, x2 = a.pairs.pairing[e2]
        mtab[e] = a.pairs.index[(g.mul(g1, g2), x2)]
    m = Mor(pairs_t.apex, G1t, mtab)
    u = Mor(a.X, G1t,
            {x: a.pairs.index[(g.u(a.anchor(x)), x)] for x in a.X.elements})
    itab = {e: a.pairs.index[(g.i(gel), a.mult(e))]
            for e, (gel, x) in a.pairs.pairing.items()}
    i = Mor(G1t, G1t, itab)
    t = Groupoid(a.X, G1t, rt, st, m, u, i, pairs=pairs_t)
    from .groupoid import validate_groupoid
    report = validate_groupoid(t)
    assert passed(report), [f for f in report if not f.ok]
    t.parts = a.pairs.pairing
    t.pair_index = a.pairs.index
    t.action = a
    return t


def action_fibre_product(f1, f2):
    """Fibre product of two equivariant maps with the diagonal action;
    returns the action and the projection maps."""
    assert f1.to is f2.to or (f1.to.X == f2.to.X
                              and f1.to.mult == f2.to.mult)
    a1, a2 = f1.from_, f2.from_
    g = a1.g
    FP = fibre_product(f1.f, f2.f)
    anchor = compose(a1.anchor, FP.pr1)
    side = a1.side
    if side == "right":
        pairs = fibre_product(anchor, g.r)
        tbl = {e: FP.index[(a1.act(FP.pairing[w][0], gel),
                            a2.act(FP.pairing[w][1], gel))]
               for e, (w, gel) in pairs.pairing.items()}
    else:
        pairs = fibre_product(g.s, anchor)
        tbl = {e: FP.index[(a1.act(gel, FP.pairing[w][0]),
                            a2.act(gel, FP.pairing[w][1]))]
               for e, (gel, w) in pairs.pairing.items()}
    diag = Action(g, FP.apex, anchor, Mor(pairs.apex, FP.apex, tbl),
                  side, pairs)
    assert passed(validate_action(diag))
    pr1 = GMap(diag, a1, FP.pr1)
    pr2 = GMap(diag, a2, FP.pr2)
    assert passed(validate_gmap(pr1)) and passed(validate_gmap(pr2))
    return diag, pr1, pr2


class Bibundle:
    """Commuting left G- and right H-actions on one carrier."""

    def __init__(self, g, h, left, right):
        assert left.side == "left" and right.side == "right"
        assert left.g == g and right.g == h
        assert left.X == right.X
        self.g, self.h = g, h
        self.left, self.right = left, right
        self.X = left.X

    def lact(self, gel, x):
        return self.left.act(gel, x)

    def ract(self, x, hel):
        return self.right.act(x, hel)

    @property
    def r_anchor(self):
        return self.left.anchor

    @property
    def s_anchor(self):
        return self.right.anchor

    def __repr__(self):
        return "Bibundle(|X|=%d)" % (len(self.X),)


def validate_bibundle(b):
    out = list(validate_action(b.left))
    out += validate_action(b.right)
    out.append(witness_finding("left-anchor-invariant", first_failure(
        (e, b.r_anchor(b.ract(x, hel)) == b.r_anchor(x))
        for e, (x, hel) in b.right.pairs.pairing.items())))
    out.append(witness_finding("right-anchor-invariant", first_failure(
        (e, b.s_anchor(b.lact(gel, x)) == b.s_anchor(x))
        for e, (gel, x) in b.left.pairs.pairing.items())))
    # when an anchor is not invariant one side is undefined, which
    # first_failure reports as a failing case
    out.append(witness_finding("actions-commute", first_failure(
        ((gel, x, hel),
         b.ract(b.lact(gel, x), hel) == b.lact(gel, b.ract(x, hel)))
        for gel in b.g.arrows() for x in b.X.elements
        if b.r_anchor(x) == b.g.s(gel)
        for hel in b.h.arrows() if b.s_anchor(x) == b.h.r(hel))))
    return out


def unit_bibundle(g):
    """G acting on its own arrows from both sides."""
    left = Action(g, g.G1, g.r, g.m, "left", g.pairs)
    right = Action(g, g.G1, g.s, g.m, "right", g.pairs)
    b = Bibundle(g, g, left, right)
    assert passed(validate_bibundle(b))
    return b


def two_sided_transformation_groupoid(b):
    """Arrows G1 x X x H1; range acts on the left, source on the right."""
    g, h = b.g, b.h
    T1 = fibre_product(g.s, b.r_anchor)
    T2 = fibre_product(compose(b.s_anchor, T1.pr2), h.r)
    triples = {}
    for e, (a, hel) in T2.pairing.items():
        gel, x = T1.pairing[a]
        triples[e] = (gel, x, hel)
    index = {t: e for e, t in triples.items()}
    G1t = T2.apex
    rt = Mor(G1t, b.X, {e: b.lact(gel, x)
                        for e, (gel, x, hel) in triples.items()})
    st = Mor(G1t, b.X, {e: b.ract(x, hel)
                        for e, (gel, x, hel) in triples.items()})
    pairs_t = fibre_product(st, rt)
    mtab = {}
    for e, (e1, e2) in pairs_t.pairing.items():
        g1, x1, h1 = triples[e1]
        g2, x2, h2 = triples[e2]
        mtab[e] = index[(g.mul(g1, g2), b.lact(g.i(g2), x1),
                         h.mul(h1, h2))]
    m = Mor(pairs_t.apex, G1t, mtab)
    u = Mor(b.X, G1t,
            {x: index[(g.u(b.r_anchor(x)), x, h.u(b.s_anchor(x)))]
             for x in b.X.elements})
    itab = {e: index[(g.i(gel), b.ract(b.lact(gel, x), hel), h.i(hel))]
            for e, (gel, x, hel) in triples.items()}
    i = Mor(G1t, G1t, itab)
    t = Groupoid(b.X, G1t, rt, st, m, u, i, pairs=pairs_t)
    from .groupoid import validate_groupoid
    report = validate_groupoid(t)
    assert passed(report), [f for f in report if not f.ok]
    t.triples = triples
    t.triple_index = index
    return t


class Actor:
    """A left G-action on the arrows of H commuting with right
    multiplication."""

    def __init__(self, g, h, action):
        assert action.side == "left" and action.g == g
        assert action.X == h.G1
        self.g, self.h, self.action = g, h, action

    def anchor(self, hel):
        return self.action.anchor(hel)

    def act(self, gel, hel):
        return self.action.act(gel, hel)

    def __repr__(self):
        return "Actor(%r -> %r)" % (self.g, self.h)


def validate_actor(a):
    out = list(validate_action(a.action))
    g, h = a.g, a.h
    out.append(witness_finding("anchor-right-invariant", first_failure(
        ((h1, h2), a.anchor(h.mul(h1, h2)) == a.anchor(h1))
        for h1 in h.arrows() for h2 in h.arrows()
        if h.composable(h1, h2))))
    out.append(witness_finding("commutes-with-right-mult", first_failure(
        ((gel, h1, h2),
         a.act(gel, h.mul(h1, h2)) == h.mul(a.act(gel, h1), h2))
        for gel in g.arrows() for h1 in h.arrows()
        if a.anchor(h1) == g.s(gel)
        for h2 in h.arrows() if h.composable(h1, h2))))
    return out


def left_mult_actor(g):
    """G acting on its own arrows by left multiplication."""
    action = Action(g, g.G1, g.r, g.m, "left", g.pairs)
    a = Actor(g, g, action)
    assert passed(validate_actor(a))
    return a


def actor_to_pair(a):
    """Split an actor into a base action on H0 and a functor from the
    left transformation groupoid to H; the action is recovered as
    g·h = F(g, r(h))·h."""
    g, h = a.g, a.h
    r0 = Mor(h.G0, g.G0, {x: a.anchor(h.u(x)) for x in h.objects()})
    bpairs = fibre_product(g.s, r0)
    btab = {e: h.r(a.act(gel, h.u(x)))
            for e, (gel, x) in bpairs.pairing.items()}
    base = Action(g, h.G0, r0, Mor(bpairs.apex, h.G0, btab), "left", bpairs)
    assert passed(validate_action(base))
    t = left_transformation_groupoid(base)
    from .morphism import Functor, validate_functor
    F1 = Mor(t.G1, h.G1, {e: a.act(gel, h.u(x))
                          for e, (gel, x) in t.parts.items()})
    F = Functor(t, h, Mor.identity(h.G0), F1)
    assert passed(validate_functor(F))
    for e, (gel, hel) in a.action.pairs.pairing.items():
        rebuilt = h.mul(a.act(gel, h.u(h.r(hel))), hel)
        assert a.act(gel, hel) == rebuilt, "reconstruction failed"
    return {"base": base, "functor": F, "transformation": t}


def actor_apply(a, x):
    """Push a left H-action through the actor to a left G-action on the
    same carrier."""
    assert x.side == "left" and x.g == a.h
    g, h = a.g, a.h
    pair = actor_to_pair(a)
    r0 = pair["base"].anchor
    anchor = compose(r0, x.anchor)
    pairs = fibre_product(g.s, anchor)
    tbl = {}
    for e, (gel, y) in pairs.pairing.items():
        hval = a.act(gel, h.u(x.anchor(y)))
        tbl[e] = x.act(hval, y)
    out = Action(g, x.X, anchor, Mor(pairs.apex, x.X, tbl), "left", pairs)
    assert passed(validate_action(out))
    return out


def compose_actors(b, a):
    """b: H -> K after a: G -> H; the unique G-action on K1 with
    (g·h)·k = g·(h·k)."""
    if a.h != b.g:
        raise NotAnActor("actor boundaries do not match")
    action = actor_apply(a, b.action)
    out = Actor(a.g, b.h, action)
    assert passed(validate_actor(out))
    g, h, k = a.g, a.h, b.h
    for gel in g.arrows():
        for hel in h.arrows():
            if a.anchor(hel) != g.s(gel):
                continue
            for kel in k.arrows():
                if b.anchor(kel) != h.s(hel):
                    continue
                lhs = b.act(a.act(gel, hel), kel)
                rhs = out.act(gel, b.act(hel, kel))
                assert lhs == rhs, "actor composition law failed"
    return out


def identity_actor(g):
    return left_mult_actor(g)


def hmap_from_section(h, phi):
    """Right-H-map H1 -> H1 given by left multiplication by a section."""
    return Mor(h.G1, h.G1, {a: h.mul(phi(h.r(a)), a) for a in h.arrows()})


def section_from_hmap(h, f):
    """The unique section with f = left multiplication by it."""
    phi = Mor(h.G0, h.G1, {x: f(h.u(x)) for x in h.objects()})
    for a in h.arrows():
        assert f(a) == h.mul(phi(h.r(a)), a), "map is not a left translation"
    return phi


def actor_two_arrow(phi, m1, m2):
    """Is the section phi of K a 2-arrow from actor m1 to m2 (both
    G -> K)?"""
    g, k = m1.g, m1.h
    for e, (gel, kel) in m1.action.pairs.pairing.items():
        lhs_arg = m1.act(gel, kel)
        lhs = k.mul(phi(k.r(lhs_arg)), lhs_arg)
        shifted = k.mul(phi(k.r(kel)), kel)
        if m2.anchor(shifted) != g.s(gel):
            return False
        if lhs != m2.act(gel, shifted):
            return False
    return True


def actor_horizontal(psi, phi, b2):
    """Horizontal product of actor 2-arrows: phi between G -> H actors,
    psi between H -> K actors; the value acts through the second
    K-side actor's module structure."""
    k = b2.h
    tbl = {}
    for x in k.objects():
        kel = psi(x)
        y = b2.anchor(kel)
        tbl[x] = b2.act(phi(y), kel)
    return Mor(k.G0, k.G1, tbl)


def enumerate_actions(g, X, anchor, side="right"):
    """All actions of g on X with the given anchor, by backtracking over
    the multiplication table."""
    if side == "right":
        pairs = fibre_product(anchor, g.r)
        def other(gel):
            return g.s(gel)
        def unit_key(x):
            return pair_id(x, g.u(anchor(x)))
    else:
        pairs = fibre_product(g.s, anchor)
        def other(gel):
            return g.r(gel)
        def unit_key(x):
            return pair_id(g.u(anchor(x)), x)
    elems = list(pairs.apex.elements)
    cand = {}
    for e in elems:
        l, r = pairs.pairing[e]
        gel = r if side == "right" else l
        cand[e] = [y for y in X.elements if anchor(y) == other(gel)]
        if not cand[e]:
            return
    assign = {}
    for x in X.elements:
        e = unit_key(x)
        if x not in cand[e]:
            return
        assign[e] = x
    free = [e for e in elems if e not in assign]

    def consistent():
        # associativity closure on what is assigned so far
        for e, val in assign.items():
            l, r = pairs.pairing[e]
            if side == "right":
                x, g1 = l, r
                for g2 in g.arrows():
                    if not g.composable(g1, g2):
                        continue
                    e2 = pair_id(val, g2)
                    e3 = pair_id(x, g.mul(g1, g2))
                    if e2 in assign and e3 in assign and \
                            assign[e2] != assign[e3]:
                        return False
            else:
                g2, x = l, r
                for g1 in g.arrows():
                    if not g.composable(g1, g2):
                        continue
                    e2 = pair_id(g1, val)
                    e3 = pair_id(g.mul(g1, g2), x)
                    if e2 in assign and e3 in assign and \
                            assign[e2] != assign[e3]:
                        return False
        return True

    def dfs(idx):
        if idx == len(free):
            if not valid_mor_table(pairs.apex, X, assign):
                return
            a = Action(g, X, anchor, Mor(pairs.apex, X, dict(assign)),
                       side, pairs)
            if passed(validate_action(a)):
                yield a
            return
        e = free[idx]
        for y in cand[e]:
            assign[e] = y
            if consistent():
                yield from dfs(idx + 1)
            del assign[e]

    if consistent():
        yield from dfs(0)
