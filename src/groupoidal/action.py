"""Groupoid actions, equivariant maps, transformation groupoids, bibundles
and actors.

A right action of G on X is an anchor X -> G0 together with a
multiplication table on the fibre product X x_{anchor, G0, r} G1; a left
action uses G1 x_{s, G0, anchor} X.  The side is data that only this
module reads: everything else uses an action's point-first view, chosen
once per action.  A cell is (e, x, g) for the pair e of x and g,
``apply(x, g)`` is x·g or g·x, and ``then(g1, g2)`` is the arrow that
acts as g1 and then g2.  ``opposite`` turns an action into one on the
other side through inversion.
"""

from .site_core import (BoundaryMismatch, Mor, NotAMorphism, SiteError,
                        backtrack, compose, fibre_product, first_failure,
                        group_by, identity, inverse, is_cover, is_iso,
                        is_surjective, pair_id, require, require_ends,
                        shear, triple_product, witness_finding)
from .groupoid import build_groupoid
from .morphism import Functor


class NotAnAction(SiteError):
    pass


class NotAnActor(SiteError):
    pass


class NotATranslation(SiteError):
    pass


# side -> (how a pair orders (point, arrow), the id of the pair of a point
# x and an arrow a, the point-first cells (e, x, a) of a pairing)
_SIDES = {
    "right": (lambda u, v: (u, v), pair_id,
              lambda pairing: ((e, x, a) for e, (x, a) in pairing.items())),
    "left": (lambda u, v: (v, u), lambda x, a: pair_id(a, x),
             lambda pairing: ((e, x, a) for e, (a, x) in pairing.items())),
}
_OTHER = {"right": "left", "left": "right"}


def action_pairs(g, anchor, side):
    """The fibre product a multiplication is defined on: X x_{anchor, r}
    G1 for a right action, G1 x_{s, anchor} X for a left one."""
    order = _SIDES[side][0]
    matched = order(g.r, g.s)[0]
    return fibre_product(*order(anchor, matched))


def _steps(g, side):
    """For each arrow p, the arrows q that can act after it, each with
    the arrow that acts as p then q.  Built once per groupoid and side,
    and kept on the groupoid."""
    memo = vars(g).setdefault("_action_steps", {})
    if side not in memo:
        order = _SIDES[side][0]
        matched, lands = order(g.r, g.s)
        by_matched = group_by(g.arrows(), matched)
        memo[side] = {p: [(q, g.mul(*order(p, q)))
                          for q in by_matched.get(lands(p), ())]
                      for p in g.arrows()}
    return memo[side]


class Action:
    def __init__(self, g, X, anchor, mult, side, pairs=None):
        require_ends(anchor, X, g.G0, "anchor")
        self.order, self.key, self._cells = _SIDES[side]
        if pairs is None:
            pairs = action_pairs(g, anchor, side)
        require_ends(mult, pairs.apex, X, "multiplication")
        self.g, self.X, self.anchor = g, X, anchor
        self.mult, self.side, self.pairs = mult, side, pairs
        # the end of an arrow over which the point it moves lands
        self.lands = self.order(g.r, g.s)[1]

    def act(self, a, b):
        """Right: act(x, g); left: act(g, x)."""
        return self.mult(pair_id(a, b))

    def apply(self, x, gel):
        """x·gel for a right action, gel·x for a left one."""
        return self.mult.table[self.key(x, gel)]

    def cells(self, fp=None):
        """(e, x, gel) for each pair e of the action fibre product, or of
        another fibre product whose pairs are ordered like this action's."""
        return self._cells((self.pairs if fp is None else fp).pairing)

    def then(self, p, q):
        """The arrow that acts as p and then q."""
        return self.g.mul(*self.order(p, q))

    @property
    def point(self):
        """The projection of the action fibre product onto X; only this
        projection of the pairs is built."""
        return getattr(self.pairs, self.order("pr1", "pr2")[0])

    def on(self, X, anchor, rule):
        """An action of the same groupoid on the same side, on X."""
        return build_action(self.g, X, anchor, self.side, rule)

    def __repr__(self):
        return "Action(%s, |X|=%d)" % (self.side, len(self.X))


def build_action(g, X, anchor, side, rule):
    """The action of g on X over anchor whose multiplication sends the
    cell (x, gel) to rule(x, gel)."""
    pairs = action_pairs(g, anchor, side)
    tbl = {e: rule(x, gel) for e, x, gel in _SIDES[side][2](pairs.pairing)}
    return Action(g, X, anchor, Mor(pairs.apex, X, tbl), side, pairs)


def opposite(a):
    """The action on the other side through inversion: g·x := x·g⁻¹ for
    a right action, x·g := g⁻¹·x for a left one."""
    i = a.g.i
    return build_action(a.g, a.X, a.anchor, _OTHER[a.side],
                        lambda x, gel: a.apply(x, i(gel)))


def on_side(a, side):
    """a, or its opposite, as an action on the given side."""
    return a if a.side == side else opposite(a)


def validate_action(a):
    """Axioms plus the cross-checks that unitality may be replaced by
    multiplication being epi, being a cover, or the shear map being
    invertible with the inversion formula as inverse."""
    g = a.g
    steps = _steps(g, a.side)
    anchor_w = first_failure(
        (e, a.anchor(a.mult(e)) == a.lands(gel)) for e, x, gel in a.cells())
    assoc_w = first_failure(
        ((x, p, q), a.apply(a.mult(e), q) == a.apply(x, pq))
        for e, x, p in a.cells() for q, pq in steps[p])
    if isinstance(assoc_w, tuple) and a.side == "left":
        # a left action reports (g1, g2, x) with g1·(g2·x) != (g1 g2)·x
        x, p, q = assoc_w
        assoc_w = (q, p, x)
    unit_w = first_failure(
        (x, a.apply(x, g.u(a.anchor(x))) == x) for x in a.X.elements)
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
        try:
            sh, shinv = action_shear(a)
            shear_ok = is_iso(sh) and inverse(sh) == shinv
        except (KeyError, NotAMorphism):
            shear_ok = False
        out.append(witness_finding(
            "unit-vs-shear", None if unit_holds == shear_ok else
            "unit axiom and shear invertibility disagree"))
    return out


def action_shear(a):
    """The shear (x, g) -> (x·g, g) onto the fibre product of the anchor
    with the end where x·g lands, or (g, x) -> (g, g·x) for a left
    action: ``site_core.shear`` keeping the arrow.  Returned with its
    stated inverse (x, g) -> (x·g⁻¹, g), or (g, x) -> (g, g⁻¹·x)."""
    cod = fibre_product(*a.order(a.anchor, a.lands))
    inv_tbl = {e: a.pairs.index[a.order(a.apply(x, a.g.i(gel)), gel)]
               for e, x, gel in a.cells(cod)}
    return (shear(a.pairs, a.mult, cod, a.order(1, 0)[0]),
            Mor(cod.apex, a.pairs.apex, inv_tbl))


def canonical_action(g):
    """G acting on its own objects through the source of arrows."""
    return build_action(g, g.G0, identity(g.G0), "right",
                        lambda x, gel: g.s(gel))


def translations(g):
    """G acting on its own arrows by left and by right multiplication."""
    return (Action(g, g.G1, g.r, g.m, "left", g.pairs),
            Action(g, g.G1, g.s, g.m, "right", g.pairs))


class GMap:
    def __init__(self, from_, to, f):
        if (from_.g, from_.side) != (to.g, to.side):
            raise BoundaryMismatch("actions of two groupoids or sides")
        require_ends(f, from_.X, to.X, "equivariant map")
        self.from_, self.to, self.f = from_, to, f

    def __repr__(self):
        return "GMap(%r)" % (self.f.table,)


def validate_gmap(m):
    a, b, f = m.from_, m.to, m.f
    anchor_w = first_failure(
        (x, b.anchor(f(x)) == a.anchor(x)) for x in a.X.elements)
    eq_w = first_failure(
        (e, f(a.mult(e)) == b.apply(f(x), gel)) for e, x, gel in a.cells())
    return [witness_finding("anchor-over", anchor_w),
            witness_finding("equivariance", eq_w)]


def is_invariant(a, f):
    """f: X -> W collapses the action."""
    ft, pt, mt = f.table, a.point.table, a.mult.table
    return all(ft[mt[e]] == ft[pt[e]] for e in mt)


def transformation_groupoid(a):
    """Objects X and arrows the cells (x, g) of the action.  The range
    and source of a cell are (x, x·g) for a right action and (g·x, x)
    for a left one; the cell (x, g1) composed with the cell (x·g1, g2),
    or (g1·x, g2), is (x, g1 then g2).  ``parts`` maps each arrow to its
    (x, g).  Raises NotAnAction, naming the failing checks, when ``a``
    is not an action."""
    require(validate_action(a), NotAnAction)
    g = a.g
    parts = {e: (x, gel) for e, x, gel in a.cells()}

    def mul(e1, e2):
        first, second = a.order(e1, e2)
        x, p = parts[first]
        return a.key(x, a.then(p, parts[second][1]))

    t = build_groupoid(
        a.X, a.pairs.apex, *a.order(a.point, a.mult), mul,
        lambda x: a.key(x, g.u(a.anchor(x))),
        lambda e: a.key(a.mult(e), g.i(parts[e][1])))
    t.parts = parts
    t.action = a
    return t


def action_fibre_product(f1, f2):
    """Fibre product of two equivariant maps with the diagonal action;
    returns the action and the projection maps."""
    if f1.to is not f2.to and (f1.to.X, f1.to.mult) != (f2.to.X, f2.to.mult):
        raise BoundaryMismatch("equivariant maps with different targets")
    a1, a2 = f1.from_, f2.from_
    FP = fibre_product(f1.f, f2.f)

    def rule(w, gel):
        w1, w2 = FP.pairing[w]
        return FP.index[(a1.apply(w1, gel), a2.apply(w2, gel))]

    diag = a1.on(FP.apex, compose(a1.anchor, FP.pr1), rule)
    return diag, GMap(diag, a1, FP.pr1), GMap(diag, a2, FP.pr2)


class Bibundle:
    """Commuting left G- and right H-actions on one carrier."""

    def __init__(self, g, h, left, right):
        if (left.side, right.side, left.g, right.g, left.X) != (
                "left", "right", g, h, right.X):
            raise BoundaryMismatch("a bibundle is a left action of g and a "
                                   "right action of h on one carrier")
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


def bibundle_compat(b):
    """The checks that tie the two actions of a bibundle together."""
    left_w = first_failure(
        (e, b.r_anchor(b.ract(x, hel)) == b.r_anchor(x))
        for e, (x, hel) in b.right.pairs.pairing.items())
    right_w = first_failure(
        (e, b.s_anchor(b.lact(gel, x)) == b.s_anchor(x))
        for e, (gel, x) in b.left.pairs.pairing.items())
    # when an anchor is not invariant one side is undefined, which
    # first_failure reports as a failing case
    points = group_by(b.X.elements, b.r_anchor)
    h_arrows = group_by(b.h.arrows(), b.h.r)
    commute_w = first_failure(
        ((gel, x, hel),
         b.ract(b.lact(gel, x), hel) == b.lact(gel, b.ract(x, hel)))
        for gel in b.g.arrows() for x in points.get(b.g.s(gel), ())
        for hel in h_arrows.get(b.s_anchor(x), ()))
    return [witness_finding("left-anchor-invariant", left_w),
            witness_finding("right-anchor-invariant", right_w),
            witness_finding("actions-commute", commute_w)]


def validate_bibundle(b):
    return (validate_action(b.left) + validate_action(b.right)
            + bibundle_compat(b))


def unit_bibundle(g):
    """G acting on its own arrows from both sides."""
    return Bibundle(g, g, *translations(g))


def two_sided_transformation_groupoid(b):
    """Arrows G1 x X x H1; range acts on the left, source on the right."""
    g, h = b.g, b.h
    G1t, triples, index = triple_product(g.s, b.r_anchor, b.s_anchor, h.r)

    def mul(e1, e2):
        g1, x1, h1 = triples[e1]
        g2, x2, h2 = triples[e2]
        return index[(g.mul(g1, g2), b.lact(g.i(g2), x1), h.mul(h1, h2))]

    def inv(e):
        gel, x, hel = triples[e]
        return index[(g.i(gel), b.ract(b.lact(gel, x), hel), h.i(hel))]

    t = build_groupoid(
        b.X, G1t, Mor(G1t, b.X, {e: b.lact(gel, x)
                                 for e, (gel, x, hel) in triples.items()}),
        Mor(G1t, b.X, {e: b.ract(x, hel)
                       for e, (gel, x, hel) in triples.items()}),
        mul, lambda x: index[(g.u(b.r_anchor(x)), x, h.u(b.s_anchor(x)))],
        inv)
    t.triples = triples
    return t


class Actor:
    """A left G-action on the arrows of H commuting with right
    multiplication."""

    def __init__(self, g, h, action):
        if (action.side, action.g, action.X) != ("left", g, h.G1):
            raise BoundaryMismatch("an actor is a left g-action on h's arrows")
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
        ((h1, h2), a.anchor(h.m.table[e]) == a.anchor(h1))
        for e, (h1, h2) in h.pairs.pairing.items())))
    pairs = group_by(h.pairs.pairing.items(), lambda p: a.anchor(p[1][0]))
    out.append(witness_finding("commutes-with-right-mult", first_failure(
        ((gel, h1, h2),
         a.act(gel, h.m.table[e]) == h.mul(a.act(gel, h1), h2))
        for gel in g.arrows() for e, (h1, h2) in pairs.get(g.s(gel), ()))))
    return out


def left_mult_actor(g):
    """G acting on its own arrows by left multiplication."""
    return Actor(g, g, translations(g)[0])


def actor_to_pair(a):
    """Split an actor into a base action on H0 and a functor from the
    left transformation groupoid to H; the action is recovered as
    g·h = F(g, r(h))·h."""
    g, h = a.g, a.h
    r0 = Mor(h.G0, g.G0, {x: a.anchor(h.u(x)) for x in h.objects()})
    base = build_action(g, h.G0, r0, "left",
                        lambda x, gel: h.r(a.act(gel, h.u(x))))
    t = transformation_groupoid(base)
    F1 = Mor(t.G1, h.G1, {e: a.act(gel, h.u(x))
                          for e, (x, gel) in t.parts.items()})
    F = Functor(t, h, identity(h.G0), F1)
    return {"base": base, "functor": F, "transformation": t}


def actor_apply(a, x):
    """Push a left H-action through the actor to a left G-action on the
    same carrier."""
    if (x.side, x.g) != ("left", a.h):
        raise BoundaryMismatch("an actor pushes only left h-actions")
    g, h = a.g, a.h
    r0 = Mor(h.G0, g.G0, {o: a.anchor(h.u(o)) for o in h.objects()})
    return build_action(g, x.X, compose(r0, x.anchor), "left", lambda y, gel:
                        x.apply(y, a.act(gel, h.u(x.anchor(y)))))


def compose_actors(b, a):
    """b: H -> K after a: G -> H; the unique G-action on K1 with
    (g·h)·k = g·(h·k)."""
    if a.h != b.g:
        raise NotAnActor("actor boundaries do not match")
    return Actor(a.g, b.h, actor_apply(a, b.action))


def identity_actor(g):
    return left_mult_actor(g)


def hmap_from_section(h, phi):
    """Right-H-map H1 -> H1 given by left multiplication by a section."""
    return Mor(h.G1, h.G1, {a: h.mul(phi(h.r(a)), a) for a in h.arrows()})


def section_from_hmap(h, f):
    """The unique section with f = left multiplication by it; raises
    NotATranslation, naming an arrow where they differ, when there is
    none."""
    phi = Mor(h.G0, h.G1, {x: f(h.u(x)) for x in h.objects()})
    for a in h.arrows():
        if f(a) != h.mul(phi(h.r(a)), a):
            raise NotATranslation("map is not a left translation at %s" % a)
    return phi


def actor_two_arrow(phi, m1, m2):
    """Is the section phi of K a 2-arrow from actor m1 to m2 (both
    G -> K)?"""
    g, k = m1.g, m1.h

    def shift(kel):
        return k.mul(phi(k.r(kel)), kel)

    return all(m2.anchor(shift(kel)) == g.s(gel)
               and shift(m1.act(gel, kel)) == m2.act(gel, shift(kel))
               for gel, kel in m1.action.pairs.pairing.values())


def actor_horizontal(psi, phi, b2):
    """Horizontal product of actor 2-arrows: phi between G -> H actors,
    psi between H -> K actors; the value acts through the second
    K-side actor's module structure."""
    k = b2.h
    return Mor(k.G0, k.G1, {x: b2.act(phi(b2.anchor(psi(x))), psi(x))
                            for x in k.objects()})


def enumerate_actions(g, X, anchor, side="right"):
    """All actions of the groupoid g on X with the given anchor: a
    backtracking search over the multiplication table in which sending a
    cell (x, p) to y forces the cells (y, q) and (x, p then q) to agree.

    Candidates over the end where a cell lands prove anchor-compat, the
    forced unit cells, assigned first, the unit axiom.  Through them the
    links of inverse arrows reach every associativity case, whichever of
    its cells comes last; for a groupoid g the axioms imply the
    cross-checks.  A leaf is checked only for continuity on finite
    spaces, by ``Mor``."""
    order, key, cells = _SIDES[side]
    matched, lands = order(g.r, g.s)
    over = group_by(X.elements, anchor)
    # the cell (x, p) needs a point over the end where x·p lands
    if any(lands(p) not in over for p in g.arrows() if matched(p) in over):
        return
    pairs = action_pairs(g, anchor, side)
    steps = _steps(g, side)
    cell = list(cells(pairs.pairing))
    cand = {e: over[lands(p)] for e, x, p in cell}
    # the unit cell of x sends x to x; assigned first, they force most
    units = {key(x, g.u(anchor(x))): x for x in X.elements}
    cand.update((e, [x]) for e, x in units.items())
    # the cells (y, q) and (x, p then q) that must agree once (x, p) is
    # sent to y
    links = {(e, y): [(key(y, q), key(x, pq)) for q, pq in steps[p]]
             for e, x, p in cell for y in cand[e]}

    def implied(e, y, assign):
        return [(e3, assign[e2]) if e2 in assign else (e2, assign[e3])
                for e2, e3 in links[e, y] if e2 in assign or e3 in assign]

    free = [e for e in cand if e not in units]
    for assign in backtrack(list(units) + free, cand, implied):
        try:
            mult = Mor(pairs.apex, X, assign)
        except NotAMorphism:
            continue
        yield Action(g, X, anchor, mult, side, pairs)
