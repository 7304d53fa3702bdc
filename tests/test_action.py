import pytest

import groupoidal.action as action_module
from groupoidal.site_core import (Mor, all_maps, compose, fibre_product,
                                  first_failure, identity, is_cover,
                                  pair_id, passed, terminal, to_terminal)
from groupoidal.backends import make_finset
from groupoidal.groupoid import (cyclic_groupoid, pair_groupoid,
                                 unit_groupoid, validate_groupoid)
from groupoidal.bundle import is_basic
from groupoidal.action import (Action, Actor, Bibundle, GMap, NotAnActor,
                               NotATranslation,
                               action_fibre_product, actor_apply,
                               actor_horizontal, actor_to_pair,
                               actor_two_arrow, build_action,
                               canonical_action,
                               compose_actors, enumerate_actions,
                               hmap_from_section, identity_actor,
                               is_invariant,
                               left_mult_actor, opposite,
                               section_from_hmap,
                               transformation_groupoid, translations,
                               two_sided_transformation_groupoid,
                               unit_bibundle, validate_action, validate_actor,
                               validate_bibundle, validate_gmap)


def test_swap_is_an_action(SWAP):
    assert passed(validate_action(SWAP))
    assert is_cover(SWAP.anchor)
    assert SWAP.act("a", "1") == "b"
    assert SWAP.act("a", "0") == "a"


def test_broken_unit_caught(Z2, S2):
    anchor = Mor(S2, Z2.G0, {"a": "*", "b": "*"})
    pairs = fibre_product(anchor, Z2.r)
    tbl = {e: "a" for e in pairs.apex.elements}
    bad = Action(Z2, S2, anchor, Mor(pairs.apex, S2, tbl), "right", pairs)
    rep = validate_action(bad)
    assert not passed(rep)
    names = {f.check for f in rep if not f.ok}
    assert "unit" in names


def test_canonical_action(CECH2):
    a = canonical_action(CECH2)
    assert passed(validate_action(a))
    # acting by the arrow (a, b) moves a to b
    e = CECH2.kernel.index[("a", "b")]
    assert a.act("a", e) == "b"


def test_left_right_conversion_roundtrip(SWAP):
    l = opposite(SWAP)
    assert passed(validate_action(l))
    back = opposite(l)
    assert back.mult == SWAP.mult
    assert l.act("1", "a") == "b"


def test_transformation_groupoid_of_swap(SWAP):
    t = transformation_groupoid(SWAP)
    assert len(t.G0) == 2 and len(t.G1) == 4
    assert passed(validate_groupoid(t))
    # free and transitive: it is the pair groupoid on {a, b}
    arrows = {(t.r(e), t.s(e)) for e in t.arrows()}
    assert arrows == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_left_transformation_groupoid(SWAP):
    l = opposite(SWAP)
    t = transformation_groupoid(l)
    assert passed(validate_groupoid(t))
    assert len(t.G1) == 4
    # range is the multiplication, source the carrier coordinate
    for e, (x, gel) in t.parts.items():
        assert t.s(e) == x
        assert t.r(e) == l.act(gel, x)


def test_gmap_and_invariance(SWAP, Z2, S2, PT, p2):
    f = GMap(SWAP, SWAP, Mor(S2, S2, {"a": "b", "b": "a"}))
    assert passed(validate_gmap(f))
    bad = GMap(SWAP, SWAP, Mor(S2, S2, {"a": "a", "b": "a"}))
    assert not passed(validate_gmap(bad))
    assert is_invariant(SWAP, p2)
    assert not is_invariant(SWAP, identity(S2))


def test_action_fibre_product_diagonal(SWAP, S2):
    f = GMap(SWAP, SWAP, identity(S2))
    diag, pr1, pr2 = action_fibre_product(f, f)
    # only matching pairs survive: the diagonal of S2 x S2
    assert len(diag.X) == 2
    assert passed(validate_action(diag))


def test_unit_bibundle(Z2, CECH2):
    for g in (Z2, CECH2):
        b = unit_bibundle(g)
        assert passed(validate_bibundle(b))
        assert b.X == g.G1


def test_bibundle_validation_catches_noncommuting(Z4):
    """Z/4 on its arrows by left multiplication, and on the right by
    multiplication with the one value 1·1 corrupted to 3.  (Twisting the
    right action by inversion would not do: Z/4 is abelian, so that still
    commutes.)  The actions fail to commute at the old loops' first case,
    1·(0·1) = 2 against (1·0)·1 = 3."""
    g = Z4
    left = Action(g, g.G1, g.r, g.m, "left", g.pairs)
    assert passed(validate_bibundle(Bibundle(g, g, left, Action(
        g, g.G1, g.s, g.m, "right", g.pairs))))
    corrupt = Mor(g.m.dom, g.G1, {**g.m.table, pair_id("1", "1"): "3"})
    b = Bibundle(g, g, left, Action(g, g.G1, g.s, corrupt, "right", g.pairs))
    found = {f.check: f for f in validate_bibundle(b)}
    want = first_failure(old_actions_commute_cases(b))
    assert want == ("1", "0", "1")
    assert found["actions-commute"].witness == want


def old_actions_commute_cases(b):
    """The actions-commute cases of ``validate_bibundle`` as first
    written: every point and every H-arrow, filtered by the anchors."""
    for gel in b.g.arrows():
        for x in b.X.elements:
            if b.r_anchor(x) != b.g.s(gel):
                continue
            for hel in b.h.arrows():
                if b.s_anchor(x) == b.h.r(hel):
                    yield (gel, x, hel), (b.ract(b.lact(gel, x), hel)
                                          == b.lact(gel, b.ract(x, hel)))


def test_noncommuting_bibundle_keeps_its_witness(S3, Z3):
    """The pair groupoid of S3 acts on its arrows by left multiplication,
    and Z/3 on the right by turning the arrows c|c, c|d and c|e (which
    share their range, so the turn keeps the left anchor).  The actions
    do not commute, and the first failing case is the old loops' first."""
    g = pair_groupoid(S3)
    turn = ["c|c", "c|d", "c|e"]
    right = build_action(Z3, g.G1, to_terminal(g.G1), "right", lambda x, h: (
        turn[(turn.index(x) + int(h)) % 3] if x in turn else x))
    b = Bibundle(g, Z3, translations(g)[0], right)
    report = validate_bibundle(b)
    assert [f.check for f in report if not f.ok] == ["actions-commute"]
    want = first_failure(old_actions_commute_cases(b))
    assert want is not None and report[-1].witness == want
    assert first_failure(old_actions_commute_cases(unit_bibundle(g))) is None


def test_two_sided_transformation_groupoid(Z2):
    b = unit_bibundle(Z2)
    t = two_sided_transformation_groupoid(b)
    assert passed(validate_groupoid(t))
    assert len(t.G1) == 2 * 2 * 2
    for e, (gel, x, hel) in t.triples.items():
        assert t.r(e) == b.lact(gel, x)
        assert t.s(e) == b.ract(x, hel)


def test_left_mult_actor_and_pair(Z4):
    a = left_mult_actor(Z4)
    assert passed(validate_actor(a))
    pair = actor_to_pair(a)
    assert passed(validate_action(pair["base"]))
    # reconstruction g·h = F(g, r(h))·h is checked in test_postconditions.py
    t = pair["transformation"]
    assert len(t.G1) == 4


def test_actor_apply_and_compose(Z2, Z4):
    a = left_mult_actor(Z2)
    pushed = actor_apply(a, a.action)
    assert passed(validate_action(pushed))
    c = compose_actors(identity_actor(Z2), a)
    assert passed(validate_actor(c))
    assert c.action.mult == a.action.mult
    with pytest.raises(NotAnActor):
        compose_actors(left_mult_actor(Z4), a)


def test_actor_apply_does_not_split_the_actor(CECH2, monkeypatch):
    """actor_apply reads the base anchor off the actor directly."""
    a = left_mult_actor(CECH2)
    want = compose(actor_to_pair(a)["base"].anchor, a.action.anchor)

    def refuse(_):
        raise RuntimeError("actor_to_pair called")

    monkeypatch.setattr(action_module, "actor_to_pair", refuse)
    pushed = actor_apply(a, a.action)
    assert pushed.anchor == want
    assert pushed.mult == a.action.mult


def test_validate_actor_witnesses(Z3):
    """First failing cases of the two actor checks, walked from h.pairs."""
    P = pair_groupoid(make_finset(["u", "v"]))
    U = unit_groupoid(P.G0)
    # the source is no anchor for an actor: it is not right-invariant
    by_source = build_action(U, P.G1, P.s, "left", lambda x, gel: x)
    rep = {f.check: f for f in validate_actor(Actor(U, P, by_source))}
    assert rep["anchor-right-invariant"].witness == ("u|u", "u|v")
    assert rep["commutes-with-right-mult"].witness == \
        "undefined composite at 'u|u|v'"
    # left multiplication changed at 1·2 and 2·0: failing cases exist for
    # g = 1 and g = 2, and the one of g = 1 comes first
    twist = {("1", "2"): "1", ("2", "0"): "0"}
    twisted = build_action(Z3, Z3.G1, Z3.r, "left", lambda x, gel:
                           twist.get((gel, x), Z3.mul(gel, x)))
    rep = {f.check: f for f in validate_actor(Actor(Z3, Z3, twisted))}
    assert rep["anchor-right-invariant"].ok
    assert rep["commutes-with-right-mult"].witness == ("1", "0", "2")


def test_section_hmap_round_trip(Z4):
    phi = Mor(Z4.G0, Z4.G1, {"*": "3"})
    f = hmap_from_section(Z4, phi)
    assert section_from_hmap(Z4, f) == phi
    notrans = Mor(Z4.G1, Z4.G1, {"0": "0", "1": "0", "2": "0", "3": "0"})
    with pytest.raises(NotATranslation):
        section_from_hmap(Z4, notrans)


def test_actor_two_arrow(Z4):
    a = left_mult_actor(Z4)
    # in an abelian group every translation intertwines left mult with itself
    for k in "0123":
        phi = Mor(Z4.G0, Z4.G1, {"*": k})
        assert actor_two_arrow(phi, a, a)


def test_actor_horizontal_is_section(Z4):
    a = left_mult_actor(Z4)
    phi = Mor(Z4.G0, Z4.G1, {"*": "1"})
    psi = Mor(Z4.G0, Z4.G1, {"*": "2"})
    out = actor_horizontal(psi, phi, a)
    assert out.table == {"*": "3"}
    assert actor_two_arrow(out, a, a)


def test_actor_horizontal_interchange(Z4):
    """Horizontal product of two 2-arrows agrees with the vertical product
    of its whiskerings."""
    a = left_mult_actor(Z4)
    phi = Mor(Z4.G0, Z4.G1, {"*": "1"})
    psi = Mor(Z4.G0, Z4.G1, {"*": "3"})
    horiz = actor_horizontal(psi, phi, a)
    left_whisker = actor_horizontal(psi, Mor(Z4.G0, Z4.G1, {"*": "0"}), a)
    right_whisker = actor_horizontal(Mor(Z4.G0, Z4.G1, {"*": "0"}), phi, a)
    vert = {x: Z4.mul(left_whisker(x), right_whisker(x))
            for x in Z4.objects()}
    assert horiz.table == vert


SMALL_GROUPOIDS = ("Z2", "Z3", "Z4", "CECH2", "CECH3")


def small_carriers():
    return [make_finset(["p%d" % i for i in range(k)]) for k in (1, 2, 3, 4)]


def test_enumerate_actions_counts(Z2, S2, request):
    anchor = Mor(S2, Z2.G0, {"a": "*", "b": "*"})
    acts = list(enumerate_actions(Z2, S2, anchor))
    # trivial and the exchange action
    assert len(acts) == 2
    tables = {frozenset(a.mult.table.items()) for a in acts}
    assert len(tables) == 2
    lacts = list(enumerate_actions(Z2, S2, anchor, side="left"))
    assert len(lacts) == 2
    # every action has an opposite, so both sides count the same
    for name in SMALL_GROUPOIDS:
        g = request.getfixturevalue(name)
        for X in small_carriers():
            for a in all_maps(X, g.G0):
                assert (len(list(enumerate_actions(g, X, a, "right"))) ==
                        len(list(enumerate_actions(g, X, a, "left"))))


@pytest.mark.parametrize("name", SMALL_GROUPOIDS)
def test_opposite_agrees_with_action(name, request):
    """An action and its opposite give the same verdicts, orbit space
    and transformation groupoid size: the consumers are side-blind."""
    g = request.getfixturevalue(name)
    checked = 0
    for X in small_carriers():
        for anchor in all_maps(X, g.G0):
            for side in ("right", "left"):
                for a in enumerate_actions(g, X, anchor, side):
                    o = opposite(a)
                    assert o.side != a.side
                    assert opposite(o).mult == a.mult
                    assert passed(validate_action(o)) == \
                        passed(validate_action(a))
                    ba, bo = is_basic(a), is_basic(o)
                    assert ba["flag"] == bo["flag"]
                    assert len(ba["orbits"].quotient) == \
                        len(bo["orbits"].quotient)
                    ta = transformation_groupoid(a)
                    to = transformation_groupoid(o)
                    assert passed(validate_groupoid(ta))
                    assert passed(validate_groupoid(to))
                    assert len(ta.G1) == len(to.G1)
                    checked += 1
    assert checked >= 10


def test_associativity_witness_keeps_the_side():
    """1 and 2 both act as one step of a 3-cycle: unital but not
    associative.  A left action reports (g1, g2, x) with
    g1·(g2·x) != (g1 g2)·x, a right one (x, g1, g2)."""
    Z3 = cyclic_groupoid(3)
    X = make_finset(["p", "q", "r"])
    anchor = Mor(X, Z3.G0, {x: "*" for x in X.elements})
    step = {"p": "q", "q": "r", "r": "p"}

    def rule(x, gel):
        return x if gel == "0" else step[x]

    for side, witness in (("left", ("1", "1", "p")),
                          ("right", ("p", "1", "1"))):
        a = build_action(Z3, X, anchor, side, rule)
        found = {f.check: f for f in validate_action(a)}
        assert found["unit"].ok
        assert found["associativity"].witness == witness
        if side == "left":
            g1, g2, x = witness
            assert a.act(g1, a.act(g2, x)) != a.act(Z3.mul(g1, g2), x)
        else:
            x, g1, g2 = witness
            assert a.act(a.act(x, g1), g2) != a.act(x, Z3.mul(g1, g2))


def test_enumerate_actions_z3_on_three():
    Z3 = cyclic_groupoid(3)
    X = make_finset(["p", "q", "r"])
    anchor = to_terminal(X)
    anchor = Mor(X, Z3.G0, {x: "*" for x in X.elements})
    acts = list(enumerate_actions(Z3, X, anchor))
    # Z/3-actions on a 3-element set: trivial plus the two free 3-cycles
    assert len(acts) == 3
