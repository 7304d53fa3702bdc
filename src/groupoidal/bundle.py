"""Principal bundles and orbit spaces.

An action, of either side, is principal over a projection p when p is
an invariant cover and the shear map (x, g) -> (x, x·g), or (g, x) ->
(g·x, x), onto the fibre product of p with itself is invertible;
"basic" means principal over the quotient by the action.
"""

from collections import Counter

from .site_core import (BoundaryMismatch, Finding, Mor, NotAMorphism,
                        SiteError, coequalizer, compose, descend,
                        fibre_product, identity, inverse, is_cover, is_iso,
                        passed, require, require_ends, shear)
from .groupoid import cech_groupoid
from .action import is_invariant, transformation_groupoid
from .morphism import Functor


class NotPrincipal(SiteError):
    pass


class NotBasic(SiteError):
    pass


def orbit_space(a):
    """Coequalizer of the two maps out of the action fibre product."""
    return coequalizer(a.point, a.mult)


def bundle_shear(a, proj):
    """The shear (x, g) -> (x, x·g), or (g, x) -> (g·x, x) for a left
    action, into the fibre product PP of proj with itself, and PP."""
    PP = fibre_product(proj, proj)
    return shear(a.pairs, a.mult, PP, a.order(0, 1)[0]), PP


def check_principal(a, proj, shear=None):
    """Findings for principality of an action over proj; ``shear`` is
    bundle_shear(a, proj) when the caller has built it.  Without it, on a
    finite set and an invariant proj, the shear is counted, not built: it
    is an iso when the pairs (x, x·g) are distinct and as many as the
    points of X x_Z X, the sum of the squared fibre sizes of proj.  On a
    finite space or a proj that is not invariant it is built and tested."""
    if proj.dom != a.X:
        raise BoundaryMismatch("check_principal: proj = %r must start at %r"
                               % (proj, a.X))
    invariant = is_invariant(a, proj)
    out = [Finding("projection-cover", is_cover(proj), None),
           Finding("projection-invariant", invariant, None)]
    if shear is None and invariant and a.X.backend == "finset":
        pt, mt = a.point.table, a.mult.table
        pairs = {(pt[e], y) for e, y in mt.items()}
        squares = sum(n * n for n in Counter(proj.table.values()).values())
        out.append(Finding("shear-iso",
                           len(pairs) == len(mt) == squares, None))
        return out
    try:
        sh, PP = shear or bundle_shear(a, proj)
        out.append(Finding("shear-iso", is_iso(sh), None))
    except (KeyError, NotAMorphism) as exc:
        out.append(Finding("shear-iso", False, str(exc)))
    return out


class PrincipalBundle:
    def __init__(self, action, proj):
        try:
            shear = bundle_shear(action, proj)
        except (KeyError, NotAMorphism):
            shear = None    # not principal: check_principal says why
        require(check_principal(action, proj, shear), NotPrincipal)
        self.action, self.proj = action, proj
        self.g = action.g
        self.X, self.Z = action.X, proj.cod
        self.shear, self.PP = shear
        self.shear_inverse = inverse(self.shear)

    def solve(self, x1, x2):
        """The unique arrow g with x1·g = x2, or g·x1 = x2 (requires
        equal fibres)."""
        try:
            e = self.shear_inverse(
                self.PP.index[self.action.order(x1, x2)])
        except KeyError:
            raise BoundaryMismatch("solve: %r and %r are not two points of "
                                   "one fibre" % (x1, x2)) from None
        return self.action.cell(e)[1]

    def __repr__(self):
        return "PrincipalBundle(|X|=%d, |Z|=%d)" % (len(self.X), len(self.Z))


def is_basic(a):
    """Principal over the orbit space, with backend cross-checks: the
    flag, the orbit space and the cross-check findings.  On a finite set
    the shear is counted, not built; on a finite space it is built once,
    for the flag and the cross-check.  A caller that needs the bundle of
    a basic action builds PrincipalBundle(a, res["orbits"].proj)."""
    coeq = orbit_space(a)
    # the orbit map is invariant, so the shear is always defined
    shear = bundle_shear(a, coeq.proj) if a.X.backend == "fintop" else None
    flag = passed(check_principal(a, coeq.proj, shear))
    mt, ut, rt = a.mult.table, a.g.u.table, a.g.r.table
    free = all(gel == ut[rt[gel]] for e, x, gel in a.cells() if mt[e] == x)
    cross = []
    if a.X.backend == "finset":
        cross.append(Finding("basic-iff-free", flag == free, None))
    else:
        # freeness plus continuity of the shear inverse plus the quotient
        # map being a cover
        alt = free and is_iso(shear[0]) and is_cover(coeq.proj)
        cross.append(Finding("basic-iff-free-and-continuous",
                             flag == alt, None))
    return {"flag": flag, "orbits": coeq, "cross": cross}


def pullback_bundle(b, f):
    """Pull a principal bundle back along f: Z' -> Z."""
    if f.cod != b.Z:
        raise BoundaryMismatch("pullback_bundle: f must land in the base")
    FP = fibre_product(f, b.proj)

    def rule(w, gel):
        z, x = FP.pairing[w]
        return FP.index[(z, b.action.apply(x, gel))]

    act = b.action.on(FP.apex, compose(b.action.anchor, FP.pr2), rule)
    out = PrincipalBundle(act, FP.pr1)
    out.to_total = FP.pr2
    return out


def induced_base_map(f, b1, b2):
    """The map on bases induced by an equivariant map of total spaces."""
    require_ends(f.f, b1.X, b2.X, "induced_base_map: f")
    return descend(b1.Z, b2.Z,
                   ((b1.proj(x), b2.proj(f.f(x))) for x in b1.X.elements))


def basic_witness_functor(a):
    """For a basic action, the identity-on-objects isomorphism from the
    transformation groupoid to the kernel-pair groupoid of the quotient
    map, sending each arrow to the pair of its range and source.  Raises
    NotBasic when ``a`` is not basic."""
    res = is_basic(a)
    if not res["flag"]:
        raise NotBasic("action is not basic")
    t = transformation_groupoid(a)
    c = cech_groupoid(res["orbits"].proj)
    F1 = Mor(t.G1, c.G1,
             {e: c.kernel.index[(t.r(e), t.s(e))] for e in t.arrows()})
    return Functor(t, c, identity(a.X), F1)


def cech_action_reconstruction(a, p):
    """For an action of the kernel-pair groupoid of p: X -> Z on Y, the
    isomorphism from Y to (orbit space) x_Z X given by y -> ([y], anchor y)."""
    coeq = orbit_space(a)
    pz = descend(coeq.quotient, p.cod,
                 ((coeq.proj(y), p(a.anchor(y))) for y in a.X.elements))
    FP = fibre_product(pz, p)
    tbl = {y: FP.index[(coeq.proj(y), a.anchor(y))] for y in a.X.elements}
    iso = Mor(a.X, FP.apex, tbl)
    return {"iso": iso, "base": coeq, "fp": FP}
