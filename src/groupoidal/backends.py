"""Constructors and predicates for the two concrete sites.

Finite sets with surjections, and finite topological spaces with open
surjections.  Spaces are built from an explicit open-set family, checked
for lattice closure, and stored via minimal open neighbourhoods.
"""

from itertools import permutations

from .site_core import Obj, SiteError, BackendMismatch, is_open_map


class DuplicateElement(SiteError):
    pass


class NotATopology(SiteError):
    pass


def make_finset(elements, name=None):
    elements = [str(e) for e in elements]
    if len(set(elements)) != len(elements):
        raise DuplicateElement("repeated id in %r" % (elements,))
    obj = Obj("finset", elements)
    obj.name = name
    return obj


def make_finspace(elements, opens, name=None):
    """Build a finite space from its open-set family.

    The family must contain the empty set and the full carrier and be
    closed under pairwise union and intersection; for a finite carrier
    that is exactly a topology.
    """
    elements = [str(e) for e in elements]
    if len(set(elements)) != len(elements):
        raise DuplicateElement("repeated id in %r" % (elements,))
    eset = frozenset(elements)
    family = {frozenset(str(x) for x in u) for u in opens}
    for u in family:
        if not u <= eset:
            raise NotATopology("open set %r not inside the carrier" % (sorted(u),))
    if frozenset() not in family:
        raise NotATopology("empty set missing")
    if eset not in family:
        raise NotATopology("full set missing")
    for u in family:
        for v in family:
            if u | v not in family:
                raise NotATopology("union of %r and %r missing" %
                                   (sorted(u), sorted(v)))
            if u & v not in family:
                raise NotATopology("intersection of %r and %r missing" %
                                   (sorted(u), sorted(v)))
    nbhd = {}
    for x in elements:
        n = eset
        for u in family:
            if x in u:
                n = n & u
        nbhd[x] = n
    obj = Obj("fintop", elements, nbhd)
    obj.name = name
    # the family must be recovered exactly as the open sets of the space
    assert set(obj.opens()) == family, "family is not a topology"
    return obj


def fintop_is_open(f):
    if f.dom.backend != "fintop":
        raise BackendMismatch("openness is a fintop notion")
    return is_open_map(f)


def specialization_preorder(x):
    return x.specialization()


def is_monotone(f):
    """Order-preservation for the specialization preorders; equivalent to
    continuity, cross-checked in tests against the open-set definition."""
    if f.dom.backend != "fintop":
        raise BackendMismatch("monotonicity is a fintop notion")
    le_cod = f.cod.specialization()
    return all((f(a), f(b)) in le_cod for (a, b) in f.dom.specialization())


def sierpinski():
    return make_finspace(["0", "1"], [[], ["1"], ["0", "1"]], name="SIER")


def discrete(elements, name=None):
    elements = [str(e) for e in elements]
    nbhd = {x: frozenset([x]) for x in elements}
    obj = Obj("fintop", elements, nbhd)
    obj.name = name
    return obj


def indiscrete(elements, name=None):
    elements = [str(e) for e in elements]
    full = frozenset(elements)
    obj = Obj("fintop", elements, {x: full for x in elements})
    obj.name = name
    return obj


def all_finsets(max_size):
    """One finset per cardinality 0..max_size with canonical ids."""
    return [make_finset(["x%d" % i for i in range(n)])
            for n in range(max_size + 1)]


def _all_topologies(elements):
    """Every topology on the given carrier, as families of frozensets."""
    elements = list(elements)
    eset = frozenset(elements)
    proper = []
    for k in range(1, len(elements)):
        from itertools import combinations
        proper.extend(frozenset(c) for c in combinations(elements, k))
    out = []
    for bits in range(1 << len(proper)):
        family = {frozenset(), eset}
        for i, u in enumerate(proper):
            if bits >> i & 1:
                family.add(u)
        if all(a | b in family and a & b in family
               for a in family for b in family):
            out.append(family)
    return out


def all_finspaces(max_size, up_to_homeo=True):
    """Finite spaces with at most max_size points.

    With ``up_to_homeo`` only one representative per homeomorphism class
    is kept (relabelling a space changes no cover/axiom verdict).
    """
    spaces = []
    for n in range(max_size + 1):
        elements = ["x%d" % i for i in range(n)]
        seen = set()
        for family in _all_topologies(elements):
            if up_to_homeo:
                canon = min(
                    tuple(sorted(tuple(sorted(p[x] for x in u))
                                 for u in family))
                    for p in ({x: y for x, y in zip(elements, perm)}
                              for perm in permutations(elements)))
                if canon in seen:
                    continue
                seen.add(canon)
            spaces.append(make_finspace(elements, family))
    return spaces


def all_objects(backend, max_size, up_to_homeo=True):
    if backend == "finset":
        return all_finsets(max_size)
    return all_finspaces(max_size, up_to_homeo)
