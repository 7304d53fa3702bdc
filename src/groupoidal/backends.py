"""Constructors and predicates for the two concrete sites.

Finite sets with surjections, and finite topological spaces with open
surjections.  Spaces are built from an explicit open-set family, checked
for lattice closure, and stored via minimal open neighbourhoods.
"""

from itertools import combinations, permutations, product

from .site_core import (PAIR_SEP, Obj, SiteError, DuplicateElement,
                        NotATopology, backtrack)


class BadElementId(SiteError):
    pass


def _plain_ids(elements):
    """The ids as strings; BadElementId if one holds ``PAIR_SEP``, which
    joins the two ids of a fibre-product point."""
    elements = [str(e) for e in elements]
    for e in elements:
        if PAIR_SEP in e:
            raise BadElementId("element id %r contains %r" % (e, PAIR_SEP))
    return elements


def make_finset(elements):
    return Obj("finset", _plain_ids(elements))


def make_finspace(elements, opens):
    """Build a finite space from its open-set family.

    The family must contain the empty set and the full carrier and be
    closed under pairwise union and intersection; for a finite carrier
    that is exactly a topology.
    """
    elements = _plain_ids(elements)
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
    return Obj("fintop", elements, {x: eset.intersection(
        *(u for u in family if x in u)) for x in elements})


def sierpinski():
    return make_finspace(["0", "1"], [[], ["1"], ["0", "1"]])


def discrete(elements):
    elements = [str(e) for e in elements]
    return Obj("fintop", elements, {x: frozenset([x]) for x in elements})


def indiscrete(elements):
    elements = [str(e) for e in elements]
    return Obj("fintop", elements, {x: frozenset(elements) for x in elements})


def all_finsets(max_size):
    """One finset per cardinality 0..max_size with canonical ids."""
    return [make_finset(["x%d" % i for i in range(n)])
            for n in range(max_size + 1)]


def _preorders(n):
    """Every preorder on range(n), as the tuple of its up-sets as
    bitmasks: ``up[x]`` holds x and, with each y it holds, ``up[y]``."""
    masks = {x: [m for m in range(1 << n) if m >> x & 1] for x in range(n)}
    for up in backtrack(range(n), masks, lambda x, m, assign: None if any(
            m >> y & 1 and u & ~m or u >> x & 1 and m & ~u
            for y, u in assign.items()) else []):
        yield tuple(up[x] for x in range(n))


def _canonical(up):
    """The least relabelling of a preorder (its up-sets as bitmasks) by
    the permutations that list its points in the order of the invariant
    (|up(x)|, |down(x)|).  Isomorphisms keep the invariant, so
    homeomorphic preorders reach the same relabellings."""
    n = len(up)
    inv = [(bin(u).count("1"), sum(v >> x & 1 for v in up))
           for x, u in enumerate(up)]
    cells = [[x for x in range(n) if inv[x] == v] for v in sorted(set(inv))]
    return min(tuple(sorted(
        (p[x], sum(1 << p[y] for y in range(n) if up[x] >> y & 1))
        for x in range(n))) for p in ({x: k for k, x in enumerate(
            sum(parts, ()))} for parts in product(*map(permutations, cells))))


def all_finspaces(max_size, up_to_homeo=True):
    """Finite spaces with at most max_size points: on n points, the
    up-set families of the preorders, in the order of the bitmasks of
    their proper open sets over the ``combinations`` of points.  With
    ``up_to_homeo`` only the first space of each homeomorphism class is
    kept (relabelling a space changes no cover/axiom verdict)."""
    spaces = []
    for n in range(max_size + 1):
        elements = ["x%d" % i for i in range(n)]
        bit = {sum(1 << x for x in c): 1 << i for i, c in enumerate(
            c for k in range(1, n) for c in combinations(range(n), k))}
        tops = []
        for up in _preorders(n):
            opens = [s for s in range(1 << n)
                     if all(up[x] & ~s == 0 for x in range(n) if s >> x & 1)]
            tops.append((sum(bit.get(s, 0) for s in opens), up, opens))
        seen = set()
        for _, up, opens in sorted(tops):
            if up_to_homeo:
                canon = _canonical(up)
                if canon in seen:
                    continue
                seen.add(canon)
            spaces.append(make_finspace(elements, [
                [elements[x] for x in range(n) if s >> x & 1]
                for s in opens]))
    return spaces


def all_objects(backend, max_size, up_to_homeo=True):
    if backend == "finset":
        return all_finsets(max_size)
    return all_finspaces(max_size, up_to_homeo)
