"""Finite sites: objects, morphisms, fibre products, coequalizers, covers.

Two backends share one object/morphism representation.  A "finset" object
is a bare finite carrier and the covers are the surjections.  A "fintop"
object is a finite topological space and the covers are the open
surjections.  Every finite space is determined by its minimal open
neighbourhoods (the open sets are exactly the up-sets of the
specialization preorder), so the topology is carried as the table
``nbhd: element -> minimal open set containing it``; a set is open when
it holds the minimal open set of each of its points.  Everything is
exact: no floats, no randomness, carriers are tuples of string ids.
"""

from collections import namedtuple
from functools import cache, cached_property
from itertools import count, product


class SiteError(Exception):
    pass


class BackendMismatch(SiteError):
    pass


class BoundaryMismatch(SiteError):
    pass


class NotACover(SiteError):
    pass


class BudgetExceeded(SiteError):
    pass


class NotWellDefined(SiteError):
    pass


class NotAMorphism(SiteError):
    pass


class DuplicateElement(SiteError):
    pass


class NotATopology(SiteError):
    pass


PAIR_SEP = "|"


def pair_id(left, right):
    """Canonical id of a fibre-product element (left, right)."""
    return left + PAIR_SEP + right


def group_by(xs, key):
    """The items of ``xs`` grouped by ``key``, each group in the order of
    ``xs``: the index a join walks instead of filtering a nested loop."""
    out = {}
    for x in xs:
        out.setdefault(key(x), []).append(x)
    return out


class Obj:
    """A finite carrier, optionally with a topology.

    ``nbhd`` maps each element to its minimal open neighbourhood
    (a frozenset).  ``nbhd is None`` means the finset backend.
    """

    def __init__(self, backend, elements, nbhd=None):
        if backend != ("finset" if nbhd is None else "fintop"):
            raise BackendMismatch("backend %r with topology %r: a finset "
                                  "object has none, a fintop object one"
                                  % (backend, nbhd))
        elements = tuple(map(str, elements))
        if len(set(elements)) != len(elements):
            raise DuplicateElement("repeated id in %r" % (list(elements),))
        eset = frozenset(elements)
        if nbhd is not None:
            nbhd = {x: frozenset(n) for x, n in nbhd.items()}
            if nbhd.keys() != eset:
                raise NotATopology("each point needs one minimal open set")
            for x in elements:
                n = nbhd[x]
                if x not in n or not n <= eset:
                    raise NotATopology("minimal open set %r of %s must hold "
                                       "it and lie in the carrier"
                                       % (sorted(n), x))
                for y in n:
                    if not nbhd[y] <= n:
                        raise NotATopology("minimal open sets must nest, at "
                                           "%s and %s" % (x, y))
        self.backend = backend
        self.elements = elements
        self.eset = eset
        self.nbhd = nbhd

    def is_open(self, s):
        if self.backend != "fintop":
            raise BackendMismatch("only a fintop object has open sets")
        s = frozenset(s)
        if not s <= self.eset:
            raise BoundaryMismatch("%r is not inside the carrier" % sorted(s))
        return all(self.nbhd[x] <= s for x in s)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Obj):
            return NotImplemented
        return (self.backend == other.backend and self.eset == other.eset
                and self.nbhd == other.nbhd)

    def __hash__(self):
        if self.nbhd is None:
            return hash((self.backend, self.eset))
        return hash((self.backend, self.eset,
                     frozenset(self.nbhd.items())))

    def __repr__(self):
        return "Obj(%r, %r)" % (self.backend, list(self.elements))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self.eset


def _table_fault(dom, cod, table):
    """Why ``table`` does not define a morphism dom -> cod, or None."""
    if table.keys() != dom.eset:
        odd = [k for k in table if not isinstance(k, str)]
        return ("map keys must be element ids, not %r" % (odd[0],) if odd
                else "map must be total on the domain, at %s" % min(
                    dom.eset ^ table.keys()))
    try:
        lands = cod.eset.issuperset(table.values())
    except TypeError:   # an unhashable value is no element id
        lands = False
    if not lands:
        return "images must land in the codomain"
    if dom.backend == "fintop":
        # continuity = monotonicity for the specialization preorder
        for x in dom.elements:
            nx = cod.nbhd[table[x]]
            for y in dom.nbhd[x]:
                if table[y] not in nx:
                    return "map must be continuous"
    return None


def valid_mor_table(dom, cod, table):
    """Would ``table`` define a morphism dom -> cod?  (No exceptions.)"""
    return _table_fault(dom, cod, table) is None


class Mor:
    def __init__(self, dom, cod, table):
        if dom.backend != cod.backend:
            raise BackendMismatch("%s vs %s" % (dom.backend, cod.backend))
        table = dict(table)
        fault = _table_fault(dom, cod, table)
        if fault:
            raise NotAMorphism(fault)
        self.dom = dom
        self.cod = cod
        self.table = table

    def __call__(self, x):
        return self.table[x]

    def image(self, s):
        return frozenset(self.table[x] for x in s)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Mor):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.table == other.table)

    def __hash__(self):
        return hash((self.dom, self.cod, frozenset(self.table.items())))

    def __repr__(self):
        return "Mor(%r -> %r, %r)" % (list(self.dom.elements),
                                      list(self.cod.elements), self.table)


def identity(x):
    return Mor(x, x, {e: e for e in x.elements})


def compose(f, g):
    """f after g."""
    if f.dom.backend != g.dom.backend:
        raise BackendMismatch("cannot compose across backends")
    if g.cod != f.dom:
        raise BoundaryMismatch("cod of inner map differs from dom of outer map")
    return Mor(g.dom, f.cod, {x: f(g(x)) for x in g.dom.elements})


def is_surjective(f):
    return set(f.table.values()) == set(f.cod.eset)


def is_open_map(f):
    """Image of every dom-open is a cod-open.  It suffices to check the
    minimal opens, since any open is a union of them."""
    if f.dom.backend != "fintop":
        raise BackendMismatch("only a fintop map can be open")
    return all(f.cod.is_open(f.image(f.dom.nbhd[x])) for x in f.dom.elements)


def is_cover(f):
    if f.dom.backend == "finset":
        return is_surjective(f)
    return is_surjective(f) and is_open_map(f)


def require_ends(f, dom, cod, what):
    """Raise BoundaryMismatch naming ``what`` unless f goes dom -> cod."""
    if f.dom != dom or f.cod != cod:
        raise BoundaryMismatch("%s = %r must go %r -> %r"
                               % (what, f, dom, cod))


def require_cover(f, what):
    """Raise NotACover naming ``what`` and f unless f is a cover."""
    if not is_cover(f):
        raise NotACover("%s = %r is not a cover" % (what, f))


def is_iso(f):
    if len(set(f.table.values())) != len(f.dom.elements):
        return False
    if not is_surjective(f):
        return False
    inv = {v: k for k, v in f.table.items()}
    return valid_mor_table(f.cod, f.dom, inv)


def inverse(f):
    """The inverse of an iso f, or NotAMorphism (here or from Mor)."""
    inv = {v: k for k, v in f.table.items()}
    if len(inv) != len(f.table):
        raise NotAMorphism("%r is not injective" % (f,))
    return Mor(f.cod, f.dom, inv)


class FibreProduct:
    """Apex of f: Y -> Z, g: U -> Z with coordinate projections.

    ``left`` and ``right`` are Y and U, ``pairing`` maps each apex id to
    its (left, right) pair and ``index`` is the reverse lookup.  ``pr1``
    and ``pr2`` are built on first read: most callers read only the
    pairing and the index.
    """

    def __init__(self, apex, left, right, pairing, index):
        self.apex, self.left, self.right = apex, left, right
        self.pairing, self.index = pairing, index

    @cached_property
    def pr1(self):
        return Mor(self.apex, self.left,
                   {e: y for e, (y, _) in self.pairing.items()})

    @cached_property
    def pr2(self):
        return Mor(self.apex, self.right,
                   {e: u for e, (_, u) in self.pairing.items()})


def fibre_product(f, g):
    """The pullback of f: Y -> Z and g: U -> Z as a hash join: each y meets
    only the bucket of points of U over f(y).  Pairs come in domain order."""
    if f.dom.backend != g.dom.backend:
        raise BackendMismatch("fibre product needs one backend")
    if f.cod != g.cod:
        raise BoundaryMismatch("fibre product legs must share a codomain")
    ft, gt = f.table, g.table
    over = group_by(g.dom.elements, gt.__getitem__)
    pairs = [(y, u) for y in f.dom.elements for u in over.get(ft[y], ())]
    ids = [y + PAIR_SEP + u for y, u in pairs]
    pairing = dict(zip(ids, pairs))
    if f.dom.backend == "finset":
        apex = Obj("finset", ids)
    else:
        # N(y, u) is N(y) x N(u) cut down to the fibre product
        fn, gn = f.dom.nbhd, g.dom.nbhd
        apex = Obj("fintop", ids, {
            e: frozenset(y2 + PAIR_SEP + u2 for y2 in fn[y] for u2 in gn[u]
                         if ft[y2] == gt[u2])
            for e, (y, u) in zip(ids, pairs)})
    return FibreProduct(apex, f.dom, g.dom, pairing, dict(zip(pairs, ids)))


def kernel_pair(f):
    return fibre_product(f, f)


def triple_product(f, g, h, k):
    """A x_{f,g} B x_{h,k} C for f: A -> Z, g: B -> Z, h: B -> W and
    k: C -> W: the apex, the triple (a, b, c) of each of its elements,
    and the reverse index."""
    AB = fibre_product(f, g)
    ABC = fibre_product(compose(h, AB.pr2), k)
    triples = {e: AB.pairing[ab] + (c,) for e, (ab, c) in ABC.pairing.items()}
    return ABC.apex, triples, {t: e for e, t in triples.items()}


class UnionFind:
    def __init__(self, xs):
        self.parent = {x: x for x in xs}

    def find(self, x):
        y = self.parent[x]
        if self.parent[y] != y:
            y = self.parent[x] = self.find(y)
        return y

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        # smaller id wins so class names are reproducible
        if y < x:
            x, y = y, x
        self.parent[y] = x


class Coequalizer:
    def __init__(self, quotient, proj, classes):
        self.quotient = quotient
        self.proj = proj
        self.classes = classes


def coequalizer(f, g):
    """Quotient of cod(f) by the equivalence generated by f(w) ~ g(w).

    Class representatives are the least ids; the fintop quotient carries
    the finest topology making proj continuous.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise BoundaryMismatch("coequalizer needs a parallel pair")
    cod = f.cod
    uf = UnionFind(cod.elements)
    for w in f.dom.elements:
        uf.union(f(w), g(w))
    classes = [frozenset(v)
               for v in group_by(cod.elements, uf.find).values()]
    rep_of = {x: uf.find(x) for x in cod.elements}
    seen = set()
    reps = []
    for x in cod.elements:
        r = rep_of[x]
        if r not in seen:
            seen.add(r)
            reps.append(r)
    if cod.backend == "finset":
        quot = Obj("finset", reps)
    else:
        # minimal open of a class: saturate under "if the class of x is
        # inside, so is the projection of the minimal open of x"
        nb = {}
        for q in reps:
            cur = {q}
            changed = True
            while changed:
                changed = False
                for x in cod.elements:
                    if rep_of[x] in cur:
                        for y in cod.nbhd[x]:
                            if rep_of[y] not in cur:
                                cur.add(rep_of[y])
                                changed = True
            nb[q] = frozenset(cur)
        quot = Obj("fintop", reps, nb)
    proj = Mor(cod, quot, rep_of)
    return Coequalizer(quot, proj, classes)


def descend(dom, cod, pairs):
    """The map out of a quotient ``dom`` that sends each class to its value.

    ``pairs`` yields (class, value) pairs, typically one per element of
    the space being quotiented.  Raises NotWellDefined when a class is
    given two different values or none.
    """
    tbl = {}
    for cl, val in pairs:
        if cl in tbl:
            if tbl[cl] != val:
                raise NotWellDefined("class %r has values %r and %r"
                                     % (cl, tbl[cl], val))
        else:
            tbl[cl] = val
    for cl in dom.elements:
        if cl not in tbl:
            raise NotWellDefined("class %r has no value" % (cl,))
    return Mor(dom, cod, tbl)


def all_maps(dom, cod):
    """All morphisms dom -> cod (fintop: the continuous ones)."""
    elems = dom.elements
    if not elems:
        yield Mor(dom, cod, {})
        return
    if not cod.elements:
        return
    for images in product(cod.elements, repeat=len(elems)):
        try:
            m = Mor(dom, cod, dict(zip(elems, images)))
        except NotAMorphism:
            continue
        yield m


def terminal(backend):
    if backend == "finset":
        return Obj("finset", ["*"])
    return Obj("fintop", ["*"], {"*": {"*"}})


def to_terminal(x):
    t = terminal(x.backend)
    return Mor(x, t, {e: "*" for e in x.elements})


def obj_product(a, b):
    """Binary product, as the fibre product over the terminal object."""
    return fibre_product(to_terminal(a), to_terminal(b))


def mor_product(f1, f2):
    """f1 x f2 between the binary products of domains and codomains."""
    return _product_map(f1, f2, obj_product(f1.dom, f2.dom),
                        obj_product(f1.cod, f2.cod))


def _product_map(f1, f2, dom, cod):
    """f1 x f2 from the product ``dom`` of the domains to the product
    ``cod`` of the codomains."""
    table = {e: cod.index[(f1(l), f2(r))]
             for e, (l, r) in dom.pairing.items()}
    return Mor(dom.apex, cod.apex, table)


def disjoint_union(a, b):
    """Coproduct with tagged elements; returns (Obj, inl, inr)."""
    if a.backend != b.backend:
        raise BackendMismatch("coproduct needs one backend")
    lid = {x: "l:" + x for x in a.elements}
    rid = {x: "r:" + x for x in b.elements}
    elems = [lid[x] for x in a.elements] + [rid[x] for x in b.elements]
    if a.backend == "finset":
        total = Obj("finset", elems)
    else:
        nb = {lid[x]: frozenset(lid[y] for y in a.nbhd[x]) for x in a.elements}
        nb.update({rid[x]: frozenset(rid[y] for y in b.nbhd[x])
                   for x in b.elements})
        total = Obj("fintop", elems, nb)
    inl = Mor(a, total, lid)
    inr = Mor(b, total, rid)
    return total, inl, inr


def copair(f, g, total, inl, inr):
    """The map out of a coproduct determined by f on the left and g on
    the right summand."""
    if f.cod != g.cod:
        raise BoundaryMismatch("copair legs must share a codomain")
    table = {}
    for x in f.dom.elements:
        table[inl(x)] = f(x)
    for x in g.dom.elements:
        table[inr(x)] = g(x)
    return Mor(total, f.cod, table)


Finding = namedtuple("Finding", "check ok witness")


def passed(findings):
    return all(f.ok for f in findings)


def require(findings, error):
    """Raise ``error`` naming the failing checks of a validator's findings:
    how a constructor rejects an argument that fails its validator."""
    failing = [f.check for f in findings if not f.ok]
    if failing:
        raise error(failing)


def witness_finding(check, witness):
    """The finding of a check that fails exactly when it has a witness."""
    return Finding(check, witness is None, witness)


def first_failure(cases):
    """The witness of the first failing case among (witness, ok) pairs,
    or None.  A product outside the composable pairs (a KeyError while
    evaluating a case) counts as a failing case."""
    try:
        for w, ok in cases:
            if not ok:
                return w
    except KeyError as exc:
        return "undefined composite at %s" % exc
    return None


def backtrack(order, cand, implied):
    """Every assignment of one of ``cand[v]`` to each variable v of
    ``order`` that ``implied`` lets through, as fresh dicts, in the
    lexicographic order of ``order`` and ``cand``.

    After each assignment v = y, ``implied(v, y, assign)`` returns the
    (variable, value) pairs it forces, or None on a conflict.  Forced
    values are assigned at once and undone on backtrack; a forced value
    outside the candidates or unlike the one already assigned is a
    conflict.  When ``implied`` forces only what every wanted assignment
    satisfies, the core prunes without reordering: it yields the same
    assignments, in the same order, as plain backtracking whose leaves
    run the same checks.
    """
    allowed = {v: set(cs) for v, cs in cand.items()}
    assign = {}

    def settle(v, y):
        # assign v = y and everything it forces; the assigned variables,
        # or None (with nothing left assigned) on a conflict
        trail, todo = [], [(v, y)]
        while todo:
            v, y = todo.pop()
            if v in assign:
                if assign[v] == y:
                    continue
            elif y in allowed[v]:
                assign[v] = y
                trail.append(v)
                forced = implied(v, y, assign)
                if forced is not None:
                    todo.extend(forced)
                    continue
            for w in trail:
                del assign[w]
            return None
        return trail

    def dfs(pos):
        while pos < len(order) and order[pos] in assign:
            pos += 1
        if pos == len(order):
            yield dict(assign)
            return
        for y in cand[order[pos]]:
            trail = settle(order[pos], y)
            if trail is not None:
                yield from dfs(pos + 1)
                for w in trail:
                    del assign[w]

    return dfs(0)


class _Budget:
    def __init__(self, n):
        self.left = n

    def tick(self, n=1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded("axiom harness budget exhausted")


def _twins(x):
    """The transpositions (i, j) of consecutive twins of x: points i < j
    whose swap is a homeomorphism (on a finset, any two), j the next twin
    after i.  Twins form classes ((a c) is (a b)(b c)(a b)), so these
    generate the symmetric group of each class, inside Aut(x), in O(n³)."""
    els, nb = x.elements, x.nbhd
    last, out = {}, []   # the last twin so far of each class, by its first
    for j, b in enumerate(els):
        for first, i in last.items():
            a, ab = els[first], {els[first], b}
            if nb is None or (
                    nb[a] - ab == nb[b] - ab and (b in nb[a]) == (a in nb[b])
                    and all((a in nb[e]) == (b in nb[e])
                            for e in els if e not in ab)):
                out.append((i, j))
                last[first] = j
                break
        else:
            last[j] = j
    return out


def _relabelling_classes(mors):
    """Each map f: A -> C of ``mors`` by ``id``: (class, a, c, values, γ),
    and the twins of each object a.  a and c number A and C; values are
    the positions in C of f's images; the class is the orbit of f under
    the twin swaps of A and C, walked once from its first map rep, also
    through maps not in ``mors``; and f = γ∘rep∘α⁻¹ for a twin
    permutation α of A and γ of C's positions.  Also whether ``mors`` is
    a union of whole classes: each orbit entry walked is one of its maps."""
    objs, info, orbit, classes, found = {}, {}, {}, count(), set()

    def number(x):
        # equal objects share a number, and the first one's positions
        if x not in objs:
            swaps, n = _twins(x), len(x)
            objs[x] = (len(objs), {e: k for k, e in enumerate(x)}, swaps, [
                tuple(j if k == i else i if k == j else k for k in range(n))
                for i, j in swaps])
        return objs[x]

    for f in mors:
        a, dom, _, at_a = number(f.dom)
        c, pos, _, at_c = number(f.cod)
        vals = tuple(pos[f(e)] for e in dom)
        found.add((a, c, vals))
        if (a, c, vals) not in orbit:
            cls, todo = next(classes), [(vals, tuple(range(len(pos))))]
            while todo:
                v, gam = todo.pop()
                if (a, c, v) not in orbit:
                    orbit[a, c, v] = cls, gam
                    todo += [(tuple(v[k] for k in t), gam) for t in at_a]
                    todo += [(tuple(t[y] for y in v), tuple(t[y] for y in gam))
                             for t in at_c]
        info[id(f)] = (orbit[a, c, vals][0], a, c, vals, orbit[a, c, vals][1])
    return info, [s for _, _, s, _ in objs.values()], len(found) == len(orbit)


def _pullback_class(info, twins, f, g):
    """The class of the pullback of f along g = γ∘rep∘β⁻¹: that of γ⁻¹∘f
    along rep, and of each twin permutation of γ⁻¹∘f's domain a."""
    gcls, _, _, _, gam = info[id(g)]
    _, a, _, vals, _ = info[id(f)]
    v = [gam.index(y) for y in vals]
    for _ in twins[a]:   # sort the values on each class of twins
        for i, j in twins[a]:
            if v[i] > v[j]:
                v[i], v[j] = v[j], v[i]
    return "pullback", gcls, a, tuple(v)


def _chain_class(info, p, f):
    """The class of the chain f∘p for p = γ∘rep∘α⁻¹: that of (f∘γ)∘rep."""
    pcls, _, _, _, gam = info[id(p)]
    _, _, c, vals, _ = info[id(f)]
    return "chain", pcls, c, tuple(vals[i] for i in gam)


def axiom_harness(objs, mors, budget=2_000_000, include_empty_in_28=False):
    """Check the cover axioms on a sample of objects and morphisms.

    Returns a list of Finding records, one per axiom, with a concrete
    witness on failure.  ``budget`` bounds the number of instances
    examined.  The final-object axiom is checked on nonempty objects
    only unless ``include_empty_in_28`` is set.  Composable maps are
    found through indexes by domain and codomain.

    The axioms hold up to isomorphism, so every case shares the verdict
    of its relabelling class (``_relabelling_classes``).  Each axiom walks
    its cases in order, grouped by a leading map; on a union of whole
    classes the cases of a leading map that is not the first of its class
    relabel earlier ones, so they are counted, not decided.  The axiom
    ticks the position of its first failing case, or all its cases.
    """
    objs = list(objs)
    mors = list(mors)
    bud = _Budget(budget)
    info, twins, whole = _relabelling_classes(mors)
    verdicts = {}

    def shared(key, decide):
        # the verdict of the class ``key``, decided on its first case
        if key not in verdicts:
            verdicts[key] = decide()
        return verdicts[key]

    first = {}   # the first map of each class
    for f in mors:
        first.setdefault(info[id(f)][0], f)

    def axiom(check, groups, fault):
        # the finding over ``groups``, pairs (leading map p or None, its
        # items x in order): ``fault(p, x)`` is None or a witness, a
        # template and its values.  Past the budget, tick(pos) raises.
        pos = 0
        for p, items in groups:
            if pos > bud.left:
                break
            if whole and p is not None and first[info[id(p)][0]] is not p:
                pos += len(items)
                continue
            for x in items:
                pos += 1
                w = fault(p, x)
                if w:
                    bud.tick(pos)
                    return Finding(check, False, w[0] % w[1:])
        bud.tick(pos)
        return Finding(check, True, None)

    covers = [f for f in mors
              if shared(("cover", info[id(f)][0]), lambda: is_cover(f))]
    by_dom = group_by(mors, lambda f: f.dom)
    by_cod = group_by(mors, lambda f: f.cod)
    by_ends = group_by(mors, lambda f: (f.dom, f.cod))
    covers_by_cod = group_by(covers, lambda f: f.cod)
    pairs = {}   # the verdicts of each pullback pair and chain, by ids

    # One pullback of each map f along each cover g serves three axioms:
    # pr1 is a cover; pr2 a cover implies f one (cover-local); pr1 a cover
    # and pr2 an iso imply f an iso (iso-local: this pullback, legs
    # swapped).  It is built once per _pullback_class.
    def pulled(f, g):
        k = "pullback", id(f), id(g)
        if k not in pairs:
            def decide():
                fp = fibre_product(f, g)
                c1 = is_cover(fp.pr1)
                return (c1, not is_cover(fp.pr2) or is_cover(f),
                        not (c1 and is_iso(fp.pr2)) or is_iso(f))
            pairs[k] = shared(_pullback_class(info, twins, f, g), decide)
        return pairs[k]

    def pullback_axiom(i, check, template):
        return axiom(check, ((g, by_cod.get(g.cod, ())) for g in covers),
                     lambda g, f: None if pulled(f, g)[i] else (
                         template, f.table, g.table))

    # A chain f∘p of a cover p: is f∘p a cover (compose-covers, f a cover
    # too), and does f∘p a cover imply f one (two-out-of-three)?
    def chained(p, f):
        k = "chain", id(p), id(f)
        if k not in pairs:
            def decide():
                fp = is_cover(compose(f, p))
                return fp, not fp or is_cover(f)
            pairs[k] = shared(_chain_class(info, p, f), decide)
        return pairs[k]

    # subcanonicity: a cover is the coequalizer of its kernel pair, and
    # the maps out of its domain that equalize the kernel pair are the
    # maps that factor through it, on small test objects: the items of a
    # cover are None, for the quotient, and then each small object.
    small = [None] + [x for x in objs if len(x) <= 3]
    kernel = cache(kernel_pair)

    def subcanonical(f, wobj):
        kp = kernel(f)
        if wobj is None:
            co = coequalizer(kp.pr1, kp.pr2)
            q = descend(co.quotient, f.cod,
                        ((co.proj(x), f(x)) for x in f.dom.elements))
            return None if is_iso(q) else (
                "kernel-pair quotient of %r not iso to the base", f.table)
        equalized = [h for h in all_maps(f.dom, wobj)
                     if all(h(kp.pr1(e)) == h(kp.pr2(e))
                            for e in kp.apex.elements)]
        through = {frozenset(compose(h, f).table.items())
                   for h in all_maps(f.cod, wobj)}
        if len(through) != len(equalized):
            return ("factorization count mismatch for %r into %r",
                    f.table, list(wobj.elements))
        return next((("equalized map %r does not factor", h.table)
                     for h in equalized
                     if frozenset(h.table.items()) not in through), None)

    # binary products of covers are covers; each product of two objects
    # is built once, and one product map per pair of classes
    obj_products = cache(obj_product)
    inhabited = [f for f in covers if f.dom.elements]

    # saturation report: look for f with a section-like p making f∘p a
    # cover while f itself is not.  Constructed from fold maps out of
    # coproducts, one per class of f0; a witness is expected for fintop,
    # none for finset.
    def folded(f0, b):
        def decide():
            total, inl, inr = disjoint_union(f0.dom, f0.cod)
            f = copair(f0, identity(f0.cod), total, inl, inr)
            return not (is_cover(compose(f, inr)) and not is_cover(f))
        return None if shared(("fold", info[id(f0)][0]), decide) else (
            "fold of %r with the identity on %r", f0.table, list(b.elements))

    findings = [
        axiom("iso-covers", ((f, [f]) for f in mors),
              lambda f, _: None if shared(
                  ("iso", info[id(f)][0]),
                  lambda: not (is_iso(f) and not is_cover(f))) else (
                  "iso %r is not a cover", f.table)),
        axiom("compose-covers", ((f, covers_by_cod.get(f.dom, ()))
                                 for f in covers),
              lambda f, g: None if chained(g, f)[0] else (
                  "composite of %r and %r", f.table, g.table)),
        pullback_axiom(0, "pullback-covers", "pr1 of %r along cover %r"),
        axiom("subcanonical", ((f, small) for f in covers), subcanonical),
        pullback_axiom(1, "cover-local", "locality fails for %r along %r"),
        axiom("two-out-of-three",
              ((p, by_dom.get(p.cod, ())) for p in covers),
              lambda p, f: None if chained(p, f)[1] else (
                  "f=%r, p=%r", f.table, p.table)),
        # every map to the final object is a cover (nonempty carriers)
        axiom("covers-to-final",
              [(None, [x for x in objs if x.elements or include_empty_in_28])],
              lambda _, x: None if is_cover(to_terminal(x)) else (
                  "map %r -> {*} is not a cover", list(x.elements))),
        pullback_axiom(2, "iso-local", "iso-locality fails for %r along %r"),
        axiom("product-covers", ((f1, inhabited) for f1 in inhabited),
              lambda f1, f2: None if shared(
                  ("product", info[id(f1)][0], info[id(f2)][0]),
                  lambda: is_cover(_product_map(f1, f2, obj_products(
                      f1.dom, f2.dom), obj_products(f1.cod, f2.cod)))) else (
                  "product of %r and %r", f1.table, f2.table)),
    ]
    fold = axiom("saturation-witness",
                 ((f0, [b]) for a in objs for b in objs if b.elements
                  for f0 in by_ends.get((a, b), ())), folded)
    findings.append(Finding("saturation-witness", True,
                            fold.witness or "no witness: class is saturated"))
    return findings
