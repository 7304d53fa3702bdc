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
from functools import cache
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


PAIR_SEP = "|"


def pair_id(left, right):
    """Canonical id of a fibre-product element (left, right)."""
    return left + PAIR_SEP + right


class Obj:
    """A finite carrier, optionally with a topology.

    ``nbhd`` maps each element to its minimal open neighbourhood
    (a frozenset).  ``nbhd is None`` means the finset backend.
    """

    def __init__(self, backend, elements, nbhd=None):
        assert backend in ("finset", "fintop")
        elements = tuple(str(e) for e in elements)
        if len(set(elements)) != len(elements):
            raise DuplicateElement("repeated id in %r" % (list(elements),))
        eset = frozenset(elements)
        if backend == "finset":
            assert nbhd is None
        else:
            assert nbhd is not None, "fintop objects need a topology"
            nbhd = {x: frozenset(n) for x, n in nbhd.items()}
            assert set(nbhd) == set(elements)
            for x in elements:
                assert x in nbhd[x]
                assert nbhd[x] <= eset
            for x in elements:
                for y in nbhd[x]:
                    assert nbhd[y] <= nbhd[x], "minimal opens must nest"
        self.backend = backend
        self.elements = elements
        self.eset = eset
        self.nbhd = nbhd

    def is_open(self, s):
        assert self.backend == "fintop"
        s = frozenset(s)
        assert s <= self.eset
        return all(self.nbhd[x] <= s for x in s)

    def __eq__(self, other):
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
        return "map must be total on the domain, at %s" % min(
            dom.eset ^ table.keys())
    if not cod.eset.issuperset(table.values()):
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
        table = {str(k): str(v) for k, v in table.items()}
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
    assert f.dom.backend == "fintop"
    return all(f.cod.is_open(f.image(f.dom.nbhd[x])) for x in f.dom.elements)


def is_cover(f):
    if f.dom.backend == "finset":
        return is_surjective(f)
    return is_surjective(f) and is_open_map(f)


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
    assert is_iso(f)
    return Mor(f.cod, f.dom, {v: k for k, v in f.table.items()})


class FibreProduct:
    """Apex of f: Y -> Z, g: U -> Z with coordinate projections.

    ``pairing`` maps each apex id to its (left, right) pair and ``index``
    is the reverse lookup.
    """

    def __init__(self, apex, pr1, pr2, pairing):
        self.apex = apex
        self.pr1 = pr1
        self.pr2 = pr2
        self.pairing = pairing
        self.index = {lr: e for e, lr in pairing.items()}


def fibre_product(f, g):
    """The pullback of f: Y -> Z and g: U -> Z as a hash join: each y meets
    only the bucket of points of U over f(y).  Pairs come in domain order."""
    if f.dom.backend != g.dom.backend:
        raise BackendMismatch("fibre product needs one backend")
    if f.cod != g.cod:
        raise BoundaryMismatch("fibre product legs must share a codomain")
    over = {}
    for u in g.dom.elements:
        over.setdefault(g(u), []).append(u)
    pairs = [(y, u) for y in f.dom.elements for u in over.get(f(y), ())]
    ids = [pair_id(y, u) for y, u in pairs]
    pairing = dict(zip(ids, pairs))
    if f.dom.backend == "finset":
        apex = Obj("finset", ids)
    else:
        # N(y, u) is N(y) x N(u) cut down to the fibre product
        nb = {e: frozenset(pair_id(y2, u2) for y2 in f.dom.nbhd[y]
                           for u2 in g.dom.nbhd[u] if f(y2) == g(u2))
              for e, (y, u) in pairing.items()}
        apex = Obj("fintop", ids, nb)
    pr1 = Mor(apex, f.dom, {e: lr[0] for e, lr in pairing.items()})
    pr2 = Mor(apex, g.dom, {e: lr[1] for e, lr in pairing.items()})
    return FibreProduct(apex, pr1, pr2, pairing)


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
    members = {}
    for x in cod.elements:
        members.setdefault(uf.find(x), []).append(x)
    classes = [frozenset(v) for v in members.values()]
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
        table = dict(zip(elems, images))
        if valid_mor_table(dom, cod, table):
            yield Mor(dom, cod, table)


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
    assert f.cod == g.cod
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

    def each(self, cases):
        """The cases, with one tick before each."""
        for case in cases:
            self.tick()
            yield case


def _index(maps, key):
    """The maps grouped by ``key``, each group in the order of ``maps``."""
    out = {}
    for f in maps:
        out.setdefault(key(f), []).append(f)
    return out


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
    permutation α of A and γ of C's positions."""
    objs, info, orbit, classes = {}, {}, {}, count()

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
    return info, [swaps for _, _, swaps, _ in objs.values()]


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


def _check(check, cases):
    """The finding of one axiom from its (witness, ok) cases: a witness
    is a template and its values, formatted for the first failing case."""
    w = first_failure(cases)
    return witness_finding(check, None if w is None else w[0] % w[1:])


def axiom_harness(objs, mors, budget=2_000_000, include_empty_in_28=False):
    """Check the cover axioms on a sample of objects and morphisms.

    Returns a list of Finding records, one per axiom, with a concrete
    witness on failure.  ``budget`` bounds the number of instances
    examined.  The final-object axiom is checked on nonempty objects
    only unless ``include_empty_in_28`` is set.  Each axiom is one
    ``first_failure`` over cases that tick the budget through
    ``_Budget.each``, and finds composable maps through indexes by
    domain and codomain.

    The axioms hold up to isomorphism, so a case whose relabelling class
    (``_relabelling_classes``) was decided reuses that verdict: every
    case still comes in its order, ticks, and may be the witness.
    """
    objs = list(objs)
    mors = list(mors)
    bud = _Budget(budget)
    info, twins = _relabelling_classes(mors)
    verdicts = {}

    def shared(key, decide):
        # the verdict of the class ``key``, decided on its first case
        if key not in verdicts:
            verdicts[key] = decide()
        return verdicts[key]

    covers = [f for f in mors
              if shared(("cover", info[id(f)][0]), lambda: is_cover(f))]
    by_dom = _index(mors, lambda f: f.dom)
    by_cod = _index(mors, lambda f: f.cod)
    by_ends = _index(mors, lambda f: (f.dom, f.cod))
    covers_by_cod = _index(covers, lambda f: f.cod)

    # One pullback of each map f along each cover g serves three axioms:
    # pr1 is a cover; pr2 a cover implies f one (cover-local); pr1 a cover
    # and pr2 an iso imply f an iso (iso-local: this pullback, legs
    # swapped).  It is built once per class of pairs (_pullback_class).
    along = [(f, g) for g in covers for f in by_cod.get(g.cod, ())]

    @cache
    def pulled(k):
        # pr1 a cover, pr2 a cover, pr2 an iso, f a cover, f an iso
        f, g = along[k]

        def decide():
            fp = fibre_product(f, g)
            return (is_cover(fp.pr1), is_cover(fp.pr2), is_iso(fp.pr2),
                    is_cover(f), is_iso(f))
        return shared(_pullback_class(info, twins, f, g), decide)

    def pullback_cases(template, holds):
        for k in bud.each(range(len(along))):
            f, g = along[k]
            yield (template, f.table, g.table), holds(*pulled(k))

    # subcanonicity: a cover is the coequalizer of its kernel pair, and
    # the maps out of its domain that equalize the kernel pair are the
    # maps that factor through it, on small test objects.  A cover of a
    # class seen before passes, and ticks each of its cases.
    def subcanonical_cases():
        small = [x for x in objs if len(x) <= 3]
        seen = set()
        for f in bud.each(covers):
            if info[id(f)][0] in seen:
                bud.tick(len(small))
                continue
            seen.add(info[id(f)][0])
            kp = kernel_pair(f)
            co = coequalizer(kp.pr1, kp.pr2)
            q = descend(co.quotient, f.cod,
                        ((co.proj(x), f(x)) for x in f.dom.elements))
            yield (("kernel-pair quotient of %r not iso to the base",
                    f.table), is_iso(q))
            for wobj in bud.each(small):
                equalized = [h for h in all_maps(f.dom, wobj)
                             if all(h(kp.pr1(e)) == h(kp.pr2(e))
                                    for e in kp.apex.elements)]
                through = {frozenset(compose(h, f).table.items())
                           for h in all_maps(f.cod, wobj)}
                yield (("factorization count mismatch for %r into %r",
                        f.table, list(wobj.elements)),
                       len(through) == len(equalized))
                for h in equalized:
                    yield (("equalized map %r does not factor", h.table),
                           frozenset(h.table.items()) in through)

    # binary products of covers are covers; each product of two objects
    # is built once, and one product map per pair of classes
    product = cache(obj_product)
    inhabited = [f for f in covers if f.dom.elements]

    # saturation report: look for f with a section-like p making f∘p a
    # cover while f itself is not.  Constructed from fold maps out of
    # coproducts; a witness is expected for fintop, none for finset.
    def fold_cases():
        for a in objs:
            for b in [b for b in objs if b.elements]:
                for f0 in bud.each(by_ends.get((a, b), ())):
                    total, inl, inr = disjoint_union(a, b)
                    f = copair(f0, identity(b), total, inl, inr)
                    yield (("fold of %r with the identity on %r", f0.table,
                            list(b.elements)),
                           not (is_cover(compose(f, inr)) and not is_cover(f)))

    findings = [
        _check("iso-covers", (
            (("iso %r is not a cover", f.table),
             shared(("iso", info[id(f)][0]),
                    lambda: not (is_iso(f) and not is_cover(f))))
            for f in bud.each(mors))),
        _check("compose-covers", (
            (("composite of %r and %r", f.table, g.table),
             is_cover(compose(f, g)))
            for f, g in bud.each((f, g) for f in covers
                                 for g in covers_by_cod.get(f.dom, ())))),
        _check("pullback-covers", pullback_cases(
            "pr1 of %r along cover %r", lambda c1, c2, i2, cf, isf: c1)),
        _check("subcanonical", subcanonical_cases()),
        _check("cover-local", pullback_cases(
            "locality fails for %r along %r",
            lambda c1, c2, i2, cf, isf: not (c2 and not cf))),
        # two-out-of-three: f∘p and p covers imply f cover
        _check("two-out-of-three", (
            (("f=%r, p=%r", f.table, p.table),
             shared(_chain_class(info, p, f), lambda: not (
                 is_cover(compose(f, p)) and not is_cover(f))))
            for p, f in bud.each((p, f) for p in covers
                                 for f in by_dom.get(p.cod, ())))),
        # every map to the final object is a cover (nonempty carriers)
        _check("covers-to-final", (
            (("map %r -> {*} is not a cover", list(x.elements)),
             is_cover(to_terminal(x)))
            for x in bud.each(x for x in objs
                              if x.elements or include_empty_in_28))),
        _check("iso-local", pullback_cases(
            "iso-locality fails for %r along %r",
            lambda c1, c2, i2, cf, isf: not (c1 and i2 and not isf))),
        _check("product-covers", (
            (("product of %r and %r", f1.table, f2.table),
             shared(("product", info[id(f1)][0], info[id(f2)][0]),
                    lambda: is_cover(_product_map(f1, f2, product(
                        f1.dom, f2.dom), product(f1.cod, f2.cod)))))
            for f1, f2 in bud.each((f1, f2) for f1 in inhabited
                                   for f2 in inhabited))),
    ]
    fold = _check("saturation-witness", fold_cases())
    findings.append(Finding("saturation-witness", True,
                            fold.witness or "no witness: class is saturated"))
    return findings
