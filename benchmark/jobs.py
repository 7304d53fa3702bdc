"""Seeded job generation and library-independent oracles.

A job is one user-level verdict: one harness run, one exhaustive search or
one model-file command.  ``Job.run(lib)`` calls the library through the
module objects in ``lib`` (looked up at call time, so a tracer that rebinds
module attributes sees every call) and returns a verdict; ``Job.expected``
is the verdict the benchmark computes on its own, without the library.

Each workload is a fixed multiset of job specs (a "pass") whose sizes form
a ladder of costs.  A pass function takes two random streams: ``rng``
draws each spec's free parameters from its range, and ``ids`` draws the
element ids.  The runner gives every copy of a pass the same ``rng`` seed,
so that the copies have the same sizes and shapes, and a running ``ids``
stream, so that no two copies share an id; see NOTES.md for the ladders
and why.
"""

import functools
import itertools
import json
import math
import string
from collections import Counter

A001930 = (1, 1, 3, 9, 33)  # n-point spaces up to homeomorphism
A000798 = (1, 1, 4, 29, 355)  # topologies on a labelled n-set


class Job:
    def __init__(self, kind, params, run, expected):
        self.kind, self.params = kind, params
        self.run, self.expected = run, expected

    def describe(self):
        return "%s %s" % (self.kind, json.dumps(self.params, sort_keys=True))


class Labels:
    """Fresh alphanumeric element ids, unique within one job."""

    ALPHA = string.ascii_lowercase
    ALNUM = string.ascii_lowercase + string.digits

    def __init__(self, rng):
        self.rng, self.used = rng, set()

    def fresh(self, n):
        out = []
        while len(out) < n:
            e = self.rng.choice(self.ALPHA) + "".join(
                self.rng.choice(self.ALNUM)
                for _ in range(self.rng.randint(1, 3)))
            if e not in self.used:
                self.used.add(e)
                out.append(e)
        return out


# ---------------------------------------------------------------- spaces

def preorders(n):
    """Every preorder on range(n) as a tuple of up-set bitmasks:
    ``up[x]`` is the minimal open neighbourhood of x."""
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in range(1 << len(offdiag)):
        up = [1 << x for x in range(n)]
        for i, (x, y) in enumerate(offdiag):
            if bits >> i & 1:
                up[x] |= 1 << y
        # transitive: y in up[x] implies up[y] inside up[x]
        if all(up[y] & ~up[x] == 0
               for x in range(n) for y in range(n) if up[x] >> y & 1):
            out.append(tuple(up))
    return out


def _permute(up, perm):
    new = [0] * len(up)
    for x, u in enumerate(up):
        new[perm[x]] = sum(1 << perm[y] for y in range(len(up)) if u >> y & 1)
    return tuple(new)


def spaces_up_to_homeo(max_size):
    """One preorder per homeomorphism class, sizes 0..max_size; checked
    against the OEIS counts."""
    out = []
    for n in range(max_size + 1):
        labelled = preorders(n)
        assert len(labelled) == A000798[n], (n, len(labelled))
        seen = set()
        perms = list(itertools.permutations(range(n)))
        for up in labelled:
            canon = min(_permute(up, p) for p in perms)
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
        assert len(seen) == A001930[n], (n, len(seen))
    return out


def opens_of(up):
    n = len(up)
    return [[x for x in range(n) if s >> x & 1] for s in range(1 << n)
            if all(up[x] & ~s == 0 for x in range(n) if s >> x & 1)]


def median_opens(spaces, n):
    """The n-point spaces with the median number of open sets: finspace
    bases are drawn from these, so that the seed does not decide between
    the discrete base (the most opens, the slowest models) and the
    indiscrete one."""
    by_opens = sorted(len(opens_of(up)) for up in spaces if len(up) == n)
    mid = by_opens[len(by_opens) // 2]
    return [up for up in spaces
            if len(up) == n and len(opens_of(up)) == mid]


@functools.lru_cache(maxsize=None)
def monotone_count(a, b):
    """Continuous maps between finite spaces = maps preserving the
    specialization preorder (y in up[x] implies f(y) in up[f(x)])."""
    n, m = len(a), len(b)
    count = 0
    for f in itertools.product(range(m), repeat=n):
        if all(b[f[x]] >> f[y] & 1
               for x in range(n) for y in range(n) if a[x] >> y & 1):
            count += 1
    return count


# ---------------------------------------------------------------- oracles

@functools.lru_cache(maxsize=None)
def perms(k):
    return tuple(itertools.permutations(range(k)))


def cycles(perm):
    seen, out = set(), []
    for x in range(len(perm)):
        if x not in seen:
            cyc, y = [], x
            while y not in seen:
                seen.add(y)
                cyc.append(y)
                y = perm[y]
            out.append(cyc)
    return out


@functools.lru_cache(maxsize=None)
def zn_perms(n, k):
    """The permutations sigma of k points with sigma^n = 1."""
    return [p for p in perms(k) if all(n % len(c) == 0 for c in cycles(p))]


@functools.lru_cache(maxsize=None)
def zn_action_counts(n, k):
    """Right actions of Z/n on k points are the permutations with
    sigma^n = 1; the basic (free) ones have every cycle of length n."""
    lens = [[len(c) for c in cycles(p)] for p in perms(k)]
    return (sum(all(n % ell == 0 for ell in ls) for ls in lens),
            sum(all(ell == n for ell in ls) for ls in lens))


@functools.lru_cache(maxsize=None)
def cech_action_count(fibres, k):
    """Actions of the Čech groupoid of p: A -> B on k points, summed over
    all anchors X -> A: per fibre of p, all anchor fibres must have one
    size m, and then (m!)^(|fibre|-1) transports exist."""
    points = [(b, i) for b, f in enumerate(fibres) for i in range(f)]
    total = 0
    for anchor in itertools.product(range(len(points)), repeat=k):
        sizes = Counter(anchor)
        prod = 1
        for b, f in enumerate(fibres):
            ms = {sizes[j] for j, pt in enumerate(points) if pt[0] == b}
            if len(ms) != 1:
                prod = 0
                break
            prod *= math.factorial(ms.pop()) ** (f - 1)
        total += prod
    return total


# ---------------------------------------------------------------- axioms

def _harness(lib, objs):
    sc = lib.site_core
    mors = [f for a in objs for b in objs for f in sc.all_maps(a, b)]
    rep = sc.axiom_harness(objs, mors)
    return (all(f.ok for f in rep), len(rep), len(mors))


def finset_family_job(ids, sizes):
    labels = Labels(ids)
    carriers = [labels.fresh(n) for n in sizes]
    ids.shuffle(carriers)

    def run(lib):
        return _harness(lib, [lib.backends.make_finset(c) for c in carriers])

    nmaps = sum(len(b) ** len(a) for a in carriers for b in carriers)
    return Job("axioms.finset", {"sizes": sorted(sizes)}, run,
               (True, 10, nmaps))


def family_maps(family):
    return sum(monotone_count(a, b) for a in family for b in family)


def draw_family(rng, pools, lo, hi):
    """A seeded family, one space from each pool, whose harness examines
    between lo and hi maps (the benchmark counts them itself)."""
    while True:
        family = [rng.choice(pool) for pool in pools]
        if lo <= family_maps(family) <= hi:
            return family


def finspace_family_job(ids, family):
    labels = Labels(ids)
    members = []
    for up in family:
        elems = labels.fresh(len(up))
        members.append((elems, [[elems[x] for x in u] for u in opens_of(up)]))

    def run(lib):
        return _harness(lib, [lib.backends.make_finspace(elems, opens)
                              for elems, opens in members])

    return Job("axioms.fintop", {"sizes": sorted(len(u) for u in family),
                                 "spaces": sorted(family)},
               run, (True, 10, family_maps(family)))


def finspaces_job(n):
    """all_finspaces(n) lists the spaces of at most n points."""
    def run(lib):
        return len(lib.backends.all_finspaces(n))
    return Job("axioms.all_finspaces", {"n": n}, run, sum(A001930[:n + 1]))


def axioms_pass(rng, ids, spaces):
    by_size = {}
    for up in spaces:
        by_size.setdefault(len(up), []).append(up)
    jobs = []
    # finset families: every family of sets of at most 3 points, those
    # with a 3-point set twice, and three families with a 4-point set but
    # no 3-point set (each takes 0.3-0.8 s; all eight would leave room for
    # too few copies of the pass in a run).  (0, 2, 3) holds the median of
    # the pass and (4,) its 90th percentile, each in a block of one shape
    # (see NOTES.md).
    upto3 = [c for k in (1, 2, 3, 4) for c in itertools.combinations(
        range(4), k) if c != (0,)]
    for sizes in upto3 + [c for c in upto3 if 3 in c] + [(0, 2, 3)] * 8:
        jobs.append(finset_family_job(ids, sizes))
    for sizes in [(4,)] * 4 + [(2, 4), (0, 1, 2, 4)]:
        jobs.append(finset_family_job(ids, sizes))
    # finite spaces: the census up to 3 and 4 points, seeded families of
    # three 3-point spaces, and of a 4-point with a 3-point space.  The
    # draws are limited to the middle of the map counts: at the top, a
    # discrete 4-point space makes one job cost 20 times another.
    jobs += [finspaces_job(3), finspaces_job(4)]
    for _ in range(6):
        jobs.append(finspace_family_job(
            ids, draw_family(rng, [by_size[3]] * 3, 127, 145)))
    for _ in range(2):
        jobs.append(finspace_family_job(
            ids, draw_family(rng, [by_size[4], by_size[3]], 130, 200)))
    return jobs


# ---------------------------------------------------------------- search

def zn_actions_job(ids, n, k):
    pts = Labels(ids).fresh(k)

    def run(lib):
        g = lib.groupoid.cyclic_groupoid(n)
        X = lib.backends.make_finset(pts)
        anchor = lib.site_core.Mor(X, g.G0, {x: "*" for x in pts})
        acts = list(lib.action.enumerate_actions(g, X, anchor))
        return (len(acts), sum(lib.bundle.is_basic(a)["flag"] for a in acts))

    return Job("search.zn_actions", {"n": n, "k": k}, run,
               zn_action_counts(n, k))


def cech_actions_job(ids, fibres, k):
    labels = Labels(ids)
    base = labels.fresh(len(fibres))
    total = [(b, a) for b, f in zip(base, fibres) for a in labels.fresh(f)]
    pts = labels.fresh(k)

    def run(lib):
        A = lib.backends.make_finset([a for _, a in total])
        B = lib.backends.make_finset(base)
        p = lib.site_core.Mor(A, B, {a: b for b, a in total})
        g = lib.groupoid.cech_groupoid(p)
        X = lib.backends.make_finset(pts)
        count = basic = 0
        for anchor in lib.site_core.all_maps(X, g.G0):
            for a in lib.action.enumerate_actions(g, X, anchor):
                count += 1
                basic += lib.bundle.is_basic(a)["flag"]
        return (count, basic)

    c = cech_action_count(tuple(fibres), k)
    return Job("search.cech_actions", {"fibres": list(fibres), "k": k}, run,
               (c, c))


def functors_job(n, m):
    def run(lib):
        g, h = lib.groupoid.cyclic_groupoid(n), lib.groupoid.cyclic_groupoid(m)
        return sum(1 for _ in lib.morphism.enumerate_functors(g, h))
    return Job("search.functors", {"n": n, "m": m}, run, math.gcd(n, m))


# Acceptance-battery bibundles and whether each is an equivalence: a unit
# bibundle is one, so is a Čech equivalence, and a functor from the point
# is one exactly when it is fully faithful (into the pair groupoid on two
# points, not into Z/2).
BATTERY = {"unit-Z2": True, "unit-CECH2": True, "equiv-2-to-base": True,
           "es-only": False, "es-and-ff": True}


def _battery(lib, name, s2):
    sc, gp = lib.site_core, lib.groupoid
    PT = sc.terminal("finset")
    S2 = lib.backends.make_finset(s2)
    p2 = sc.Mor(S2, PT, {x: "*" for x in s2})
    if name == "unit-Z2":
        return lib.action.unit_bibundle(gp.cyclic_groupoid(2))
    if name == "unit-CECH2":
        return lib.action.unit_bibundle(gp.cech_groupoid(p2))
    if name == "equiv-2-to-base":
        return lib.bibundle.cech_equivalence(p2)
    pt = gp.unit_groupoid(PT)
    if name == "es-only":
        z2 = gp.cyclic_groupoid(2)
        F = lib.morphism.Functor(pt, z2, sc.Mor(pt.G0, z2.G0, {"*": "*"}),
                                 sc.Mor(pt.G1, z2.G1, {"*": "0"}))
    else:
        c2 = gp.cech_groupoid(p2)
        a = s2[0]
        F = lib.morphism.Functor(
            pt, c2, sc.Mor(pt.G0, c2.G0, {"*": a}),
            sc.Mor(pt.G1, c2.G1, {"*": c2.kernel.index[(a, a)]}))
    return lib.bibundle.functor_to_bibundle(F)


def quasi_inverse_job(ids, name):
    s2 = Labels(ids).fresh(2)

    def run(lib):
        bb = lib.bibundle
        b = _battery(lib, name, s2)
        q = bb.brute_force_quasi_inverse(b, cap=4)
        flag = bb.classify(b)["is_equivalence"]
        iso = q is None or bb.bibundle_isomorphic(q, bb.dual(b)) is not None
        return (q is not None, flag, iso)

    want = BATTERY[name]
    return Job("search.quasi_inverse", {"bibundle": name}, run,
               (want, want, True))


def inner3_job(ids, kind, missing, corrupt=False):
    s2 = Labels(ids).fresh(2)

    def run(lib):
        nv, sc = lib.nerve, lib.site_core
        if kind == "Z2":
            g = lib.groupoid.cyclic_groupoid(2)
        else:
            g = lib.groupoid.pair_groupoid(lib.backends.make_finset(s2))
        u = lib.action.unit_bibundle(g)
        edges = {(i, j): u for i in range(3) for j in range(i + 1, 4)}
        inner = {(i, j, k): g.m for i in range(4) for j in range(i + 1, 4)
                 for k in range(j + 1, 4)}
        full = nv.build_simplex([g, g, g, g], edges, inner)
        s, m = dict(full.s), dict(full.m)
        wanted = m.pop(missing)
        if corrupt:
            # twist s_03 and rebuild the right action it carries
            swap = dict(zip(sorted(g.G0.elements),
                            reversed(sorted(g.G0.elements))))
            s[(0, 3)] = sc.Mor(full.XX[(0, 3)], full.X[0],
                               {e: swap[full.s[(0, 3)](e)]
                                for e in full.XX[(0, 3)].elements})
            fp = sc.fibre_product(s[(0, 3)], full.r[(3, 3)])
            m[(0, 3, 3)] = sc.Mor(
                fp.apex, full.XX[(0, 3)],
                {e: g.kernel.index[(g.r(v), g.s(w))]
                 for e, (v, w) in fp.pairing.items()})
        horn = nv.NSimplex(3, full.X, full.XX, full.r, s, m)
        fillers = nv.unique_inner3_check(horn, missing)["fillers"]
        return (len(fillers), fillers == [wanted])

    return Job("search.inner3", {"groupoid": kind, "missing": list(missing),
                                 "corrupt": corrupt}, run,
               (0, False) if corrupt else (1, True))


def search_pass(rng, ids, spaces):
    jobs = []
    # small searches: seeded functor counts (all under 2 ms), battery
    # quasi-inverses, Čech actions over every anchor and inner 3-horn
    # fillers on a seeded face.  The Čech and inner-3 sizes are fixed:
    # drawn by the seed, they would move other jobs across the ranks of
    # job_s.p50 and job_s.p90 from seed to seed.
    for _ in range(3):
        jobs.append(functors_job(rng.randint(2, 6), rng.randint(2, 6)))
    for name in BATTERY:
        jobs.append(quasi_inverse_job(ids, name))
    for fibres in ([3], [3, 2], [3, 3]):
        jobs.append(cech_actions_job(ids, fibres, 4))
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for kind in ("Z2", "pair2"):
        jobs.append(inner3_job(ids, kind, rng.choice(faces)))
    jobs.append(inner3_job(ids, "pair2", (0, 1, 3), corrupt=True))
    # Z/n on k points, a ladder from 1 ms to the largest sizes that
    # finish in 1-3 s; Z/5 on 5 (11 s) and Z/6 on 5 (234 s) are beyond
    # Z/2 on 5 holds the median of the pass and Z/3 on 5 its 90th
    # percentile, each in a block of one shape (see NOTES.md).
    ladder = [(3, 2), (2, 3), (2, 2), (3, 3), (2, 4), (4, 3), (5, 3),
              (3, 4), (3, 4), (3, 4), (3, 4), (6, 3), (6, 3), (4, 4),
              (4, 4), (2, 6), (2, 6), (5, 4), (6, 4), (4, 5)]
    ladder += [(2, 5)] * 12 + [(3, 5)] * 4
    for n, k in ladder:
        jobs.append(zn_actions_job(ids, n, k))
    return jobs


# ---------------------------------------------------------------- calculus

FINDINGS = {"map": ("map-is-cover",), "groupoid": ("groupoid-axioms",),
            "bibundle": ("bibundle-axioms", "bibundle-class"),
            "anafunctor": ("anafunctor-functor", "map-is-cover")}
COMMAND_FINDINGS = {"compose": ("compose-carrier", "compose-class"),
                    "equiv": ("equivalence-flag", "ana-equivalence"),
                    "decompose": ("decompose-k", "decompose-recompose"),
                    "orbit": ("orbit-base", "orbit-projection-cover"),
                    "nerve": ("simplex-valid",)}


class Model:
    """Model-file text with two covers p: X -> B and q: Y -> B."""

    def __init__(self, rng, ids, base_n, fibres_p, fibres_q, spaces=None):
        self.labels = Labels(ids)
        self.lines = []
        base = self.labels.fresh(base_n)
        up = rng.choice(median_opens(spaces, base_n)) if spaces else None
        self.topology = up  # the base's up-sets, None for a finset base
        if up is None:
            self.lines.append("finset B = {%s}" % ", ".join(base))
        else:
            self.lines.append("finspace B = {%s} opens %s" % (
                ", ".join(base),
                json.dumps([[base[x] for x in u] for u in opens_of(up)])))
        self.base, self.fibres_p = base, fibres_p
        self.cells_p = self._cover("X", "p", base, up, fibres_p)
        self._cover("Y", "q", base, up, fibres_q)

    def _cover(self, obj, name, base, up, fibres):
        """A finset cover with the given fibre sizes, or for a finspace
        base the projection B x D -> B with D discrete of one size."""
        cells = [(b, e) for b, f in zip(base, fibres)
                 for e in self.labels.fresh(f)]
        elems = ", ".join(e for _, e in cells)
        if up is None:
            self.lines.append("finset %s = {%s}" % (obj, elems))
        else:
            # open sets of B x D: one open set of B per slice B x {d}
            d = fibres[0]
            slices = [[e for b, e in cells[i::d]] for i in range(d)]
            base_opens = opens_of(up)
            opens = [[s for i, u in enumerate(choice) for s in
                      (slices[i][x] for x in u)]
                     for choice in itertools.product(base_opens, repeat=d)]
            self.lines.append("finspace %s = {%s} opens %s"
                              % (obj, elems, json.dumps(opens)))
        self.lines.append("map %s : %s -> B { %s }" % (
            name, obj, ", ".join("%s->%s" % (e, b) for b, e in cells)))
        return cells

    def add(self, *lines):
        self.lines.extend(lines)

    def text(self):
        return "\n".join(self.lines) + "\n"


def model_job(command, names, model, expected_checks, status="pass",
              witnesses=None):
    text = model.text()

    def run(lib):
        cli = lib.cli
        env, kinds = cli.build_model(cli.parse_model(text))
        rep = cli.run_command(command, names, env, kinds)
        got = {f["check-id"]: f.get("witness") for f in rep["findings"]}
        return (rep["status"],
                tuple((f["check-id"], f["result"]) for f in rep["findings"]),
                {k: got.get(k) for k in (witnesses or {})})

    params = {"command": command, "base": len(model.base),
              "fibres": list(model.fibres_p), "topology": model.topology}
    return Job("calculus." + command, params, run,
               (status, tuple(expected_checks), dict(witnesses or {})))


def validate_job(rng, ids, spaces, topological, with_noncover, fp, fq):
    m = Model(rng, ids, len(fp), fp, fq, spaces if topological else None)
    m.add("groupoid G = cech(p)", "bibundle E = equiv(p, q)",
          "anafunctor A = of(E)")
    names = ["p", "G", "E", "A"]
    kinds = ["map", "groupoid", "bibundle", "anafunctor"]
    if with_noncover:
        # every point of X to one base point: a map, not a surjection
        m.add("map n : X -> B { %s }" % ", ".join(
            "%s->%s" % (e, m.base[0]) for _, e in m.cells_p))
        names.insert(rng.randint(0, len(names)), "n")
        kinds.insert(names.index("n"), "map")
    checks = [(cid, "fail" if name == "n" else "pass")
              for name, kind in zip(names, kinds) for cid in FINDINGS[kind]]
    return model_job("validate", names, m, checks,
                     "fail" if with_noncover else "pass")


def pair_job(rng, ids, spaces, command, topological, fp, fq):
    """compose, equiv or nerve on the equivalence E = equiv(p, q) and its
    dual, for covers p and q with the given fibre sizes."""
    m = Model(rng, ids, len(fp), fp, fq, spaces if topological else None)
    m.add("bibundle E = equiv(p, q)", "bibundle Ed = dual(E)")
    names = ["E"] if command == "equiv" else ["E", "Ed"]
    witnesses = None
    if command == "compose":
        # E after its dual is the unit bibundle of cech(p), carried by the
        # arrows of cech(p): one per pair of points in a fibre of p
        witnesses = {"compose-carrier": str(sum(f * f for f in fp))}
    checks = [(cid, "pass") for cid in COMMAND_FINDINGS[command]]
    return model_job(command, names, m, checks, witnesses=witnesses)


def decompose_job(rng, ids, spaces, topological, fp, fq):
    m = Model(rng, ids, len(fp), fp, fq, spaces if topological else None)
    m.add("groupoid G = cech(p)", "bibundle U = unit(G)")
    checks = [(cid, "pass") for cid in COMMAND_FINDINGS["decompose"]]
    return model_job("decompose", ["U"], m, checks)


def orbit_job(rng, ids, n, k):
    """Z/n acting on k points through a permutation sigma with
    sigma^n = 1; the orbits are the cycles of sigma and each is named by
    its least id."""
    labels = Labels(ids)
    pts = labels.fresh(k)
    sigma = rng.choice(zn_perms(n, k))
    pt = labels.fresh(1)[0]
    power = list(range(k))
    table = []
    for gel in range(n):
        table += ["%s|%d->%s" % (pts[x], gel, pts[power[x]])
                  for x in range(k)]
        power = [sigma[y] for y in power]
    text = "\n".join([
        "finset PT = {%s}" % pt,
        "finset X = {%s}" % ", ".join(pts),
        "map a : X -> PT { %s }" % ", ".join("%s->%s" % (x, pt)
                                             for x in pts),
        "groupoid Z = cyclic(%d)" % n,
        "action S = right(Z, a) { %s }" % ", ".join(table)]) + "\n"
    reps = sorted(min(pts[x] for x in c) for c in cycles(sigma))

    def run(lib):
        cli = lib.cli
        env, kinds = cli.build_model(cli.parse_model(text))
        rep = cli.run_command("orbit", ["S"], env, kinds)
        return (rep["status"],
                tuple((f["check-id"], f["result"]) for f in rep["findings"]),
                rep["findings"][0].get("witness"))

    checks = tuple((cid, "pass") for cid in COMMAND_FINDINGS["orbit"])
    return Job("calculus.orbit", {"n": n, "k": k, "orbits": len(reps)},
               run, ("pass", checks, str(reps)))


def calculus_pass(rng, ids, spaces):
    jobs = []
    # small commands: seeded orbits (all under 2 ms), validate (two of
    # them with a non-cover, which needs two base points, three on
    # finspace covers, whose fibres are uniform) and decompose.  Their
    # sizes are fixed: drawn by the seed, they would move other jobs
    # across the ranks of job_s.p50 from seed to seed.  With them, 14 of
    # the 54 jobs use finspace covers.
    for _ in range(3):
        jobs.append(orbit_job(rng, ids, rng.randint(2, 6), rng.randint(2, 6)))
    for top, noncover, fp, fq in [(0, 1, [1, 2], [2, 1]),
                                  (1, 1, [2, 2], [1, 1]),
                                  (0, 0, [1], [2]), (1, 0, [2], [2]),
                                  (1, 0, [2, 2], [2, 2])]:
        jobs.append(validate_job(rng, ids, spaces, top, noncover, fp, fq))
    for top, fp, fq in [(0, [1, 2], [2, 2]), (1, [1, 1], [2, 2]),
                        (1, [2], [2])]:
        jobs.append(decompose_job(rng, ids, spaces, top, fp, fq))
    # compose, nerve and equiv on E = equiv(p, q) over a ladder of fibre
    # sizes (p's fibres, q's fibres, finspace covers or not).  equiv grows
    # fastest: its fullness test builds pullback groupoids.  The sides are
    # not swapped by the seed: equiv at fibres 2 and 3 takes three times
    # as long one way round as the other.  compose at fibres 2, 2, 2
    # holds the median of the pass and equiv at fibres 2, 2, 2 its 90th
    # percentile, each in a block of one shape (see NOTES.md).
    ladder = {
        "compose": [([1], [2], 0), ([1, 2], [2, 1], 0), ([2], [3], 0),
                    ([2, 2], [2, 2], 0), ([2], [2], 1), ([2, 2], [2, 2], 1)]
                   + [([2, 2, 2], [2, 2, 2], 0)] * 9,
        "nerve": [([1], [2], 0), ([1, 2], [2, 1], 0), ([2], [2], 0),
                  ([1, 1, 2], [2, 1, 1], 0), ([2], [3], 0),
                  ([2, 2], [2, 2], 0), ([2, 2, 1], [1, 2, 2], 0),
                  ([2, 2, 2], [2, 2, 2], 0), ([1], [2], 1), ([2], [2], 1),
                  ([2], [3], 1), ([2, 2], [2, 2], 1)],
        "equiv": [([1], [2], 0), ([1, 2], [2, 1], 0), ([1, 2], [2, 2], 0),
                  ([1, 1, 2], [2, 1, 1], 0), ([2], [2], 0),
                  ([2, 2, 1], [1, 2, 2], 0), ([2, 2], [2, 2], 0),
                  ([1], [2], 1), ([2], [2], 1), ([2], [3], 0),
                  ([2, 2, 2], [2, 2, 2], 1)]
                 + [([2, 2, 2], [2, 2, 2], 0)] * 5,
    }
    for command, sizes in ladder.items():
        for fp, fq, top in sizes:
            jobs.append(pair_job(rng, ids, spaces, command, top, fp, fq))
    return jobs


WORKLOADS = {"axioms": axioms_pass, "search": search_pass,
             "calculus": calculus_pass}
