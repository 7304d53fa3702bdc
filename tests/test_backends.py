from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from groupoidal.site_core import (Mor, NotAMorphism, all_maps, is_cover,
                                  is_open_map)
from groupoidal.backends import (DuplicateElement, NotATopology,
                                 all_finsets, all_finspaces, discrete,
                                 indiscrete, make_finset, make_finspace,
                                 sierpinski)


def opens(x):
    """The open sets of a finite space: the sets that hold the minimal
    open neighbourhood of each of their points."""
    return {frozenset(c) for k in range(len(x) + 1)
            for c in combinations(x.elements, k)
            if all(x.nbhd[e] <= frozenset(c) for e in c)}


def specialization(x):
    """The pairs (x, y) with y in every open set containing x."""
    return {(e, y) for e in x.elements for y in x.nbhd[e]}


def is_monotone(f):
    """Order-preservation for the specialization preorders; equivalent to
    continuity."""
    le_cod = specialization(f.cod)
    return all((f(a), f(b)) in le_cod for (a, b) in specialization(f.dom))


def all_topologies(elements):
    """Every topology on the given carrier, as families of frozensets, by
    the bitmask of the proper open sets over the nonempty proper subsets
    in ``combinations`` order: the census before it was built from
    preorders."""
    elements = list(elements)
    eset = frozenset(elements)
    proper = []
    for k in range(1, len(elements)):
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


def old_all_finspaces(max_size, up_to_homeo=True):
    """``all_finspaces`` over ``all_topologies``, keeping the first
    family of each homeomorphism class."""
    spaces = []
    for n in range(max_size + 1):
        elements = ["x%d" % i for i in range(n)]
        seen = set()
        for family in all_topologies(elements):
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


@pytest.mark.parametrize("up_to_homeo", [True, False])
@pytest.mark.parametrize("n", range(5))
def test_census_matches_topology_scan(n, up_to_homeo):
    """The spaces built from preorders are the scan's: the same carriers,
    the same topologies, in the same order."""
    new = all_finspaces(n, up_to_homeo)
    old = old_all_finspaces(n, up_to_homeo)
    assert [(x.elements, x.nbhd) for x in new] == [
        (x.elements, x.nbhd) for x in old]


def test_make_finset_rejects_duplicates():
    with pytest.raises(DuplicateElement):
        make_finset(["a", "a"])


def test_make_finspace_validates_closure():
    with pytest.raises(NotATopology):
        make_finspace(["a", "b"], [["a"], ["a", "b"]])  # empty set missing
    with pytest.raises(NotATopology):
        make_finspace(["a", "b"], [[], ["a"]])          # full set missing
    with pytest.raises(NotATopology):
        make_finspace(["a", "b", "c"],
                      [[], ["a"], ["b"], ["a", "b", "c"]])  # no union


@pytest.mark.parametrize("n", range(4))
def test_make_finspace_keeps_the_family(n):
    """The open sets of a space built from a topology are that topology."""
    elements = ["x%d" % i for i in range(n)]
    for family in all_topologies(elements):
        assert opens(make_finspace(elements, family)) == family


def test_sierpinski_opens():
    s = sierpinski()
    assert opens(s) == {frozenset(), frozenset(["1"]),
                              frozenset(["0", "1"])}
    assert s.nbhd["1"] == frozenset(["1"])
    assert s.nbhd["0"] == frozenset(["0", "1"])


def test_specialization_preorder():
    s = sierpinski()
    le = specialization(s)
    # 1 is the open point: 0 specializes to... 1 lies in every open around 0
    assert ("1", "0") in le or ("0", "1") in le
    d = discrete(["a", "b"])
    assert specialization(d) == {("a", "a"), ("b", "b")}


@given(st.data())
def test_monotone_iff_continuous(data):
    spaces = [s for s in all_finspaces(2, up_to_homeo=False) if len(s)]
    x = data.draw(st.sampled_from(spaces))
    y = data.draw(st.sampled_from(spaces))
    tbl = {e: data.draw(st.sampled_from(sorted(y.elements)), label=e)
           for e in x.elements}
    try:
        f = Mor(x, y, tbl)
    except NotAMorphism:
        # table is discontinuous; check monotonicity fails too
        le_cod = specialization(y)
        le_dom = specialization(x)
        assert any((tbl[a], tbl[b]) not in le_cod for (a, b) in le_dom)
        return
    assert is_monotone(f)


def test_open_map_detection():
    s = sierpinski()
    d = discrete(["0", "1"])
    f = Mor(d, s, {"0": "0", "1": "1"})
    assert not is_open_map(f)
    g = Mor(s, s, {"0": "0", "1": "1"})
    assert is_open_map(g)


def test_indiscrete_maps_always_continuous():
    ind = indiscrete(["a", "b"])
    d = discrete(["a", "b"])
    assert len(list(all_maps(d, ind))) == 4
    # only constants are continuous into a discrete space from indiscrete
    assert len(list(all_maps(ind, d))) == 2


def test_all_finsets_sizes():
    assert [len(x) for x in all_finsets(3)] == [0, 1, 2, 3]


def test_topology_counts():
    # classical counts: 4 topologies on 2 points, 29 on 3 points
    assert len(all_finspaces(2, up_to_homeo=False)) == 1 + 1 + 4
    assert len([x for x in all_finspaces(3, up_to_homeo=False)
                if len(x) == 3]) == 29
    # 9 homeomorphism classes on 3 points
    assert len([x for x in all_finspaces(3) if len(x) == 3]) == 9


def test_cover_examples_fintop():
    s = sierpinski()
    ind = indiscrete(["a", "b"])
    f = Mor(ind, s, {"a": "1", "b": "1"})  # not surjective
    assert not is_cover(f)
