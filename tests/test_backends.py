import pytest
from hypothesis import given, strategies as st

from groupoidal.site_core import Mor, NotAMorphism, all_maps, is_cover
from groupoidal.backends import (DuplicateElement, NotATopology,
                                 all_finsets, all_finspaces, discrete,
                                 fintop_is_open, indiscrete, is_monotone,
                                 make_finset, make_finspace, sierpinski,
                                 specialization_preorder)


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


def test_sierpinski_opens():
    s = sierpinski()
    assert set(s.opens()) == {frozenset(), frozenset(["1"]),
                              frozenset(["0", "1"])}
    assert s.nbhd["1"] == frozenset(["1"])
    assert s.nbhd["0"] == frozenset(["0", "1"])


def test_specialization_preorder():
    s = sierpinski()
    le = specialization_preorder(s)
    # 1 is the open point: 0 specializes to... 1 lies in every open around 0
    assert ("1", "0") in le or ("0", "1") in le
    d = discrete(["a", "b"])
    assert specialization_preorder(d) == {("a", "a"), ("b", "b")}


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
        le_cod = y.specialization()
        le_dom = x.specialization()
        assert any((tbl[a], tbl[b]) not in le_cod for (a, b) in le_dom)
        return
    assert is_monotone(f)


def test_open_map_detection():
    s = sierpinski()
    d = discrete(["0", "1"])
    f = Mor(d, s, {"0": "0", "1": "1"})
    assert not fintop_is_open(f)
    g = Mor(s, s, {"0": "0", "1": "1"})
    assert fintop_is_open(g)


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
