"""Known counts for the pretopology harness's inputs and for the
exhaustive searches.

The closed forms come from the benchmark's stdlib oracles in
``benchmark/jobs.py``, which do not import the library.  The module is
run from its source text, so there is one copy of each oracle and nothing
is written next to it.  The searches yield what their propagation proves
without a check at the leaf, so a count that drifts from the oracle is a
fault in the propagation.
"""

import math
import types
from pathlib import Path

import pytest

from groupoidal.site_core import Mor, all_maps
from groupoidal.backends import all_finsets, all_finspaces, make_finset
from groupoidal.groupoid import cech_groupoid, cyclic_groupoid
from groupoidal.action import enumerate_actions
from groupoidal.bundle import is_basic
from groupoidal.morphism import enumerate_functors

_JOBS = Path(__file__).resolve().parent.parent / "benchmark" / "jobs.py"
jobs = types.ModuleType("benchmark_jobs")
exec(compile(_JOBS.read_text(encoding="utf-8"), str(_JOBS), "exec"),
     jobs.__dict__)


def up_sets(x):
    """The minimal open neighbourhoods of a finite space as up-set
    bitmasks over the positions of its elements."""
    pos = {e: i for i, e in enumerate(x.elements)}
    return tuple(sum(1 << pos[y] for y in x.nbhd[e]) for e in x.elements)


def test_finset_map_counts():
    objs = all_finsets(3)
    for a in objs:
        for b in objs:
            assert sum(1 for _ in all_maps(a, b)) == len(b) ** len(a)


def test_continuous_map_counts():
    objs = all_finspaces(3)
    for a in objs:
        for b in objs:
            assert sum(1 for _ in all_maps(a, b)) == jobs.monotone_count(
                up_sets(a), up_sets(b)), (a, b)


@pytest.mark.parametrize("n", range(5))
def test_space_counts(n):
    assert len(all_finspaces(n)) == sum(jobs.A001930[:n + 1])
    assert len(all_finspaces(n, up_to_homeo=False)) == sum(
        jobs.A000798[:n + 1])


def points(k):
    return make_finset(["p%d" % i for i in range(k)])


def action_counts(g, X, anchors, side):
    """(actions, basic actions) of g on X over the given anchors."""
    acts = [a for anchor in anchors
            for a in enumerate_actions(g, X, anchor, side)]
    return len(acts), sum(is_basic(a)["flag"] for a in acts)


ZN_ORDERS = [2, 3, 4, 6]
CECH_FIBRES = [(1,), (2,), (3,), (2, 1), (2, 2), (3, 2)]


def fibred_cech_groupoid(fibres):
    """The Čech groupoid of a cover whose fibres have the given sizes."""
    cells = [("b%d" % b, "a%d.%d" % (b, i)) for b, f in enumerate(fibres)
             for i in range(f)]
    A = make_finset([a for _, a in cells])
    B = make_finset(["b%d" % b for b in range(len(fibres))])
    return cech_groupoid(Mor(A, B, {a: b for b, a in cells}))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n", ZN_ORDERS)
def test_zn_action_counts(n, side):
    """Z/n acts on k points as the permutations with sigma^n = 1 (A000085,
    A001470, A001472 and A053496 for n = 2, 3, 4, 6); the basic actions
    are those with every cycle of length n."""
    g = cyclic_groupoid(n)
    for k in range(6):
        X = points(k)
        anchor = Mor(X, g.G0, dict.fromkeys(X.elements, "*"))
        assert action_counts(g, X, [anchor], side) == \
            jobs.zn_action_counts(n, k), (n, k)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("fibres", CECH_FIBRES)
def test_cech_action_counts(fibres, side):
    """Actions of the Čech groupoid of a cover with the given fibre sizes
    on k points, summed over every anchor; each of them is basic."""
    g = fibred_cech_groupoid(fibres)
    for k in range(5):
        X = points(k)
        c = jobs.cech_action_count(fibres, k)
        assert action_counts(g, X, all_maps(X, g.G0), side) == (c, c), k


def test_cyclic_functor_counts():
    """A functor Z/m -> Z/n sends 1 to an element of order dividing m:
    there are gcd(m, n) of them."""
    for m in range(1, 7):
        for n in range(1, 7):
            got = sum(1 for _ in enumerate_functors(cyclic_groupoid(m),
                                                    cyclic_groupoid(n)))
            assert got == math.gcd(m, n), (m, n)
