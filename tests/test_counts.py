"""Known counts for the pretopology harness's inputs.

The closed forms come from the benchmark's stdlib oracles in
``benchmark/jobs.py``, which do not import the library.  The module is
run from its source text, so there is one copy of each oracle and nothing
is written next to it.
"""

import types
from pathlib import Path

import pytest

from groupoidal.site_core import all_maps
from groupoidal.backends import all_finsets, all_finspaces

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
