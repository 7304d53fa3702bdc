import pytest

from groupoidal.site_core import Mor, fibre_product, terminal
from groupoidal.backends import make_finset, sierpinski
from groupoidal.groupoid import cech_groupoid, cyclic_groupoid
from groupoidal.action import Action


@pytest.fixture(scope="session")
def PT():
    return terminal("finset")


@pytest.fixture(scope="session")
def S2():
    return make_finset(["a", "b"])


@pytest.fixture(scope="session")
def S3():
    return make_finset(["c", "d", "e"])


@pytest.fixture(scope="session")
def p2(S2, PT):
    return Mor(S2, PT, {"a": "*", "b": "*"})


@pytest.fixture(scope="session")
def p3(S3, PT):
    return Mor(S3, PT, {x: "*" for x in "cde"})


@pytest.fixture(scope="session")
def CECH2(p2):
    return cech_groupoid(p2)


@pytest.fixture(scope="session")
def CECH3(p3):
    return cech_groupoid(p3)


@pytest.fixture(scope="session")
def Z2():
    return cyclic_groupoid(2)


@pytest.fixture(scope="session")
def Z3():
    return cyclic_groupoid(3)


@pytest.fixture(scope="session")
def Z4():
    return cyclic_groupoid(4)


@pytest.fixture(scope="session")
def SWAP(Z2, S2):
    """The free Z/2-action on {a, b} by exchange."""
    anchor = Mor(S2, Z2.G0, {"a": "*", "b": "*"})
    pairs = fibre_product(anchor, Z2.r)
    flip = {"a": "b", "b": "a"}
    tbl = {e: (x if gel == "0" else flip[x])
           for e, (x, gel) in pairs.pairing.items()}
    return Action(Z2, S2, anchor, Mor(pairs.apex, S2, tbl), "right", pairs)


@pytest.fixture(scope="session")
def E63(p2):
    from groupoidal.bibundle import cech_equivalence
    return cech_equivalence(p2)


@pytest.fixture(scope="session")
def EQ23(p2, p3):
    from groupoidal.bibundle import cech_equivalence
    return cech_equivalence(p2, p3)


@pytest.fixture(scope="session")
def SIER():
    return sierpinski()
