import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from tame3.algebra import Poly, lex_weight, total_weight
from tame3.engine import nagata_endo, nagata_weight


@pytest.fixture(scope="session")
def wt():
    return total_weight(3)


@pytest.fixture(scope="session")
def wlex():
    return lex_weight(3)


@pytest.fixture(scope="session")
def xyz():
    return tuple(Poly.variable(i, 3) for i in range(3))


@pytest.fixture(scope="session")
def nagata():
    return nagata_endo()


@pytest.fixture(scope="session")
def nagata_ws():
    return nagata_weight()


def _assert_rigorous_stuck(doc: dict) -> None:
    """A reduction document that certifies non-tameness: a verified map,
    stuck with no steps, an absence for each component and for the SU
    search, and every absence rigorous."""
    assert doc["automorphism_status"] == "verified"
    assert doc["result"] == "stuck"
    assert doc["steps"] == [] and doc["su_steps"] == 0
    elementary, su = doc["stuck"]["elementary"], doc["stuck"]["su"]
    assert sorted(elementary) == ["1", "2", "3"]
    assert su and all("absent" in a for a in su)
    assert all(a["absent"]["rigorous"] for a in [*elementary.values(), *su])
    assert doc["verdict"].startswith("stuck with rigorous obstructions; not tame")


@pytest.fixture(scope="session")
def assert_rigorous_stuck():
    return _assert_rigorous_stuck


def _su_pair(c, psi_spec, swap_xz=False):
    """Construct a reduced pair around the square-cube cancellation.

    g2 = u^2 + v with u = y^2 and v linear, g1 = u^3 + (3/2)u*v chosen so
    that g1^2 - g2^3 collapses to degree 6; the third original component
    carries that cancellation element.  c and psi shape the first shift.
    """
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    v, g3 = (x, z) if swap_xz else (z, x)
    g1 = y**6 + (y**2 * v).scale(Fraction(3, 2))
    g2 = y**4 + v
    phi3 = g1**2 - g2**3
    f3 = g3 - phi3
    psi = Poly.zero(3)
    for m, coeff in psi_spec.items():
        psi = psi + (g2**m).scale(coeff)
    f1 = g1 - f3.scale(c) - psi
    F = (f1, g2, f3)
    G = (g1, g2, g3)
    return F, G


@pytest.fixture(scope="session")
def su_pair_family(wt):
    """Pairs satisfying the weakened condition block, with their weights."""
    pairs = []
    # plain: shifts vanish except the third component
    pairs.append(_su_pair(0, {}))
    # linear shift only
    pairs.append(_su_pair(2, {}))
    # shift with a nonconstant tail
    pairs.append(_su_pair(2, {0: Fraction(1), 1: Fraction(1)}))
    # different scalars, other auxiliary variable
    pairs.append(_su_pair(-1, {0: Fraction(-3), 1: Fraction(2)}, swap_xz=True))
    return [(wt, F, G) for F, G in pairs]


@pytest.fixture(scope="session")
def small_corpus():
    """Seeded tame corpus kept small enough for exhaustive checks."""
    from tame3.engine import random_tame

    return [random_tame(seed, (seed % 5) + 1) for seed in range(1, 31)]
