"""Poly multiplication, powers and composition checked against sympy.

Test-only: sympy is not a runtime dependency, so the module is skipped when
it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tame3.algebra import Poly

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1 x2 x3")

# Non-unit denominators, so denominators are cleared and restored.
coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def polys(max_exp, max_terms):
    monos = st.tuples(*[st.integers(0, max_exp)] * 3)
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(lambda t: Poly(3, t))


def to_sympy(p: Poly):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[x**e for x, e in zip(X, m)])
        for m, c in p.terms.items()
    ])


def from_sympy(expr) -> Poly:
    terms = sympy.Poly(sympy.expand(expr), *X, domain="QQ").terms()
    return Poly(3, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


@settings(max_examples=60, deadline=None)
@given(polys(3, 5), polys(3, 5))
def test_mul_matches_sympy(f, g):
    assert f * g == from_sympy(to_sympy(f) * to_sympy(g))
    # the cross terms of (f + g)(f - g) cancel
    assert (f + g) * (f - g) == from_sympy(to_sympy(f) ** 2 - to_sympy(g) ** 2)


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), st.integers(0, 4))
def test_pow_matches_sympy(f, k):
    assert f**k == from_sympy(to_sympy(f) ** k)


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), polys(1, 3), polys(1, 3), polys(1, 3))
def test_compose_matches_sympy(f, p, q, r):
    expected = to_sympy(f).subs(dict(zip(X, map(to_sympy, (p, q, r)))), simultaneous=True)
    assert f.compose([p, q, r]) == from_sympy(expected)
    # f*(x1 - x2) vanishes when x1 and x2 receive the same polynomial
    x1, x2 = Poly.variable(0, 3), Poly.variable(1, 3)
    assert (f * (x1 - x2)).compose([p, p, q]).is_zero
