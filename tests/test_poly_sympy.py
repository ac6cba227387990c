"""Poly arithmetic, composition, the Jacobian and the y-derivatives of an
auxiliary polynomial at a point, checked against sympy.

Every result is also checked to be in canonical form: integer contents over
one positive denominator, primitive, with no zero coefficient, so that equal
polynomials built by different routes have equal fields and hashes.

Test-only: sympy is not a runtime dependency, so the module is skipped when
it is missing.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tame3.algebra import Poly
from tame3.forms import differential, jacobian_det, wedge
from tame3.univariate import AuxPoly

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1 x2 x3")

# Non-unit denominators, so contents are rescaled and reduced.
coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def polys(max_exp, max_terms):
    monos = st.tuples(*[st.integers(0, max_exp)] * 3)
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(lambda t: Poly(3, t))


def canonical(p: Poly) -> Poly:
    """p, after checking the canonical-form invariants."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    rebuilt = Poly(3, p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    return p


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
    assert canonical(f * g) == from_sympy(to_sympy(f) * to_sympy(g))
    # the cross terms of (f + g)(f - g) cancel
    assert canonical((f + g) * (f - g)) == from_sympy(to_sympy(f) ** 2 - to_sympy(g) ** 2)


@settings(max_examples=60, deadline=None)
@given(polys(3, 5), polys(3, 5))
def test_add_and_sub_match_sympy(f, g):
    assert canonical(f + g) == from_sympy(to_sympy(f) + to_sympy(g))
    assert canonical(f - g) == from_sympy(to_sympy(f) - to_sympy(g))
    assert canonical(-f) == from_sympy(-to_sympy(f))
    # f + f doubles every content; f - f is zero over 1
    assert canonical(f + f) == f.scale(2)
    zero = canonical(f - f)
    assert zero.is_zero and zero.den == 1 and zero == Poly.zero(3)


@settings(max_examples=60, deadline=None)
@given(polys(3, 5), st.one_of(st.just(Fraction(0)), coeffs, st.integers(-6, 6)))
def test_scale_matches_sympy(f, c):
    scaled = canonical(f.scale(c))
    assert scaled == from_sympy(to_sympy(f) * sympy.Rational(Fraction(c)))
    if c == 0:
        assert scaled.is_zero and scaled.den == 1


@settings(max_examples=60, deadline=None)
@given(polys(3, 5))
def test_diff_matches_sympy(f):
    # the dx_i coefficient of df, read off the form's primitive contents, is
    # the partial derivative in x_i
    form = differential(f)
    assert form.denom > 0 and math.gcd(form.denom, *form.contents.values()) == 1
    for i in range(3):
        partial = form.coeffs.get((i,), Poly.zero(3))
        assert canonical(partial) == from_sympy(sympy.diff(to_sympy(f), X[i]))


@settings(max_examples=25, deadline=None)
@given(polys(2, 3), polys(2, 3), polys(2, 3))
def test_jacobian_det_matches_sympy(f, g, h):
    jac = sympy.Matrix([to_sympy(p) for p in (f, g, h)]).jacobian(X)
    assert canonical(jacobian_det([f, g, h])) == from_sympy(jac.det())


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), polys(2, 4), polys(2, 3))
def test_wedge_matches_sympy_minors(p, q, r):
    # the coefficients of dp ^ dq are the 2x2 minors p_i q_j - p_j q_i; the
    # grade-3 wedge, associated the other way from jacobian_det, is the
    # Jacobian determinant
    two = wedge(differential(p), differential(q))
    sp, sq = to_sympy(p), to_sympy(q)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        minor = from_sympy(sympy.diff(sp, X[i]) * sympy.diff(sq, X[j])
                           - sympy.diff(sp, X[j]) * sympy.diff(sq, X[i]))
        assert canonical(two.coeffs.get((i, j), Poly.zero(3))) == minor
    three = wedge(differential(r), two)
    jac = sympy.Matrix([to_sympy(f) for f in (r, p, q)]).jacobian(X)
    assert canonical(three.coeffs.get((0, 1, 2), Poly.zero(3))) == from_sympy(jac.det())


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), polys(2, 4), polys(2, 4))
def test_routes_agree_on_fields_and_hash(f, g, h):
    # equal polynomials built by different routes are equal field for field
    pairs = [
        ((f * g) * h, f * (g * h)),
        ((f + g) + h, f + (g + h)),
        (f * (g + h), f * g + f * h),
        ((f - g).scale(Fraction(3, 4)), f.scale(Fraction(3, 4)) - g.scale(Fraction(3, 4))),
    ]
    for a, b in pairs:
        assert canonical(a) == canonical(b)
        assert (a.nums, a.den) == (b.nums, b.den)
        assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), st.lists(st.integers(0, 5), min_size=1, max_size=5))
def test_pow_matches_sympy(f, ks):
    # one object answers exponents in any order, partly from its remembered powers
    for k in ks:
        assert canonical(f**k) == from_sympy(to_sympy(f) ** k)


@settings(max_examples=40, deadline=None)
@given(polys(2, 4), polys(1, 3), polys(1, 3), polys(1, 3))
def test_compose_matches_sympy(f, p, q, r):
    expected = to_sympy(f).subs(dict(zip(X, map(to_sympy, (p, q, r)))), simultaneous=True)
    assert canonical(f.compose([p, q, r])) == from_sympy(expected)
    # f*(x1 - x2) vanishes when x1 and x2 receive the same polynomial
    x1, x2 = Poly.variable(0, 3), Poly.variable(1, 3)
    assert canonical((f * (x1 - x2)).compose([p, p, q])).is_zero


Y = sympy.Symbol("y")


@st.composite
def aux_at_a_point(draw):
    """(n, phi, g, k, vanishes): an auxiliary polynomial and a point in n = 2
    or 3 variables with rational coefficients, and a derivative order k up
    to one past the y-degree; when ``vanishes``, phi = (y - g) * psi, so
    Phi(g) cancels to zero."""
    n = draw(st.sampled_from([2, 3]))

    def poly():
        monos = st.tuples(*[st.integers(0, 2)] * n)
        return Poly(n, draw(st.dictionaries(monos, coeffs, max_size=3)))

    psi = [poly() for _ in range(draw(st.integers(1, 3)))]
    g = poly()
    vanishes = draw(st.booleans())
    if vanishes:
        # the coefficient of y^i in (y - g) * psi is psi_{i-1} - g * psi_i
        zero = Poly.zero(n)
        psi = [(psi[i - 1] if i else zero) - g * (psi[i] if i < len(psi) else zero)
               for i in range(len(psi) + 1)]
    phi = AuxPoly(n, dict(enumerate(psi)))
    return n, phi, g, draw(st.integers(0, max(phi.coeffs, default=0) + 1)), vanishes


@settings(max_examples=80, deadline=None)
@given(aux_at_a_point())
def test_aux_evaluate_matches_the_sympy_derivative(case):
    # Phi^(k)(g) is sympy's k-th y-derivative of sum phi_i y^i at y = g
    n, phi, g, k, vanishes = case
    expr = sympy.Add(*[to_sympy(p) * Y**i for i, p in phi.coeffs.items()])
    expected = sympy.expand(sympy.diff(expr, Y, k).subs(Y, to_sympy(g)))
    terms = sympy.Poly(expected, *X[:n], domain="QQ").terms()
    got = phi.evaluate(g, k)
    assert got == Poly(n, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})
    assert got.den > 0 and all(got.nums.values())
    assert math.gcd(got.den, *got.nums.values()) == 1
    if vanishes and k == 0:
        assert got.is_zero
