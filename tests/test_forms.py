import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tame3 import forms
from tame3.algebra import (DegreeValue, Poly, WeightSystem, lex_weight, probe_points,
                           total_weight)
from tame3.forms import (
    DiffForm,
    algebraically_independent,
    deg_form,
    differential,
    differentials_wedge,
    form_to_text,
    jacobian_det,
    wedge,
    wedge_degree,
)

D = DegreeValue.of


def test_differential_product_rule(xyz):
    x1, x2, x3 = xyz
    t = x1 * x3 + x2**2
    dt = differential(t)
    assert dt.coeffs[(0,)] == x3
    assert dt.coeffs[(1,)] == x2.scale(2)
    assert dt.coeffs[(2,)] == x1


def test_differential_constant_vanishes():
    assert differential(Poly.constant(5, 3)).is_zero


def test_differential_third_component(nagata):
    d = differential(nagata.components[2])
    assert d.coeffs == {(2,): Poly.constant(1, 3)}


def test_wedge_antisymmetry(xyz):
    x1, x2, _ = xyz
    f = x1**2 + x2
    df = differential(f)
    assert wedge(df, df).is_zero
    assert wedge(differential(x1), differential(x2)).coeffs == {
        (0, 1): Poly.constant(1, 3)
    }


def test_wedge_above_dimension_collapses(xyz):
    x1, x2, x3 = xyz
    two = wedge(differential(x1), differential(x2))
    assert wedge(two, two).is_zero


def test_nagata_jacobian_is_one(nagata):
    assert jacobian_det(list(nagata.components)) == Poly.constant(1, 3)
    top = differentials_wedge(list(nagata.components))
    assert deg_form(lex_weight(3), top) == D(1, 1, 1)


def test_deg_form_examples(nagata, nagata_ws, wt):
    f = nagata.components[0]
    assert deg_form(nagata_ws, differential(f)) == nagata_ws.deg(f)
    assert deg_form(wt, DiffForm.zero(3, 2)).is_bottom


def test_independence_examples(xyz, nagata):
    x1, x2, x3 = xyz
    assert algebraically_independent([x1, x2, x3])
    f = x1 + x2**2
    assert not algebraically_independent([f, f * f])
    assert algebraically_independent(list(nagata.components))
    # four variables: the 4 x 4 Jacobian minor goes through Laplace expansion
    y1, y2, y3, y4 = (Poly.variable(i, 4) for i in range(4))
    fs = [y1 * y2, y2 * y3, y3 * y4, y4 + y1]
    assert algebraically_independent(fs)
    assert not algebraically_independent(fs[:3] + [fs[0] * fs[2]])


@st.composite
def _polys(draw):
    terms = {tuple(draw(st.integers(0, 2)) for _ in range(3)): draw(st.integers(-3, 3))
             for _ in range(draw(st.integers(1, 4)))}
    return Poly(3, terms)


@st.composite
def _triples(draw):
    """Random triples; half of them dependent, with f3 a polynomial in f1, f2."""
    f, g = draw(_polys()), draw(_polys())
    if draw(st.booleans()):
        return [f, g, draw(_polys())]
    h = Poly.zero(3)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        h = h + (f**i * g**j).scale(draw(st.integers(-3, 3)))
    return [f, g, h]


@settings(max_examples=120, deadline=None)
@given(_triples())
def test_independence_agrees_with_the_wedge(fs):
    # every prefix, so families of one and two take their own minors
    for k in (1, 2, 3):
        assert algebraically_independent(fs[:k]) == (not differentials_wedge(fs[:k]).is_zero)


def _count_probe_reads(monkeypatch) -> list:
    """Patch Poly.at_probe to record the point of every read; returns the
    record."""
    points = []
    read = Poly.at_probe

    def counted(f, k):
        points.append(probe_points(f.n)[k])
        return read(f, k)

    monkeypatch.setattr(Poly, "at_probe", counted)
    return points


def test_independence_of_a_map_is_decided_at_a_point(small_corpus, xyz, monkeypatch):
    calls = []
    full = forms.differentials_wedge

    def counted(fs):
        calls.append(1)
        return full(fs)

    monkeypatch.setattr(forms, "differentials_wedge", counted)
    points = _count_probe_reads(monkeypatch)
    for endo, _ in small_corpus:
        assert algebraically_independent(list(endo.components))
    assert points == []
    # Jacobian x2*x3 vanishes at the origin but not at the next point
    x1, x2, x3 = xyz
    assert algebraically_independent([x1 * x2, x2 * x3, x3])
    assert calls == []
    assert points == [probe_points(3)[0]] * 3
    # a dependent triple vanishes at every point and reaches the full wedge
    f = x1 + x2**2
    assert not algebraically_independent([f, x3, f * x3])
    assert calls == [1]


def test_independence_vanishing_at_every_point_reaches_the_wedge(xyz, monkeypatch):
    # Q's roots are 0 and every probe point's x2 coordinate, so the one
    # nonzero minor of the pair (x1, Q^2), 2*Q*Q', vanishes at the origin and
    # at every probe point: the pair is independent, and only the full wedge
    # says so
    calls = []
    full = forms.differentials_wedge

    def counted(fs):
        calls.append(1)
        return full(fs)

    monkeypatch.setattr(forms, "differentials_wedge", counted)
    x1, x2, _ = xyz
    roots = (0, 1, -1, 3, -2, 4)
    assert {v[1] for v in probe_points(3)} <= set(roots)
    q = Poly.constant(1, 3)
    for r in roots:
        q = q * (x2 - Poly.constant(r, 3))
    assert algebraically_independent([x1, q**2])
    assert calls == [1]


def test_independence_of_an_automorphism_reads_its_linear_terms(small_corpus, xyz,
                                                                 monkeypatch):
    # a map's Jacobian at the origin is its linear coefficients, so the
    # corpus is decided without evaluating a gradient at any point
    points = _count_probe_reads(monkeypatch)
    for endo, _ in small_corpus:
        assert algebraically_independent(list(endo.components))
    assert points == []
    x1, x2, x3 = xyz
    assert algebraically_independent([x1 * x2, x2 * x3, x3])
    assert points == [probe_points(3)[0]] * 3


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.data())
def test_probe_point_gradient_matches_a_fraction_reference(n, data):
    monos = st.tuples(*[st.integers(0, 3)] * n)
    f = Poly(n, data.draw(st.dictionaries(monos, _rationals, max_size=5)))
    for k, point in enumerate(probe_points(n)):
        # e * value // point[i] is exact only off the coordinate hyperplanes
        assert len(point) == n and all(point)
        value = sum((c * math.prod(Fraction(v) ** e for v, e in zip(point, m))
                     for m, c in f.terms.items()), Fraction(0))
        gradient = [sum((c * m[i] * math.prod(Fraction(v) ** (e - (j == i))
                                              for j, (v, e) in enumerate(zip(point, m)))
                         for m, c in f.terms.items() if m[i]), Fraction(0))
                    for i in range(n)]
        assert f.at_probe(k) == (value * f.den, tuple(g * f.den for g in gradient))


def _random_poly(rng, max_deg=3, terms=3):
    out = {}
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a)
        out[(a, b, deg - a - b)] = rng.randint(-3, 3)
    p = Poly(3, out)
    return p if not p.is_zero else Poly.variable(0, 3)


@pytest.mark.parametrize("ws_name", ["total", "lex"])
def test_deg_df_equals_deg_f(ws_name):
    ws = total_weight(3) if ws_name == "total" else lex_weight(3)
    rng = random.Random(3)
    for _ in range(40):
        f = _random_poly(rng)
        if f.is_constant:
            continue
        assert deg_form(ws, differential(f)) == ws.deg(f)


def test_leibniz_spot():
    rng = random.Random(11)
    for _ in range(25):
        f, g = _random_poly(rng), _random_poly(rng)
        df, dg = differential(f).coeffs, differential(g).coeffs
        zero = Poly.zero(3)
        rhs = DiffForm(3, 1, {(i,): f * dg.get((i,), zero) + g * df.get((i,), zero)
                              for i in range(3)})
        assert differential(f * g) == rhs


def test_wedge_degree_subadditive():
    rng = random.Random(5)
    ws = lex_weight(3)
    for _ in range(30):
        w1 = differential(_random_poly(rng))
        w2 = differential(_random_poly(rng))
        prod = wedge(w1, w2)
        if prod.is_zero or w1.is_zero or w2.is_zero:
            continue
        assert deg_form(ws, prod) <= deg_form(ws, w1) + deg_form(ws, w2)


_DEGREE_WEIGHTS = (total_weight(3), lex_weight(3), WeightSystem(((1, 0), (0, 1), (1, -2))))


@st.composite
def _wedge_degree_cases(draw):
    """(ws, p, q): random polynomials, or p = u^a + lower and q = u^b + lower,
    whose wedge cancels at the top, or q a multiple of p (a zero wedge)."""
    ws = draw(st.sampled_from(_DEGREE_WEIGHTS))

    def poly(low, high):
        return Poly(3, {tuple(draw(st.integers(0, 2)) for _ in range(3)):
                        draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]))
                        for _ in range(draw(st.integers(low, high)))})

    kind = draw(st.sampled_from(["random", "powers", "multiple"]))
    if kind == "random":
        return ws, poly(0, 5), poly(0, 5)
    u = poly(1, 3)
    if kind == "multiple":
        return ws, u, u.scale(draw(st.sampled_from([1, -2, Fraction(3, 5)])))
    a, b = draw(st.sampled_from([(1, 2), (2, 3), (3, 2), (1, 3)]))
    return ws, u**a + poly(0, 3), u**b + poly(0, 3)


@settings(max_examples=300, deadline=None)
@given(_wedge_degree_cases())
def test_wedge_degree_matches_the_wedge(case):
    ws, p, q = case
    expected = deg_form(ws, wedge(differential(p), differential(q)))
    assert wedge_degree(ws, p, q) == expected
    assert wedge_degree(ws, q, p) == expected


@pytest.mark.parametrize("ws_name", ["total", "lex"])
def test_wedge_equality_iff_leading_independent(ws_name):
    # the equality case of the degree bound characterizes independence of
    # the leading forms
    ws = total_weight(3) if ws_name == "total" else lex_weight(3)
    rng = random.Random(17)
    seen_equal = seen_strict = 0
    for _ in range(60):
        size = rng.choice([2, 3])
        fs = [_random_poly(rng) for _ in range(size)]
        if any(f.is_constant for f in fs):
            continue
        total = differentials_wedge(fs)
        if total.is_zero:
            continue
        bound = ws.deg(fs[0])
        for f in fs[1:]:
            bound = bound + ws.deg(f)
        leading_indep = not differentials_wedge(
            [ws.leading_form(f) for f in fs]
        ).is_zero
        equal = deg_form(ws, total) == bound
        assert equal == leading_indep
        seen_equal += equal
        seen_strict += not equal
    assert seen_equal and seen_strict


def test_floor_bound_for_independent_triples(small_corpus):
    # sum of degrees >= degree of the top wedge >= sum of the weights
    for ws in (total_weight(3), lex_weight(3)):
        for endo, _ in small_corpus[:10]:
            top = differentials_wedge(list(endo.components))
            assert not top.is_zero
            total = ws.deg_endo(endo.components)
            assert total >= deg_form(ws, top) >= ws.total


def test_max_attained_twice_property():
    # the pairwise complement-degree maximum is always attained at least
    # twice across the family
    rng = random.Random(23)
    ws = total_weight(3)
    for _ in range(50):
        l = rng.choice([3, 4])
        etas = [differential(_random_poly(rng)) for _ in range(l)]
        values = []
        for i in range(l):
            rest = [etas[j] for j in range(l) if j != i]
            tilde = rest[0]
            for w in rest[1:]:
                tilde = wedge(tilde, w)
            values.append(deg_form(ws, etas[i]) + deg_form(ws, tilde))
        top = max(values)
        assert sum(1 for v in values if v == top) >= 2


def test_form_printer():
    x1 = Poly.variable(0, 3)
    form = DiffForm(3, 2, {(0, 2): x1})
    assert form_to_text(form) == "(x1) * dx1^dx3"
    assert form_to_text(DiffForm.zero(3, 1)) == "0"


def test_constructor_rejects_a_coefficient_of_another_arity():
    with pytest.raises(ValueError, match="arity 2, expected 3"):
        DiffForm(3, 1, {(0,): Poly.variable(0, 2)})
    with pytest.raises(ValueError, match="form arity 3 != weight count 2"):
        deg_form(total_weight(2), differential(Poly.variable(0, 3)))


# Forms with rational coefficients, by every route that builds one: the
# constructor from {I: Poly}, differentials and their wedges (grades 1-3).
_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_rational_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _rationals,
                                  max_size=4).map(lambda t: Poly(3, t))


@st.composite
def _forms(draw):
    grade = draw(st.integers(1, 3))
    if draw(st.booleans()):
        idxs = draw(st.lists(st.sampled_from(list(combinations(range(3), grade))),
                             max_size=3))
        return DiffForm(3, grade, {i: draw(_rational_polys) for i in idxs})
    return differentials_wedge([draw(_rational_polys) for _ in range(grade)])


def _canonical(w: DiffForm) -> DiffForm:
    """w, after checking that its contents are primitive nonzero ints over a
    positive denominator, keyed by (M, I) with M_i >= 1 for i in I."""
    assert type(w.denom) is int and w.denom > 0
    assert all(type(c) is int and c != 0 for c in w.contents.values())
    assert math.gcd(w.denom, *w.contents.values()) == 1
    assert all(len(m) == 3 and all(m[i] >= 1 for i in idx) for m, idx in w.contents)
    return w


_RANK_2 = WeightSystem(((1, 0), (0, 1), (1, 1)))


@settings(max_examples=80, deadline=None)
@given(_forms())
def test_deg_form_is_the_max_over_coefficients(w):
    for ws in (total_weight(3), lex_weight(3), _RANK_2):
        expected = max((ws.deg(p) + sum((D(*ws.weights[i]) for i in idx), D(*[0] * ws.r))
                        for idx, p in w.coeffs.items()), default=DegreeValue.bottom())
        assert deg_form(ws, w) == expected


@settings(max_examples=80, deadline=None)
@given(_forms(), _rational_polys, _rationals)
def test_routes_agree_on_fields(a, f, c):
    pairs = [
        (DiffForm(3, 1, {i: p.scale(c) for i, p in differential(f).coeffs.items()}),
         differential(f.scale(c))),
        (DiffForm(3, a.grade, a.coeffs), a),
    ]
    for x, y in pairs:
        assert _canonical(x) == _canonical(y)
        assert (x.contents, x.denom) == (y.contents, y.denom)
    # zero coefficients are dropped, and the view is read-only
    padded = DiffForm(3, 1, {(0,): f, (1,): Poly.zero(3)})
    assert dict(padded.coeffs) == ({} if f.is_zero else {(0,): f})
    with pytest.raises(TypeError):
        padded.coeffs[(2,)] = f
