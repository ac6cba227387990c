import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tame3 import univariate
from tame3.algebra import DegreeValue, Poly, WeightSystem, lex_weight, total_weight
from tame3.univariate import (
    AuxPoly,
    BiPoly,
    aux_leading,
    aux_multiplicity,
    coprime_claims,
    degS,
    multiplicity_by_roots,
    su_inequality_report,
)

D = DegreeValue.of


def _aux(coeffs):
    return AuxPoly(3, coeffs)


def _derivative(phi):
    """The y-derivative of phi, coefficient by coefficient."""
    return AuxPoly(phi.n, {i - 1: p.scale(i) for i, p in phi.coeffs.items() if i >= 1})


def _aux_degree(ws, phi, g):
    """deg^g Phi, the max over i of deg(phi_i * g^i), as the inequality
    report reads it (x3 is one independent generator)."""
    return su_inequality_report(ws, [Poly.variable(2, 3)], phi, g).aux_deg


def test_aux_degree_examples(xyz, wt):
    x1, x2, _ = xyz
    g = x1 + x2**2
    phi = _aux({2: Poly.constant(1, 3)})
    assert _aux_degree(wt, phi, g) == 2 * wt.deg(g)
    phi2 = _aux({0: x1, 1: Poly.constant(1, 3)})
    assert _aux_degree(wt, phi2, x1) == wt.deg(x1)


def test_aux_degree_brute_force(wt):
    rng = random.Random(2)
    for _ in range(40):
        coeffs = {}
        for i in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            coeffs[rng.randint(0, 3)] = Poly(3, {mono: rng.randint(1, 3)})
        phi = _aux(coeffs)
        g = Poly(3, {(1, 1, 0): 1, (0, 0, 1): rng.randint(-2, 2)})
        if phi.is_zero:
            continue
        expected = max(wt.deg(p) + i * wt.deg(g) for i, p in phi.coeffs.items())
        assert _aux_degree(wt, phi, g) == expected


def test_aux_leading_single_term(xyz, wt):
    x1, _, _ = xyz
    phi = _aux({1: x1})
    lead = aux_leading(wt, phi, x1)
    assert lead.coeffs == {1: x1}


def test_aux_leading_derivative_compatibility(wt, wlex):
    rng = random.Random(9)
    for trial in range(30):
        ws = wt if trial % 2 else wlex
        coeffs = {}
        for i in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            c = rng.randint(-2, 2)
            if c:
                coeffs[i] = coeffs.get(i, Poly.zero(3)) + Poly(3, {mono: c})
        phi = _aux({i: p for i, p in coeffs.items() if not p.is_zero})
        if phi.is_zero or _derivative(phi).is_zero:
            continue
        g = Poly(3, {(1, 0, 0): 1, (0, 2, 0): 1})
        lhs = aux_leading(ws, _derivative(phi), g)
        rhs = _derivative(aux_leading(ws, phi, g))
        if rhs.is_zero:
            continue
        assert lhs == rhs


def test_multiplicity_simple_cases(xyz, wt):
    x1, x2, _ = xyz
    g = x1 + x2**2
    # y - g vanishes at g, so the degree drops and the first derivative
    # restores agreement
    phi = _aux({0: -g, 1: Poly.constant(1, 3)})
    assert aux_multiplicity(wt, phi, g) == 1
    # no vanishing: zero multiplicity
    phi0 = _aux({0: x1, 1: Poly.constant(1, 3)})
    assert aux_multiplicity(wt, phi0, g) == 0


def test_multiplicity_matches_root_order(wt, wlex):
    rng = random.Random(4)
    checked_positive = 0
    for trial in range(60):
        ws = wt if trial % 2 else wlex
        g = Poly(3, {(1, 0, 0): 1, (0, 2, 0): rng.choice([1, -1])})
        k = rng.randint(0, 3)
        # (y - g)^k times a small unit plus noise below the leading level
        base = _aux({0: -g, 1: Poly.constant(1, 3)})
        phi = _aux({0: Poly.constant(1, 3)})
        for _ in range(k):
            phi = _mul_aux(phi, base)
        noise = _aux({0: Poly.constant(rng.randint(1, 3), 3)})
        phi = _add_aux(phi, noise)
        if phi.is_zero:
            continue
        m = aux_multiplicity(ws, phi, g)
        assert m == multiplicity_by_roots(ws, phi, g)
        checked_positive += m >= 1
    assert checked_positive > 10


def _mul_aux(a, b):
    out = {}
    for i, p in a.coeffs.items():
        for j, q in b.coeffs.items():
            out[i + j] = out.get(i + j, Poly.zero(3)) + p * q
    return AuxPoly(3, {k: v for k, v in out.items() if not v.is_zero})


def _add_aux(a, b):
    out = dict(a.coeffs)
    for i, p in b.coeffs.items():
        out[i] = out.get(i, Poly.zero(3)) + p
    return AuxPoly(3, {k: v for k, v in out.items() if not v.is_zero})


def test_eval_aux(xyz):
    x1, x2, x3 = xyz
    square = _aux({2: Poly.constant(1, 3)})
    assert square.evaluate(x1 + x2) == (x1 + x2) ** 2
    # Phi = y^3 - 2 x1 y + 1/2 x3, so Phi^(1) = 3y^2 - 2 x1, Phi^(2) = 6y,
    # Phi^(3) = 6 and Phi^(4) = 0
    phi = _aux({3: Poly.constant(1, 3), 1: x1.scale(-2), 0: x3.scale(Fraction(1, 2))})
    g = x1 + x2
    assert phi.evaluate(g, 0) == phi.evaluate(g) == g**3 - (x1 * g).scale(2) + x3.scale(
        Fraction(1, 2))
    assert phi.evaluate(g, 1) == (g**2).scale(3) - x1.scale(2)
    assert phi.evaluate(g, 2) == g.scale(6)
    assert phi.evaluate(g, 3) == Poly.constant(6, 3)
    assert phi.evaluate(g, 4).is_zero and phi.evaluate(g, 4).den == 1
    # (y - g)^2 vanishes at g to order 2
    root2 = _aux({2: Poly.constant(1, 3), 1: g.scale(-2), 0: g**2})
    assert root2.evaluate(g).is_zero and root2.evaluate(g, 1).is_zero
    assert root2.evaluate(g, 2) == Poly.constant(2, 3)


@pytest.mark.parametrize("exponent", [1.5, 2.0, "2", None, Fraction(3, 1)])
def test_aux_rejects_a_non_integral_exponent(exponent):
    # exponents are read with operator.index, as Poly reads its monomials:
    # a float, even an integral one, a string and a Fraction all raise
    with pytest.raises(ValueError, match="not an integer"):
        AuxPoly(3, {exponent: Poly.variable(0, 3)})


def test_aux_reads_exponents_with_index():
    class Two:
        def __index__(self):
            return 2

    x1 = Poly.variable(0, 3)
    phi = AuxPoly(3, {Two(): x1, True: x1})
    assert phi.coeffs == {2: x1, 1: x1} and all(type(i) is int for i in phi.coeffs)
    with pytest.raises(ValueError, match="negative"):
        AuxPoly(3, {-1: x1})


def test_aux_rejects_a_coefficient_of_another_arity():
    with pytest.raises(ValueError, match="arity 2, expected 3"):
        AuxPoly(3, {0: Poly.variable(0, 3), 1: Poly.variable(0, 2)})
    # a zero coefficient of another arity is rejected too, not dropped
    with pytest.raises(ValueError, match="arity"):
        AuxPoly(3, {1: Poly.zero(2)})
    assert AuxPoly(2, {1: Poly.variable(1, 2)}).coeffs == {1: Poly.variable(1, 2)}


def test_evaluate_rejects_a_point_of_another_arity():
    phi = _aux({0: Poly.variable(0, 3), 2: Poly.constant(1, 3)})
    for k in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="arity mismatch: 3 vs 2"):
            phi.evaluate(Poly.variable(0, 2), k)
    with pytest.raises(ValueError, match="arity mismatch"):
        AuxPoly(3, {}).evaluate(Poly.zero(4))


def test_degS_reads_representation(xyz, wt):
    x1, x2, x3 = xyz
    f = x2
    g = x3 + x2**3
    rep = BiPoly((f, g), Poly(2, {(1, 1): Fraction(1)}))
    assert degS(wt, rep) == wt.deg(f) + wt.deg(g)
    # cancellation in the value does not change the representation degree
    rep2 = BiPoly((f, g), Poly(2, {(3, 0): Fraction(1), (0, 1): Fraction(-1)}))
    assert degS(wt, rep2) == D(3)
    assert wt.deg(rep2.value()) < D(3)


def test_bipoly_at_substitutes_the_generators(xyz):
    x1, x2, x3 = xyz
    f, g = x1 + x3**2, x2 - x1
    rep = BiPoly((f, g), Poly(2, {(2, 0): Fraction(3), (0, 1): Fraction(-1, 2),
                                  (1, 2): Fraction(5)}))
    assert rep.at((f, g)) == rep.value()
    assert rep.value() == (f**2).scale(3) - g.scale(Fraction(1, 2)) + (f * g**2).scale(5)
    # at (y_j, y_k) the representation reads as a polynomial in those variables
    by_hand = Poly(3, {(0, 2, 0): 3, (0, 0, 1): Fraction(-1, 2), (0, 1, 2): 5})
    assert rep.at((x2, x3)) == by_hand


@st.composite
def _representations(draw):
    """(ws, f, g, coeffs): a random nonconstant generator pair and random
    rational coefficients on exponent pairs (i, j) <= 3, zeros included."""

    def poly():
        terms = {tuple(draw(st.integers(0, 2)) for _ in range(3)): draw(st.integers(-3, 3))
                 for _ in range(draw(st.integers(1, 3)))}
        p = Poly(3, terms)
        return p if not p.is_constant else p + Poly.variable(draw(st.integers(0, 2)), 3)

    ws = draw(st.sampled_from((total_weight(3), lex_weight(3),
                               WeightSystem(((1, 0), (1, 1), (0, 2))))))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.sampled_from([0, 1, -1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 6)]),
        max_size=5))
    return ws, poly(), poly(), coeffs


def _fresh(p):
    """A copy of p with nothing remembered, so no power is shared."""
    return Poly(p.n, p.terms)


@settings(max_examples=80, deadline=None)
@given(_representations(), st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 1)]))
def test_bipoly_matches_a_fraction_reference(case, jk):
    # the reference is the Fraction dict BiPoly used to hold, expanded term
    # by term as c * f^i * g^j on fresh copies of the generators
    ws, f, g, coeffs = case
    ref = {pair: Fraction(c) for pair, c in coeffs.items() if c}
    phi = BiPoly((f, g), Poly(2, coeffs))

    def expand(reference):
        acc = Poly.zero(3)
        for (i, j), c in sorted(reference.items()):
            acc = acc + (_fresh(f) ** i * _fresh(g) ** j).scale(c)
        return acc

    assert dict(phi.coeffs) == ref and phi.is_zero == (not ref)
    assert phi.value() == expand(ref)
    neg = phi.negate()
    assert neg.gens == (f, g) and dict(neg.coeffs) == {k: -c for k, c in ref.items()}
    assert neg.value() == expand({k: -c for k, c in ref.items()}) == -phi.value()
    j, k = jk
    by_hand = {}
    for (a, b), c in ref.items():
        mono = [0, 0, 0]
        mono[j], mono[k] = a, b
        by_hand[tuple(mono)] = c
    assert phi.on_variables(j, k, 3) == Poly(3, by_hand)
    pairs = [{"i": i, "j": jj, "c": str(c)} for (i, jj), c in sorted(ref.items())]
    assert json.dumps(phi.to_json()) == json.dumps({"pairs": pairs})
    if ref:
        assert degS(ws, phi) == max(ws.deg(_fresh(f) ** i * _fresh(g) ** jj)
                                    for i, jj in ref)


def test_derivative_degree_drop_when_multiple(wt):
    # whenever the multiplicity is at least one, differentiating drops the
    # auxiliary degree by exactly the degree of the evaluation point
    rng = random.Random(6)
    for _ in range(40):
        g = Poly(3, {(1, 0, 0): 1, (0, 1, 1): 1})
        base = _aux({0: -g, 1: Poly.constant(1, 3)})
        phi = _mul_aux(base, _aux({rng.randint(0, 2): Poly.constant(1, 3)}))
        if _derivative(phi).is_zero:
            continue
        if aux_multiplicity(wt, phi, g) >= 1:
            assert _aux_degree(wt, _derivative(phi), g) == _aux_degree(wt, phi, g) - wt.deg(g)


# --- inequality oracle -----------------------------------------------------


def test_inequality_m0_degenerates_to_equality(xyz, wt):
    x1, x2, _ = xyz
    report = su_inequality_report(wt, [x1], _aux({0: x1, 1: Poly.constant(1, 3)}), x2)
    assert report.multiplicity == 0
    assert report.holds is True
    assert report.lhs == report.rhs


def test_inequality_exact_example(xyz, wt):
    x1, x2, _ = xyz
    phi = _aux({0: x1 - x2, 1: Poly.constant(1, 3)})
    report = su_inequality_report(wt, [x1], phi, x2)
    assert report.holds is True


def test_inequality_rejects_zero_inputs(xyz, wt):
    x1, _, _ = xyz
    with pytest.raises(ValueError):
        su_inequality_report(wt, [x1], AuxPoly(3, {}), x1)
    with pytest.raises(ValueError):
        su_inequality_report(wt, [x1], _aux({0: x1}), Poly.zero(3))
    with pytest.raises(ValueError):
        su_inequality_report(wt, [x1, x1 * x1], _aux({0: x1}), x1)


def test_integer_claims_exhaustive():
    for p in range(2, 51):
        for q in range(p + 1, 51):
            if math.gcd(p, q) != 1:
                continue
            i, ii, iii = coprime_claims(p, q)
            assert i and ii and iii
            v = p * q - p - q
            assert v > 0
            if v <= q:
                assert p == 2 and q % 2 == 1
            if v <= p:
                assert (p, q) == (2, 3)


def test_inequality_report_evaluates_phi_at_g_once(xyz, wt, wlex, monkeypatch):
    # the report's deg Phi(g) is the multiplicity's k = 0 value degree, so a
    # report evaluates exactly what the multiplicity alone evaluates (each
    # order k = 0..m once), and it reaches the multiplicity loop that
    # aux_multiplicity shares exactly once
    x1, x2, x3 = xyz
    g = x1 + x2**2
    root = _aux({0: -g, 1: Poly.constant(1, 3)})
    cases = [(wt, _aux({0: x1, 1: Poly.constant(1, 3)}), x2),
             (wt, root, g), (wlex, _mul_aux(root, root), g),
             (wlex, _add_aux(_mul_aux(root, root), _aux({1: x3})), g)]
    evaluated, multiplicities = [], []
    evaluate, multiplicity, loop = (AuxPoly.evaluate, univariate.aux_multiplicity,
                                    univariate._multiplicity)
    monkeypatch.setattr(AuxPoly, "evaluate",
                        lambda self, at, k=0: evaluated.append(k) or evaluate(self, at, k))
    monkeypatch.setattr(univariate, "_multiplicity",
                        lambda *args: multiplicities.append(1) or loop(*args))
    for ws, phi, at in cases:
        evaluated.clear()
        m = multiplicity(ws, phi, at)
        alone = len(evaluated)
        assert alone == m + 1 and evaluated == list(range(m + 1))
        evaluated.clear()
        multiplicities.clear()
        report = su_inequality_report(ws, [x3], phi, at)
        assert len(evaluated) == alone and multiplicities == [1]
        assert evaluated == list(range(m + 1))
        assert report.multiplicity == m and report.lhs == ws.deg(phi.evaluate(at))
    assert [multiplicity(ws, phi, at) for ws, phi, at in cases] == [0, 1, 2, 2]
