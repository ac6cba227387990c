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
    aux_degree,
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


def test_aux_degree_examples(xyz, wt):
    x1, x2, _ = xyz
    g = x1 + x2**2
    phi = _aux({2: Poly.constant(1, 3)})
    assert aux_degree(wt, phi, g) == 2 * wt.deg(g)
    phi2 = _aux({0: x1, 1: Poly.constant(1, 3)})
    assert aux_degree(wt, phi2, x1) == wt.deg(x1)


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
        assert aux_degree(wt, phi, g) == expected


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
        if phi.is_zero or phi.derivative().is_zero:
            continue
        g = Poly(3, {(1, 0, 0): 1, (0, 2, 0): 1})
        lhs = aux_leading(ws, phi.derivative(), g)
        rhs = aux_leading(ws, phi, g).derivative()
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
    x1, x2, _ = xyz
    phi = _aux({2: Poly.constant(1, 3)})
    assert phi.evaluate(x1 + x2) == (x1 + x2) ** 2


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
        if phi.derivative().is_zero:
            continue
        if aux_multiplicity(wt, phi, g) >= 1:
            assert aux_degree(wt, phi.derivative(), g) == aux_degree(wt, phi, g) - wt.deg(g)


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
    # the report's deg Phi(g) is the multiplicity's i = 0 value degree, so a
    # report evaluates exactly what the multiplicity alone evaluates, and it
    # still reaches the multiplicity through the module's name
    x1, x2, x3 = xyz
    g = x1 + x2**2
    root = _aux({0: -g, 1: Poly.constant(1, 3)})
    cases = [(wt, _aux({0: x1, 1: Poly.constant(1, 3)}), x2),
             (wt, root, g), (wlex, _mul_aux(root, root), g),
             (wlex, _add_aux(_mul_aux(root, root), _aux({1: x3})), g)]
    evaluated, multiplicities = [], []
    evaluate, multiplicity = AuxPoly.evaluate, univariate.aux_multiplicity
    monkeypatch.setattr(AuxPoly, "evaluate",
                        lambda self, at: evaluated.append(1) or evaluate(self, at))
    monkeypatch.setattr(univariate, "aux_multiplicity",
                        lambda *args: multiplicities.append(1) or multiplicity(*args))
    for ws, phi, at in cases:
        evaluated.clear()
        m = multiplicity(ws, phi, at)
        alone = len(evaluated)
        assert alone == m + 1
        evaluated.clear()
        multiplicities.clear()
        report = su_inequality_report(ws, [x3], phi, at)
        assert len(evaluated) == alone and multiplicities == [1]
        assert report.multiplicity == m and report.lhs == ws.deg(phi.evaluate(at))
    assert [multiplicity(ws, phi, at) for ws, phi, at in cases] == [0, 1, 2, 2]
