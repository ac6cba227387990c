import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tame3 import engine
from tame3.algebra import (DegreeValue, Poly, WeightSystem, det, lex_weight, parse_poly,
                           total_weight)
from tame3.conditions import check_su_conditions
from tame3.engine import (
    Endo3,
    ReductionTrace,
    ReductionVerdict,
    TameFactor,
    TraceStep,
    certificate_json,
    certify_nagata,
    compose_endo,
    factor_tame,
    identity_endo,
    inverse_verified,
    nagata_endo,
    random_tame,
    recompose,
    reduce_step,
    reduce_to_floor,
    stuck_rigorous,
    su_number,
    triangularize_at_floor,
    verify_automorphism,
    invert_factors,
)
from tame3.search import ElementaryStep, permute_triple, unpermute_triple
from tame3.univariate import BiPoly


# --- composition and verification -------------------------------------------


def test_compose_identity(nagata):
    ident = identity_endo()
    assert compose_endo(nagata.components, ident) == nagata.components
    assert compose_endo(ident, nagata.components) == nagata.components


def test_elementary_inverse_composes_to_identity(xyz):
    x1, x2, x3 = xyz
    e = TameFactor.elementary(1, x2**3 - x3)
    assert compose_endo(e.as_endo(), e.inverted().as_endo()) == identity_endo()


def test_nagata_inverse_verified(nagata):
    assert verify_automorphism(nagata.components, nagata.inverse)
    assert not verify_automorphism(nagata.components, identity_endo())


def test_apply_permutation_and_scaling(nagata):
    F = nagata.components
    assert permute_triple(F, (1, 2, 3)) == F
    assert permute_triple(permute_triple(F, (2, 1, 3)), (2, 1, 3)) == F
    # scaling the components is a diagonal affine factor applied on the left
    scaling = TameFactor.affine([[2, 0, 0], [0, -1, 0], [0, 0, 3]], [0, 0, 0])
    scaled = scaling.apply(F)
    assert scaled == (F[0].scale(2), -F[1], F[2].scale(3))
    assert scaling.inverted().apply(scaled) == F
    with pytest.raises(ValueError):
        TameFactor.affine([[0, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])


def test_endo3_validation(nagata, nagata_ws):
    # Endo3 checks only its length; the claimed inverse is checked once,
    # after the reduction, by whoever reads a verdict from it
    assert Endo3(nagata.components, identity_endo()).inverse == identity_endo()
    with pytest.raises(ValueError):
        Endo3(nagata.components[:2])
    trace = reduce_to_floor(nagata_ws, nagata.components)
    assert trace.result == "stuck"
    assert inverse_verified(nagata_ws, trace, nagata.inverse)
    assert not inverse_verified(nagata_ws, trace, identity_endo())
    assert not inverse_verified(nagata_ws, trace, _one_coefficient_changed(nagata.inverse))


def _one_coefficient_changed(G):
    return (G[0] + Poly.constant(1, 3), *G[1:])


# --- factors ------------------------------------------------------------------


def test_factor_validation(xyz):
    x1, x2, _ = xyz
    with pytest.raises(ValueError):
        TameFactor.elementary(1, x1)  # uses its own variable
    with pytest.raises(ValueError):
        TameFactor.affine([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 0])


def test_factor_shapes_are_checked_at_construction():
    # a fourth column, a missing row and a 2-variable phi used to be accepted
    # or to fail later with an IndexError inside apply
    with pytest.raises(ValueError):
        TameFactor.affine([[1, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0]], [0, 0, 0])
    with pytest.raises(ValueError):
        TameFactor.affine([[1, 0, 0], [0, 1, 0]], [0, 0])
    with pytest.raises(ValueError):
        TameFactor.affine([[1, 0, 0], [0, 1, 0]], [0, 0, 0])
    with pytest.raises(ValueError):
        TameFactor.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        TameFactor.elementary(1, Poly.variable(1, 2))
    with pytest.raises(TypeError):
        TameFactor.affine([[0.5, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])


_RATIONAL_MATRIX = [[Fraction(1, 2), Fraction(-2, 3), 0],
                    [Fraction(3, 4), 1, Fraction(5, 6)],
                    [0, Fraction(-1, 5), 2]]
_RATIONAL_SHIFT = [Fraction(7, 3), 0, Fraction(-1, 4)]


def test_affine_factor_with_rational_entries(xyz):
    f = TameFactor.affine(_RATIONAL_MATRIX, _RATIONAL_SHIFT)
    expected = tuple(
        sum((x.scale(Fraction(c)) for x, c in zip(xyz, row)), Poly.constant(Fraction(b), 3))
        for row, b in zip(_RATIONAL_MATRIX, _RATIONAL_SHIFT)
    )
    assert f.as_endo() == expected
    inv = f.inverted()
    assert compose_endo(f.as_endo(), inv.as_endo()) == identity_endo()
    assert compose_endo(inv.as_endo(), f.as_endo()) == identity_endo()
    back = inv.inverted()
    assert back.matrix == f.matrix and back.translation == f.translation


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=12,
                max_size=12))
def test_affine_inverse_on_random_rational_factors(entries):
    matrix, shift = [entries[0:3], entries[3:6], entries[6:9]], entries[9:]
    try:
        f = TameFactor.affine(matrix, shift)
    except ValueError:
        m = matrix
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        assert det == 0
        return
    inv = f.inverted()
    assert compose_endo(f.as_endo(), inv.as_endo()) == identity_endo()
    assert inv.inverted().matrix == f.matrix and inv.inverted().translation == f.translation


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _rational_polys(draw, omit=None):
    """A random rational polynomial in three variables, without x_omit."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [draw(st.integers(0, 3)) for _ in range(3)]
        if omit is not None:
            mono[omit] = 0
        terms[tuple(mono)] = draw(_FRACTIONS)
    return Poly(3, terms)


@st.composite
def _rational_factors(draw):
    if draw(st.booleans()):
        matrix = [[draw(_FRACTIONS) for _ in range(3)] for _ in range(3)]
        translation = [draw(_FRACTIONS) for _ in range(3)]
        try:
            return TameFactor.affine(matrix, translation)
        except ValueError:
            return TameFactor.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]], translation)
    index = draw(st.integers(1, 3))
    return TameFactor.elementary(index, draw(_rational_polys(omit=index - 1)))


def _endo_by_hand(factor):
    """The factor's map from its fields, by Poly arithmetic alone."""
    y = identity_endo()
    if factor.kind == "elementary":
        comps = list(y)
        comps[factor.index - 1] = comps[factor.index - 1] + factor.phi
        return tuple(comps)
    return tuple(
        sum((v.scale(c) for v, c in zip(y, row)), Poly.constant(b, 3))
        for row, b in zip(factor.matrix, factor.translation)
    )


@settings(max_examples=80, deadline=None)
@given(_rational_factors())
def test_affine_rows_are_canonical(factor):
    assert factor.inverted().inverted() == factor
    if factor.kind != "affine":
        return
    for nums, den in factor.rows:
        assert den > 0 and math.gcd(den, *nums) == 1
    assert TameFactor.affine(factor.matrix, factor.translation) == factor
    as_ints = [[int(c) if c.denominator == 1 else c for c in row] for row in factor.matrix]
    assert TameFactor.affine(as_ints, factor.translation) == factor


def test_affine_json_is_unchanged():
    f = TameFactor.affine(_RATIONAL_MATRIX, _RATIONAL_SHIFT)
    assert f.to_json() == {
        "kind": "affine",
        "matrix": [["1/2", "-2/3", "0"], ["3/4", "1", "5/6"], ["0", "-1/5", "2"]],
        "translation": ["7/3", "0", "-1/4"],
    }
    assert f.inverted().to_json() == {
        "kind": "affine",
        "matrix": [["26/25", "16/25", "-4/15"], ["-18/25", "12/25", "-1/5"],
                   ["-9/125", "6/125", "12/25"]],
        "translation": ["-187/75", "163/100", "36/125"],
    }


@settings(max_examples=80, deadline=None)
@given(_rational_factors(), st.tuples(*[_rational_polys()] * 3))
def test_apply_matches_composition(factor, acc):
    assert factor.as_endo() == _endo_by_hand(factor)
    assert factor.apply(acc) == compose_endo(acc, factor.as_endo())
    assert factor.apply(acc) == compose_endo(acc, _endo_by_hand(factor))


def test_recompositions_apply_factors_in_place(wt, small_corpus, monkeypatch):
    calls = []

    def counted(F, G):
        calls.append(1)
        return compose_endo(F, G)

    monkeypatch.setattr(engine, "compose_endo", counted)
    for endo, factors in small_corpus[:6]:
        trace = reduce_to_floor(wt, endo.components)
        assert trace.recompose_origin() == endo.components
        triangularize_at_floor(wt, trace.final)
        assert recompose(factors) == endo.components
        assert recompose(invert_factors(factors)) == endo.inverse
    assert calls == []


def test_singular_rational_matrix_rejected():
    singular = [[Fraction(1, 2), Fraction(1, 3), 0],
                [Fraction(3, 2), 1, 0],
                [Fraction(2, 7), 5, Fraction(-4, 9)]]
    with pytest.raises(ValueError):
        TameFactor.affine(singular, [0, Fraction(1, 2), 0])


def test_invert_factors_roundtrip(small_corpus):
    for endo, factors in small_corpus[:6]:
        assert recompose(factors) == endo.components
        assert recompose(factors + invert_factors(factors)) == identity_endo()


# --- reduction steps -----------------------------------------------------------


def test_reduce_step_at_floor(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1 + x2, x2, x3)
    assert reduce_step(wt, F).kind == "at-floor"


def test_reduce_step_elementary(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1 + x2**2, x2, x3)
    step = reduce_step(wt, F)
    assert step.kind == "elementary"
    assert step.elementary.index == 1


def test_reduce_step_nagata_stuck(nagata, nagata_ws):
    step = reduce_step(nagata_ws, nagata.components)
    assert step.kind == "stuck"
    assert stuck_rigorous(step.reasons)


@pytest.mark.parametrize("prefer", ["elementry", "SU", ""])
def test_reduce_step_rejects_an_unknown_prefer(prefer, wt, xyz, nagata, nagata_ws):
    x1, x2, x3 = xyz
    for ws, F in ((wt, (x1 + x2, x2, x3)), (nagata_ws, nagata.components)):
        with pytest.raises(ValueError, match="prefer"):
            reduce_step(ws, F, prefer=prefer)
        with pytest.raises(ValueError, match="prefer"):
            reduce_to_floor(ws, F, prefer=prefer)


def test_reduce_to_floor_identity(wt):
    trace = reduce_to_floor(wt, identity_endo())
    assert trace.result == "floor"
    assert trace.steps == []


def test_reduce_to_floor_nagata(nagata, nagata_ws):
    trace = reduce_to_floor(nagata_ws, nagata.components)
    assert trace.result == "stuck"
    assert len(trace.steps) == 0
    assert trace.stuck_reasons


@pytest.mark.parametrize("e", [7, 2000, 10**6])
def test_reduce_past_a_one_term_power(e):
    # (x1, x2, x3 + x2^e) steps once onto x3 at lex; the step's expansion
    # reads x2^e, which a one-term base builds directly and keeps alone
    ws = lex_weight(3)
    F = tuple(parse_poly(text, 3) for text in ("x1", "x2", f"x3 + x2^{e}"))
    trace = reduce_to_floor(ws, F)
    assert json.dumps(trace.to_json(ws)) == json.dumps({
        "origin": ["x1", "x2", f"x2^{e} + x3"],
        "weight": {"r": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "steps": [{"kind": "elementary",
                   "payload": {"index": 3, "phi": {"pairs": [{"i": 0, "j": e, "c": "-1"}]},
                               "degree_after_component": [0, 0, 1]},
                   "degree_after": [1, 1, 1]}],
        "final": ["x1", "x2", "x3"], "result": "floor", "stuck": None})
    assert F[0]._powers is None and list(F[1]._powers) == [e]


def test_trace_recompose_origin(wt, wlex, small_corpus):
    for endo, _ in small_corpus[:8]:
        for ws in (wt, wlex):
            trace = reduce_to_floor(ws, endo.components)
            assert trace.result == "floor"
            assert trace.recompose_origin() == endo.components


@pytest.mark.parametrize("k", range(4))
def test_su_flavored_trace(su_pair_family, k):
    # forcing the structured search first produces a trace with a
    # non-elementary step whose undo still reproduces the origin
    ws, F, G = su_pair_family[k]
    trace = reduce_to_floor(ws, F, prefer="su", itercap=50)
    assert su_number(trace) >= 1
    assert trace.recompose_origin() == F
    # every su step is strict: the permuted pair passes the full SU block
    current = F
    for step in trace.steps:
        if step.kind == "su":
            sigma = step.su_witness.sigma
            assert check_su_conditions(ws, permute_triple(current, sigma),
                                       permute_triple(step.reduced, sigma)).overall
            current = step.reduced
        else:
            st = step.elementary
            comps = list(current)
            comps[st.index - 1] = comps[st.index - 1] + st.phi.value()
            current = tuple(comps)
            assert current == step.reduced
    assert current == trace.final


def test_su_step_json_keys(su_pair_family):
    # a strict su step carries no psi tail, no constant and no normalization flag
    ws, F, _ = su_pair_family[2]
    trace = reduce_to_floor(ws, F, prefer="su", itercap=50)
    step = next(s for s in trace.steps if s.kind == "su")
    payload = step.to_json()["payload"]
    assert set(payload) == {"witness", "reduced"}
    assert set(payload["witness"]) == {"sigma", "a", "b", "c", "phi3", "s", "delta"}


_PAIR_COEFFS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _FRACTIONS,
                               max_size=5)


@settings(max_examples=40, deadline=None)
@given(_PAIR_COEFFS, st.integers(1, 3))
def test_elementary_undo_places_phi_on_the_other_variables(coeffs, index):
    y = identity_endo()
    j, k = [x for x in range(3) if x != index - 1]
    phi = BiPoly((y[0], y[1]), Poly(2, coeffs))
    step = TraceStep("elementary", elementary=ElementaryStep(index, phi, None))
    assert step.undo_factors() == [TameFactor.elementary(index, -phi.at((y[j], y[k])))]


def _su_undo_by_composition(w):
    """The SU undo factors built by Poly arithmetic and compose."""
    y1, y2, y3 = identity_endo()

    def perm(sigma):
        return TameFactor.affine([[int(s - 1 == j) for j in range(3)] for s in sigma],
                                 [0, 0, 0])

    factors = [perm(unpermute_triple((1, 2, 3), w.sigma))]
    for idx, phi in ((1, (y3 * y3).scale(w.a) + y3.scale(w.c)), (2, y3.scale(w.b)),
                     (3, w.phi3.at((y1, y2)))):
        if not phi.is_zero:
            factors.append(TameFactor.elementary(idx, -phi))
    factors.append(perm(w.sigma))
    return factors


def test_undo_factors_place_without_compose(su_pair_family, small_corpus, wt, monkeypatch):
    steps = []
    for ws, F, _ in su_pair_family:
        steps += reduce_to_floor(ws, F, prefer="su", itercap=50).steps
    for endo, _ in small_corpus[:6]:
        steps += reduce_to_floor(wt, endo.components).steps
    su_steps = [s for s in steps if s.kind == "su"]
    assert len(su_steps) >= 4 and len(steps) > len(su_steps)
    expected = [_su_undo_by_composition(s.su_witness) for s in su_steps]
    calls = []
    compose = Poly.compose

    def counted(self, subs):
        calls.append(1)
        return compose(self, subs)

    monkeypatch.setattr(Poly, "compose", counted)
    undone = [step.undo_factors() for step in steps]
    assert calls == []
    assert [u for s, u in zip(steps, undone) if s.kind == "su"] == expected


def test_elementary_step_expands_its_representation_once(wt, xyz, monkeypatch):
    # the search's residual is the reduced component: the step's phi, the
    # negated representation, is expanded onto the component in one pass,
    # and the loop does not expand it again
    x1, x2, x3 = xyz
    calls = []
    at = BiPoly.at

    def counted(self, pair, onto=None):
        calls.append((self, onto))
        return at(self, pair, onto)

    monkeypatch.setattr(BiPoly, "at", counted)
    F = (x1 + x2**3, x2, x3)
    trace = reduce_to_floor(wt, F)
    assert trace.result == "floor" and len(trace.steps) == 1
    assert len(calls) == 1
    phi, onto = calls[0]
    assert phi is trace.steps[0].elementary.phi and onto is F[0]


def test_reduction_loop_takes_each_triple_degree_once(wt, wlex, xyz, small_corpus,
                                                      monkeypatch):
    # the degree of a reduced triple is the step's degree_after and the next
    # step's floor test, taken once
    x1, _, x3 = xyz
    assert wt.deg_endo((x1, Poly.zero(3), x3)) == DegreeValue.bottom()
    assert wlex.deg_endo(xyz) == wlex.total and WeightSystem(((1,),)).deg_endo([]).vec == (0,)
    calls = []
    deg_endo = WeightSystem.deg_endo

    def counted(self, components):
        calls.append(components)
        return deg_endo(self, components)

    monkeypatch.setattr(WeightSystem, "deg_endo", counted)
    endo, _ = small_corpus[4]
    trace = reduce_to_floor(wt, endo.components)
    assert trace.result == "floor" and len(trace.steps) >= 2
    assert calls == [trace.origin] + [step.reduced for step in trace.steps]
    assert trace.ledger == [deg_endo(wt, step.reduced) for step in trace.steps]


def test_su_number_zero_for_elementary_traces(wt, small_corpus):
    endo, _ = small_corpus[0]
    trace = reduce_to_floor(wt, endo.components)
    assert su_number(trace) == sum(1 for s in trace.steps if s.kind == "su")


def test_budget_cap_distinct_from_stuck(wt, small_corpus):
    for endo, _ in small_corpus:
        full = reduce_to_floor(wt, endo.components)
        if len(full.steps) >= 2:
            capped = reduce_to_floor(wt, endo.components, itercap=1)
            assert capped.result == "budget"
            assert capped.stuck_reasons is None
            return
    pytest.skip("no multi-step member in the small corpus")


# --- floor factorization --------------------------------------------------------


def test_triangularize_affine(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1 + x2.scale(2) + Poly.constant(5, 3), x2, x3 + Poly.constant(-1, 3))
    factors = triangularize_at_floor(wt, F)
    assert len(factors) == 1 and factors[0].kind == "affine"
    assert recompose(factors) == F


def test_triangularize_spec_example(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1, x2 + x1**2, x3 + x1 * x2)
    factors = triangularize_at_floor(wt, F)
    assert recompose(factors) == F
    kinds = [(f.kind, f.index) for f in factors]
    assert kinds == [("affine", None), ("elementary", 2), ("elementary", 3)]


def test_triangularize_weighted(xyz):
    x1, x2, x3 = xyz
    ws = lex_weight(3)
    F = (x1 + x2 * x3**2, x2 + x3**4, x3)
    assert ws.deg_endo(F) == ws.total
    factors = triangularize_at_floor(ws, F)
    assert recompose(factors) == F


def _nonlinear(p, omit):
    """p without its constant and linear terms and without the variables
    in omit."""
    return Poly(3, {m: c for m, c in p.terms.items()
                    if sum(m) >= 2 and not any(m[i] for i in omit)})


@settings(max_examples=40, deadline=None)
@given(st.lists(_FRACTIONS, min_size=12, max_size=12), _rational_polys(), _rational_polys())
def test_floor_affine_factor_reads_the_linear_part(entries, p2, p3):
    # F = A K + b with K unit-triangular in the total-weight order: the
    # floor's affine factor is the one built from F's coefficients
    matrix, shift = [entries[0:3], entries[3:6], entries[6:9]], entries[9:]
    try:
        affine = TameFactor.affine(matrix, shift)
    except ValueError:
        assume(False)
    F = recompose([affine, TameFactor.elementary(2, _nonlinear(p2, (1, 2))),
                   TameFactor.elementary(3, _nonlinear(p3, (2,)))])
    linear = [[f.coeff(m) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for f in F]
    factors = triangularize_at_floor(total_weight(3), F)
    assert factors[0] == TameFactor.affine(linear, [f.constant_term() for f in F])
    assert factors[0] == affine


def test_floor_singular_linear_part(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1.scale(Fraction(1, 2)) + x2, x1 + x2.scale(2) + Poly.constant(1, 3), x3)
    with pytest.raises(ValueError, match="internal inconsistency: singular linear part"):
        triangularize_at_floor(wt, F)


def test_triangularize_rejects_above_floor(wt, xyz):
    x1, x2, x3 = xyz
    with pytest.raises(ValueError):
        triangularize_at_floor(wt, (x1 + x2**2, x2, x3))


_SINGULAR = "internal inconsistency: singular linear part"
_RESIDUE = "internal inconsistency: linear residue after normalization"
_LATER = "not triangularizable: degree floor violated or tail involves a later variable"


def test_floor_raises_each_of_its_messages(wt, wlex, xyz, monkeypatch):
    x1, x2, x3 = xyz
    with pytest.raises(ValueError) as singular:
        triangularize_at_floor(wt, (x1 + x2, x1 + x2 + x3**2, x3))
    # x2^2 in the first component: x2 comes after x1 in the total-weight
    # order, and x1 is the last variable at lex
    with pytest.raises(ValueError) as later:
        triangularize_at_floor(wt, (x1 + x2**2, x2, x3))
    with pytest.raises(ValueError) as later_lex:
        triangularize_at_floor(wlex, (x1, x2 + x1, x3 + x1 * x2))
    # an exact inverse leaves the identity as K's linear part, so a residue
    # needs inverse rows that are wrong: here the identity's, for 2*x1
    identity = (((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1))
    monkeypatch.setattr(engine, "_inverse_rows", lambda rows: identity)
    with pytest.raises(ValueError) as residue:
        triangularize_at_floor(wt, (x1.scale(2), x2 + x1**2, x3))
    assert [str(e.value) for e in (singular, later, later_lex, residue)] == [
        _SINGULAR, _LATER, _LATER, _RESIDUE]


def test_floor_reads_its_tails_off_the_inverse_rows(xyz):
    # the inverse rows, over det R and not made primitive, undo the affine
    # factor when combined on its components
    x1, x2, x3 = xyz
    affine = TameFactor.affine([[Fraction(2, 3), 1, 0], [0, -2, 4], [1, 0, 5]], [1, 0, -3])
    tails = [TameFactor.elementary(2, x1**2), TameFactor.elementary(3, (x1 * x2).scale(-7))]
    F = recompose([affine, *tails])
    assert triangularize_at_floor(total_weight(3), F) == [affine, *tails]
    inverse = engine._inverse_rows(affine.rows)
    assert any(den < 0 for _, den in inverse)
    assert engine._affine_apply(inverse, affine.as_endo()) == identity_endo()


# --- the affine layer on integer rows ----------------------------------------------


def _apply_rows_by_hand(rows, acc):
    """Each row (nums, den) applied to acc by Poly.scale and +."""
    return tuple(
        sum((p.scale(Fraction(c, den)) for c, p in zip(nums[1:], acc)),
            Poly.constant(Fraction(nums[0], den), 3))
        for nums, den in rows)


_ROW_ENTRIES = st.one_of(st.just(0), st.integers(-5, 5))


@st.composite
def _integer_rows(draw):
    """Three rows (nums, den): drawn entries, zeros frequent, over a den of
    either sign, or the inverse rows of an affine factor, whose den det R
    may be negative and is not made primitive."""
    if draw(st.booleans()):
        factor = draw(_rational_factors().filter(lambda f: f.kind == "affine"))
        return engine._inverse_rows(factor.rows)
    return tuple((tuple(draw(_ROW_ENTRIES) for _ in range(4)),
                  draw(st.integers(-6, 6).filter(bool))) for _ in range(3))


@settings(max_examples=150, deadline=None)
@given(_integer_rows(), st.tuples(*[_rational_polys()] * 3))
def test_affine_apply_matches_scale_and_add(rows, acc):
    out = engine._affine_apply(rows, acc)
    assert out == _apply_rows_by_hand(rows, acc)
    for q in out:
        assert q.den > 0 and math.gcd(q.den, *q.nums.values()) == 1
        assert all(q.nums.values())


def test_affine_apply_edge_rows(xyz):
    x1, x2, x3 = xyz
    half_x1 = x1.scale(Fraction(1, 2))
    acc = (half_x1, x2.scale(Fraction(-1, 3)) + Poly.constant(1, 3), Poly.zero(3))
    rows = (((0, 2, 0, 0), 1),     # no translation, one component
            ((3, 2, 3, 0), -6),    # a negative den, components over 2 and 3
            ((-4, 0, 0, 7), 5),    # only the zero component: the constant
            ((0, 2, 0, 9), 1))     # terms that cancel to zero
    assert engine._affine_apply(rows, acc) == (
        x1, (x1 - x2 + Poly.constant(6, 3)).scale(Fraction(-1, 6)),
        Poly.constant(Fraction(-4, 5), 3), x1)
    assert engine._affine_apply(rows[3:], (half_x1, x2, x1.scale(Fraction(-1, 9)))) == (
        Poly.zero(3),)


def _adj3_by_minors(m):
    """adj(m)[j][i] = (-1)^(i + j) times the minor of m without row i and
    column j."""
    def minor(i, j):
        (a, b), (c, d) = [[m[r][k] for k in range(3) if k != j] for r in range(3) if r != i]
        return a * d - b * c
    return tuple(tuple((-1) ** (i + j) * minor(i, j) for i in range(3)) for j in range(3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=9, max_size=9), st.integers(-3, 3),
       st.integers(-3, 3), st.booleans())
def test_adj3_is_the_adjugate(entries, a, b, singular):
    m = [entries[0:3], entries[3:6], entries[6:9]]
    if singular:  # the last row a combination of the first two
        m[2] = [a * u + b * v for u, v in zip(m[0], m[1])]
    adj = engine._adj3(m)
    d = det(m)
    assert not singular or d == 0
    assert adj == _adj3_by_minors(m)
    for i in range(3):
        for j in range(3):
            assert sum(m[i][k] * adj[k][j] for k in range(3)) == d * (i == j)
            assert sum(adj[i][k] * m[k][j] for k in range(3)) == d * (i == j)


def test_identity_endo_is_one_shared_triple_per_arity():
    ident = identity_endo()
    assert identity_endo() is ident and identity_endo(3) is ident and identity_endo(n=3) is ident
    pair = identity_endo(2)
    assert pair is identity_endo(2) and pair is not ident
    assert pair == (Poly.variable(0, 2), Poly.variable(1, 2))
    assert ident == tuple(Poly.variable(i, 3) for i in range(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10_000), st.integers(0, 5))
def test_shared_identity_is_left_as_it_was(seed, count):
    # recompose, as_endo and verify_automorphism all start from the shared
    # triple; it and every power it remembers stay those of fresh variables
    endo, factors = random_tame(seed, count)
    assert recompose(factors) == endo.components
    assert recompose(invert_factors(factors)) == endo.inverse
    for f in factors:
        assert verify_automorphism(f.as_endo(), f.inverted().as_endo())
    if max(p.total_degree() for p in endo.components) <= 4:
        assert verify_automorphism(endo.components, endo.inverse)
    fresh = tuple(Poly.variable(i, 3) for i in range(3))
    assert identity_endo() == fresh
    for x, y in zip(identity_endo(), fresh):
        assert all(power == y**k for k, power in (x._powers or {}).items())


def test_factor_tame_roundtrip(wt, wlex, small_corpus):
    for endo, _ in small_corpus[:10]:
        for ws in (wt, wlex):
            factors, trace = factor_tame(ws, endo)
            assert trace.result == "floor"
            assert recompose(factors) == endo.components


def test_factor_tame_nagata_stuck(nagata, nagata_ws):
    factors, trace = factor_tame(nagata_ws, nagata)
    assert factors is None
    assert trace.result == "stuck"


@pytest.mark.parametrize("k", range(4))
def test_factor_tame_with_su_steps(su_pair_family, k):
    # The structured steps expand into elementary factors plus permutation
    # bookkeeping that recomposes exactly: these are the undo factors that
    # factor_tame puts in front of the floor factorization.  The pairs are
    # not automorphisms (nonconstant Jacobian), so their reductions end
    # stuck; an SU automorphism that reaches the floor is still open
    # (ROADMAP open item 6).
    ws, F, G = su_pair_family[k]
    trace = reduce_to_floor(ws, F, prefer="su", itercap=50)
    assert su_number(trace) >= 1
    undo = [factor for step in trace.steps for factor in step.undo_factors()]
    assert compose_endo(trace.final, recompose(undo)) == F
    factors, trace2 = factor_tame(ws, Endo3(F))
    assert factors is None
    assert trace2.result == "stuck"


# --- corpus generator ------------------------------------------------------------


def test_random_tame_deterministic():
    a1, f1 = random_tame(42, 4)
    a2, f2 = random_tame(42, 4)
    assert a1.components == a2.components
    assert [f.to_json() for f in f1] == [f.to_json() for f in f2]


def test_random_tame_zero_factors():
    endo, factors = random_tame(1, 0)
    assert endo.components == identity_endo()
    assert factors == []


def test_random_tame_explicit_inverse_check(wt):
    # small members admit the composition check
    checked = 0
    for seed in range(1, 40):
        endo, _ = random_tame(seed, 2)
        if max(f.total_degree() for f in endo.components) <= 4:
            assert verify_automorphism(endo.components, endo.inverse)
            checked += 1
    assert checked >= 5
    # every member, and every criterion-4 corpus member, checks through its factors
    for seed in range(1, 40):
        for endo, _ in (random_tame(seed, 2), random_tame(seed, seed % 5 + 1)):
            _, trace = factor_tame(wt, endo)
            assert trace.result == "floor"
            assert inverse_verified(wt, trace, endo.inverse)
            assert not inverse_verified(wt, trace, _one_coefficient_changed(endo.inverse))
            # the factors must also recompose to the trace's origin
            forged = dataclasses.replace(trace, origin=_one_coefficient_changed(endo.components))
            assert not inverse_verified(wt, forged, endo.inverse)


def test_random_tame_validation():
    with pytest.raises(ValueError):
        random_tame(1, -1)
    with pytest.raises(ValueError):
        random_tame(1, 1, coefficient_bound=0)


def _compose_clamped_by_substitution(factors):
    """Reference clamp: substitute each factor into the running map and
    check the degree of every prefix, before and after composing it."""
    comps = identity_endo()
    for factor in factors:
        top = max(f.total_degree() for f in comps)
        if factor.kind == "elementary" and factor.phi.total_degree() * top > engine._DEGREE_CLAMP:
            return None
        comps = compose_endo(factor.as_endo(), comps)
        if max(f.total_degree() for f in comps) > engine._DEGREE_CLAMP:
            return None
    return comps


def test_compose_clamped_matches_the_substitution_reference():
    # one factor list per seed, count and bounds, and its inverse list
    rejected = 0
    for cbound, dbound in ((3, 3), (2, 2), (5, 4)):
        for count in range(8):
            for seed in range(12):
                rng = random.Random(seed)
                factors = [engine._random_factor(rng, cbound, dbound) for _ in range(count)]
                for listed in (factors, invert_factors(factors)):
                    expected = _compose_clamped_by_substitution(listed)
                    assert engine._compose_clamped(listed) == expected
                    rejected += expected is None
    assert rejected > 0


def test_random_tame_matches_the_reference_on_the_criterion_4_corpus(monkeypatch):
    def corpus():
        return [(endo.components, endo.inverse, [f.to_json() for f in factors])
                for endo, factors in (random_tame(s, s % 5 + 1) for s in range(1, 201))]

    drawn = corpus()
    monkeypatch.setattr(engine, "_compose_clamped", _compose_clamped_by_substitution)
    assert drawn == corpus()


def test_random_tame_makes_no_right_substitution(monkeypatch):
    def no_substitution(*_):
        raise AssertionError("compose_endo called")

    monkeypatch.setattr(engine, "compose_endo", no_substitution)
    endo, factors = random_tame(13, 7)
    monkeypatch.undo()
    assert max(f.total_degree() for f in endo.components) <= engine._DEGREE_CLAMP
    assert recompose(factors) == endo.components
    assert recompose(invert_factors(factors)) == endo.inverse


@settings(max_examples=60, deadline=None)
@given(_rational_factors().filter(lambda f: f.kind == "affine"),
       st.tuples(*[_rational_polys()] * 3))
def test_affine_factor_keeps_every_component_degree(factor, P):
    for p, q in zip(P, compose_endo(factor.as_endo(), P)):
        assert q.total_degree() == p.total_degree()


@settings(max_examples=60, deadline=None)
@given(_rational_factors().filter(lambda f: f.kind == "elementary"),
       st.tuples(*[_rational_polys()] * 3))
def test_elementary_factor_multiplies_degree_by_at_most_deg_phi(factor, P):
    stretch = max(1, factor.phi.total_degree())
    for p, q in zip(P, compose_endo(factor.as_endo(), P)):
        assert q.is_zero if p.is_zero else q.total_degree() <= p.total_degree() * stretch


# --- certificate ------------------------------------------------------------------


def test_certificate_values(nagata, nagata_ws, assert_rigorous_stuck):
    cert = certify_nagata()
    assert cert.ws == nagata_ws and cert.verified
    assert cert.trace.origin == nagata.components
    assert cert.all_rigorous()
    assert_rigorous_stuck(cert.to_json())


@pytest.mark.parametrize("verified, result, reason, rigorous", [
    (True, "stuck", "degree-shape", True),
    (False, "stuck", "degree-shape", False),
    (True, "stuck", "limits-exhausted", False),
    (True, "floor", None, False),
])
def test_reduction_verdict_needs_every_part(nagata, nagata_ws, verified, result, reason,
                                            rigorous):
    trace = ReductionTrace(origin=nagata.components, final=nagata.components,
                           result=result)
    if reason is not None:
        absent = {"absent": {"reason": reason, "rigorous": reason != "limits-exhausted"}}
        trace.stuck_reasons = {"elementary": {str(i): absent for i in (1, 2, 3)},
                               "su": [absent]}
    verdict = ReductionVerdict(nagata_ws, trace, verified)
    assert verdict.all_rigorous() is rigorous
    doc = verdict.to_json()
    assert doc["automorphism_status"] == ("verified" if verified else "unverified")
    if result == "stuck":
        assert doc["verdict"].startswith("stuck with rigorous") is rigorous
        assert rigorous or doc["verdict"] == "no reduction found"
    else:
        assert "verdict" not in doc


def test_certificate_byte_stable(assert_rigorous_stuck):
    a = certificate_json(certify_nagata())
    b = certificate_json(certify_nagata())
    assert a == b
    assert_rigorous_stuck(json.loads(a))


def test_factor_tame_single_elementary(wt, xyz):
    x1, x2, x3 = xyz
    e = TameFactor.elementary(1, x2**3)
    endo = Endo3(e.as_endo(), TameFactor.elementary(1, -(x2**3)).as_endo())
    factors, trace = factor_tame(wt, endo)
    assert trace.result == "floor"
    assert recompose(factors) == endo.components
    assert sum(1 for f in factors if f.kind == "elementary") >= 1
