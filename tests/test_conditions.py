import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tame3 import conditions
from tame3.algebra import DegreeValue, Poly, parse_poly, total_weight
from tame3.conditions import (
    check_not_er,
    check_quasi_su,
    check_su_conditions,
    detect_type,
    normalize_to_su,
    su_pair_uniqueness,
    verify_properties,
)
from tame3.forms import differential, differentials_wedge, wedge, wedge_degree
from tame3.search import (DEFAULT_LIMITS, PERMUTATIONS_3, find_elementary_reduction,
                          find_su_reduction, permute_triple)

D = DegreeValue.of


def test_pair_with_itself_fails_su5(su_pair_family):
    ws, F, _ = su_pair_family[0]
    rep = check_su_conditions(ws, F, F)
    d3 = ws.deg(F[2]).to_json()
    # only the strict block records the degrees in its SU5 payload
    assert rep["SU5"] == {"holds": False, "deg_g3": d3, "deg_f3": d3}
    assert not rep.overall
    quasi = check_quasi_su(ws, F, F)
    assert quasi["SU5"] == {"holds": False}


def test_su_implies_quasi(su_pair_family):
    for ws, F, G in su_pair_family:
        strict = check_su_conditions(ws, F, G)
        if strict.overall:
            assert check_quasi_su(ws, F, G).overall


def test_family_passes_quasi(su_pair_family):
    for ws, F, G in su_pair_family:
        assert check_quasi_su(ws, F, G).overall


def test_decompose_of_a_zero_target_solves_nothing(monkeypatch, xyz):
    x1, _, x3 = xyz

    def refuse(*args):
        raise AssertionError("a zero target needs no solve")

    monkeypatch.setattr(conditions, "solve_contents", refuse)
    assert conditions._decompose(Poly.zero(3), [x3**2, x3, x1]) == [0, 0, 0]


# The three reports, byte for byte, on su_pair_family[0], whose first two
# shifts g1 - f1 and g2 - f2 are zero.
_ZERO_SHIFT_REPORTS = (
    '{"SU1": {"holds": true, "a": "0", "c": "0", "b": "0", "third_component": '
    '{"witness_pairs": [[0, 3], [2, 0]]}}, "SU2": {"holds": true, "deg_f": [[6], [4]], '
    '"deg_g": [[6], [4]]}, "SU3": {"holds": true, "s": 3}, "SU4": {"holds": true, '
    '"degree_ok": true, "leading_in_pair": false}, "SU5": {"holds": true, "deg_g3": [1], '
    '"deg_f3": [6]}, "SU6": {"holds": true, "bound": [6]}, "overall": true}',
    '{"SU1\'": {"holds": true, "first": {"zero_shift": true}, "second_in_third_gen": true, '
    '"third": {"witness_pairs": [[0, 3], [2, 0]]}}, "SU2\'": {"holds": true}, '
    '"SU3\'": {"holds": true}, "SU4": {"holds": true, "degree_ok": true, '
    '"leading_in_pair": false}, "SU5": {"holds": true}, "SU6": {"holds": true, '
    '"bound": [6]}, "overall": true}',
    '{"P1": {"holds": true, "s": 3, "delta": [2]}, "P2": {"holds": true}, "P3": '
    '{"holds": true}, "P4": {"holds": true, "quantifier": "sampled", "family_size": 2}, '
    '"P5": {"holds": true, "active": false}, "P6": {"holds": true}, "P7": {"holds": true}, '
    '"P8": {"holds": true}, "P9": {"holds": true, "quantifier": "sampled", "family_size": 0}, '
    '"P10": {"holds": true, "active": false, "note": "generating pairs coincide; '
    'hypothesis void"}, "P11": {"holds": true, "a": "0", "b": "0", "c": "0", "d": "0", '
    '"psi": {}, "uniqueness": "checked only against supplied pairs"}, "P12": {"holds": '
    'true, "first": true}, "overall": true}',
)


def test_zero_shift_reports(su_pair_family):
    ws, F, G = su_pair_family[0]
    assert (F[0], F[1]) == (G[0], G[1])
    for check, expected in zip((check_su_conditions, check_quasi_su, verify_properties),
                               _ZERO_SHIFT_REPORTS):
        assert json.dumps(check(ws, F, G).to_json()) == expected


def test_su1_rejects_tail_shift(su_pair_family):
    # a pair with a nonconstant tail in the first shift fails the strict
    # first condition but passes the weakened one
    ws, F, G = su_pair_family[2]
    strict = check_su_conditions(ws, F, G)
    assert not strict["SU1"]["holds"]
    assert check_quasi_su(ws, F, G).overall


def test_quasi_rejects_dependent_triples(wt, xyz):
    x1, x2, _ = xyz
    with pytest.raises(ValueError):
        check_quasi_su(wt, (x1, x2, x1 * x2), (x1, x2, x1 * x2))


def test_properties_hold_on_family(su_pair_family):
    for ws, F, G in su_pair_family:
        rep = verify_properties(ws, F, G)
        assert rep.overall, rep.to_json()
        assert rep["P1"]["s"] == 3
        assert rep["P4"]["quantifier"] == "sampled"


def _p4_double_loop(d2, d3, cap, count):
    """The P4 exponents as verify_properties enumerated them before it ended
    a row at its first product above cap: every j for every i."""
    out = []
    for i in range(count):
        for j in range(count):
            if i == j == 0:
                continue
            dd = i * d2 + j * d3
            if dd <= cap:
                out.append((i, j))
            elif j == 0 and i * d2 > cap:
                break
        if i * d2 > cap:
            break
    return out


def test_p4_family_is_the_full_double_loop_on_the_pairs(su_pair_family):
    count = DEFAULT_LIMITS.max_candidates
    for ws, F, G in su_pair_family:
        rep = verify_properties(ws, F, G)
        cap = rep["P1"]["s"] * DegreeValue(rep["P1"]["delta"])
        d2, d3 = ws.deg(F[1]), ws.deg(F[2])
        pairs = list(conditions._p4_exponents(d2, d3, cap, count))
        assert pairs == _p4_double_loop(d2, d3, cap, count) != []
        assert rep["P4"]["family_size"] == len(pairs) + (G[0] != F[0])


_lex_positive = st.integers(1, 3).flatmap(lambda r: st.tuples(
    *[st.lists(st.integers(-4, 6), min_size=r, max_size=r).filter(
        lambda v: tuple(v) > (0,) * len(v)).map(DegreeValue)] * 3))


@settings(max_examples=200, deadline=None)
@given(_lex_positive, st.integers(1, 24))
def test_p4_exponents_match_the_full_double_loop(degrees, count):
    d2, d3, cap = degrees
    assert list(conditions._p4_exponents(d2, d3, cap, count)) == _p4_double_loop(
        d2, d3, cap, count)


def test_properties_p6_strict_decrease(su_pair_family):
    for ws, F, G in su_pair_family:
        assert ws.deg_endo(G) < ws.deg_endo(F)


def test_properties_requires_quasi(wt, xyz):
    x1, x2, x3 = xyz
    with pytest.raises(ValueError):
        verify_properties(wt, (x1, x2, x3), (x1, x2, x3))
    with pytest.raises(ValueError, match="weakened condition block"):
        normalize_to_su(wt, (x1, x2, x3), (x1, x2, x3))


def test_p12_wedge_relations(su_pair_family):
    # the second relation ties the mixed wedge degrees through s and delta
    for ws, F, G in su_pair_family:
        rep = verify_properties(ws, F, G)
        s = rep["P1"]["s"]
        delta = DegreeValue(rep["P1"]["delta"])
        w13 = wedge_degree(ws, F[0], F[2])
        w23 = wedge_degree(ws, F[1], F[2])
        assert w13 == (s - 2) * delta + w23
        assert w23 >= s * delta + wedge_degree(ws, G[0], G[1])


# --- normalization -----------------------------------------------------------


def test_normalize_constant_only(su_pair_family):
    # tail in the constants: the two moves are translations
    ws, F, G = su_pair_family[1]
    norm = normalize_to_su(ws, F, G)
    assert check_su_conditions(ws, F, norm.normalized).overall
    assert ws.deg((G[0] - norm.normalized[0])) <= ws.deg(G[0])


def test_normalize_nonconstant_tail(su_pair_family):
    ws, F, G = su_pair_family[2]
    norm = normalize_to_su(ws, F, G)
    assert check_su_conditions(ws, F, norm.normalized).overall
    # first move preserves the degree of the first component
    assert ws.deg(norm.normalized[0]) == ws.deg(G[0])
    # moves are elementary in the stated shape
    e1, e2 = norm.e1, norm.e2
    assert e1[1] == Poly.variable(1, 3) and e1[2] == Poly.variable(2, 3)
    assert e2[0] == Poly.variable(0, 3) and e2[2] == Poly.variable(2, 3)


def test_normalize_b_nonzero_formula(wt, xyz):
    # the correction with b != 0 folds the tail's linear part into the
    # third-component scalar: g1' = f1 + a f3^2 + (c - b*e) f3
    x1, x2, x3 = xyz
    a, b, c, d = Fraction(0), Fraction(2), Fraction(3), Fraction(1)
    e, e_prime = Fraction(5), Fraction(-2)
    f1, f2, f3 = x1, x2, x3
    psi = f2.scale(e) + Poly.constant(e_prime, 3)
    g1 = f1 + (f3 * f3).scale(a) + f3.scale(c) + psi
    g2 = f2 + f3.scale(b) + Poly.constant(d, 3)
    # E1: y1 - Psi(y2 - d), applied to G
    g1_prime = g1 - ((g2 - Poly.constant(d, 3)).scale(e) + Poly.constant(e_prime, 3))
    expected = f1 + (f3 * f3).scale(a) + f3.scale(c - b * e)
    assert g1_prime == expected


def test_su_reduction_then_normalize(su_pair_family):
    for ws, F, G in su_pair_family:
        out = find_su_reduction(ws, F)
        sigma = out.witness.sigma
        Fs = permute_triple(F, sigma)
        Gs = permute_triple(out.reduced, sigma)
        norm = normalize_to_su(ws, Fs, Gs)
        assert check_su_conditions(ws, Fs, norm.normalized).overall


# --- uniqueness and non-reducibility ----------------------------------------


def _strict_pair(ws, F, G):
    norm = normalize_to_su(ws, F, G)
    return norm.normalized


def test_uniqueness_identical(su_pair_family):
    ws, F, G = su_pair_family[1]
    Gs = _strict_pair(ws, F, G)
    rep = su_pair_uniqueness(ws, F, Gs, Gs)
    assert rep["holds"]


def test_uniqueness_third_shifted_by_second(su_pair_family):
    ws, F, G = su_pair_family[1]
    Gs = _strict_pair(ws, F, G)
    shifted = (Gs[0], Gs[1], Gs[2] + Gs[1].scale(2) + Poly.constant(1, 3))
    assert check_su_conditions(ws, F, shifted).overall
    rep = su_pair_uniqueness(ws, F, Gs, shifted)
    assert rep["holds"]


def test_uniqueness_rejects_broken_pair(su_pair_family):
    ws, F, G = su_pair_family[1]
    Gs = _strict_pair(ws, F, G)
    broken = (Gs[0] + Poly.variable(0, 3) ** 7, Gs[1], Gs[2])
    with pytest.raises(ValueError):
        su_pair_uniqueness(ws, F, Gs, broken)


def test_check_not_er(su_pair_family):
    ws, F, G = su_pair_family[2]
    Gs = _strict_pair(ws, F, G)
    rep = check_not_er(ws, F, Gs)
    assert rep["holds"]
    assert rep["i2"]["non_membership"]
    # hypothesis for the third clause is active here
    assert (F[0], F[1]) != (Gs[0], Gs[1])
    assert "non_membership" in rep["i3"]


def test_check_not_er_void_clause(su_pair_family):
    # with vanishing shifts the generating pairs coincide: clause three void
    ws, F, G = su_pair_family[0]
    Gs = _strict_pair(ws, F, G)
    assert (F[0], F[1]) == (Gs[0], Gs[1])
    rep = check_not_er(ws, F, Gs)
    assert rep["i3"] == {"skipped": "hypothesis void"}


# --- type detectors ----------------------------------------------------------


def test_detect_type_rejects_other_weights(su_pair_family, wlex):
    ws, F, G = su_pair_family[0]
    with pytest.raises(ValueError):
        detect_type(F, "I", ws=wlex)
    with pytest.raises(ValueError):
        detect_type(F, "V")


def test_affine_never_typed(xyz):
    x1, x2, x3 = xyz
    F = (x1 + x2, x2 + Poly.constant(1, 3), x3)
    for kind in ("I", "II", "III", "IV"):
        assert detect_type(F, kind) is None


def _triple(*texts):
    return tuple(parse_poly(t, 3) for t in texts)


@pytest.mark.parametrize("kind, F", [
    # deg (4, 6, 4), so l = 2.  Under sigma (1, 2, 3) alpha = 1 gives the
    # candidates (x1^4 + x3, x1^6) and (x1^4 + x3, x1^6 - x2^4); under (3, 2, 1)
    # they are (-x1^4 - x3, x1^6) and (-x1^4 - x3, x1^6 - h3).  Their
    # cancellation floors 3*4 + deg(dg1 ^ dg2) - 4 - 6 are 9, 10, 9 and 10,
    # all above deg h3 = 4, so every peel stops at its first search.
    ("II", _triple("x1^4 + x2^4 + x3", "x1^6", "x2^4")),
    # deg (4, 6, 3): alpha = 1 cancels x2^6, leaving (x1^4 + x3, x1^6), whose
    # floor 9 lies above deg h3 = 3.
    ("III", _triple("x1^4 + x3", "x1^6 + x2^6", "x2^3")),
])
def test_detect_type_candidates_below_the_floor(kind, F):
    assert detect_type(F, kind) is None


@pytest.mark.parametrize("F", [
    _triple("x1^4 + x2", "x1^6 + x3", "x1^3 + x2"),
    # dependent: g2 - t*h3^2 is zero when the accept runs on h3 itself
    _triple("x1^4 + x2", "x1^6 + 2*x1^3*x3 + x3^2", "x1^3 + x3"),
], ids=["independent", "dependent"])
def test_detect_type_iv_peel_returns(F):
    # the accept runs on h3 (2*deg h3 = 3l) before the floor stops the peel;
    # only the return is checked, as the accept needs a peeled residual of
    # degree 3l/2, which is not below deg h3
    detect_type(F, "IV")


@pytest.mark.parametrize("fixed, base, shift, scalars", [
    ("x1", "x2 + 5*x1^2", "1/3*x2", [Fraction(3)]),  # base - 3*shift = 5 x1^2
    ("x1", "2*x2 + 4*x3", "x2 + 3*x3", []),          # same keys, not proportional
    ("x1", "x2*x3", "x2", []),                        # different keys
    ("x1", "x1^2", "x2", [Fraction(0)]),
    ("x1", "x2", None, []),
])
def test_leading_dependence_scalars(fixed, base, shift, scalars):
    # the scalars t with fixed and base - t*shift dependent, from the wedges
    import tame3.conditions as conditions

    forms = _triple(fixed, base, shift or "0")
    assert conditions._leading_dependence_scalars(
        forms[0], forms[1], forms[2] if shift else None) == scalars


@st.composite
def _leading_form_pairs(draw):
    """Two leading forms at total weight: each of a random polynomial (a
    constant form included), or scalar multiples of two powers of one such
    form, which are dependent."""
    ws = total_weight(3)
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])

    def form():
        p = Poly(3, {tuple(draw(st.integers(0, 3)) for _ in range(3)): draw(coeff)
                     for _ in range(draw(st.integers(1, 4)))})
        assume(not p.is_zero)
        return ws.leading_form(p)

    u = form()
    if draw(st.booleans()):
        return u, form()
    return tuple((u**draw(st.integers(1, 3))).scale(draw(coeff)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(_leading_form_pairs())
def test_dependence_without_a_shift_matches_the_wedge(pair):
    # with no shift form the scalar is 0 exactly when the two forms are
    # dependent, which the wedge of their differentials decides
    fixed, base = pair
    dependent = wedge(differential(fixed), differential(base)).is_zero
    assert conditions._leading_dependence_scalars(fixed, base, None) == (
        [Fraction(0)] if dependent else [])


def test_type_iii_iv_gate_skips_the_barren_branch(monkeypatch):
    # deg (8, 12, 5): only sigma (1, 2, 3) passes the parity gate with
    # l = 4, deg h2 = 3l and 2l < 2 deg h3 < 3l.  That branch's only scalar
    # is 0 and no residual below h3 has degree 3l/2, so the gate stops it
    # before any wedge scalar or peel is computed.
    import tame3.conditions as conditions

    calls = []

    def counted(name):
        inner = getattr(conditions, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    for name in ("peel", "_leading_dependence_scalars"):
        monkeypatch.setattr(conditions, name, counted(name))
    F = _triple("x1^8 + x2", "x1^12 + x3", "x2^5")
    assert detect_type(F, "III") is None
    assert detect_type(F, "IV") is None
    assert calls == []


# --- the degree gate before any permutation --------------------------------


def _detect_on_permuted_reference(ws, H, degs, sigma, which, limits):
    # the dispatch detect_type ran on every permutation before the gate
    # moved out, verbatim but for reaching the detectors through the module
    v1, v2, v3 = degs
    if v1 % 2 or v1 < 2:
        return None
    l = v1 // 2
    if which in ("I", "II"):
        if v2 % l:
            return None
        s = v2 // l
        if s < 3 or s % 2 == 0:
            return None
        if which == "I":
            return conditions._detect_type_i(ws, H, v3, sigma, l, s, limits)
        if s != 3:
            return None
        return conditions._detect_type_ii(ws, H, v3, sigma, l, limits)
    if not (2 * v3 == 3 * l and 5 * l < 2 * v2 <= 6 * l):
        return None
    return conditions._detect_type_iii_iv(ws, H, v2, sigma, l, which, limits)


def _detect_type_reference(F, which):
    # the old six-permutation loop: both tuples permuted, then the dispatch
    ws = total_weight(3)
    degs = tuple(conditions._deg(ws, f) for f in F)
    for sigma in PERMUTATIONS_3:
        witness = _detect_on_permuted_reference(ws, permute_triple(F, sigma),
                                                permute_triple(degs, sigma), sigma, which,
                                                DEFAULT_LIMITS)
        if witness is not None:
            return witness
    return None


def test_gated_scan_matches_the_permutation_loop(su_pair_family, small_corpus):
    triples = [permute_triple(T, sigma) for _, F, G in su_pair_family for T in (F, G)
               for sigma in PERMUTATIONS_3]
    triples += [endo.components for endo, _ in small_corpus]
    triples += [_triple("x1^4 + x2^4 + x3", "x1^6", "x2^4"),
                _triple("x1^4 + x3", "x1^6 + x2^6", "x2^3"),
                _triple("x1^4 + x2", "x1^6 + x3", "x1^3 + x2"),
                _triple("x1^8 + x2", "x1^12 + x3", "x2^5")]
    found = 0
    for T in triples:
        for kind in conditions.TYPE_NAMES:
            got, want = detect_type(T, kind), _detect_type_reference(T, kind)
            assert (got is None) == (want is None)
            if got is not None:
                found += 1
                assert got.to_json() == want.to_json() and got.derived == want.derived
    assert found >= 18  # type I on every permutation of three su-pair F


def test_type_gate_matches_the_inline_gate(monkeypatch):
    # the old dispatch with its detectors replaced by a record of what they
    # received: type II dispatched only at s = 3, types III and IV with no s
    monkeypatch.setattr(conditions, "_detect_type_i",
                        lambda ws, H, v3, sigma, l, s, limits: (l, s))
    monkeypatch.setattr(conditions, "_detect_type_ii",
                        lambda ws, H, v3, sigma, l, limits: (l, 3))
    monkeypatch.setattr(conditions, "_detect_type_iii_iv",
                        lambda ws, H, v2, sigma, l, which, limits: (l, None))
    passed = 0
    for degs in itertools.product(range(-1, 13), repeat=3):
        for kind in conditions.TYPE_NAMES:
            expected = _detect_on_permuted_reference(None, None, degs, None, kind, None)
            assert conditions._type_gate(degs, kind) == expected, (degs, kind)
            passed += expected is not None
    assert passed > 100


@pytest.mark.parametrize("F, reached", [
    (_triple("x1", "x2", "x3"), 0),                        # deg (1, 1, 1)
    (_triple("x1^4 + x2", "x2^5", "x3^7 + x1"), 0),        # deg (4, 5, 7)
    (_triple("x1^8 + x2", "x1^12 + x3", "x2^5"), 2),       # I and II gates at (8, 12, 5)
], ids=["odd", "no-gate", "one-gate"])
def test_scan_permutes_only_the_degrees_until_a_gate_passes(F, reached, monkeypatch):
    dispatched, permuted = [], []
    dispatch, permute = conditions._detect_on_permuted, conditions.permute_triple

    def counted(*args):
        dispatched.append(args[3])
        return dispatch(*args)

    def seen(triple, sigma):
        permuted.append(isinstance(triple[0], Poly))
        return permute(triple, sigma)

    monkeypatch.setattr(conditions, "_detect_on_permuted", counted)
    monkeypatch.setattr(conditions, "permute_triple", seen)
    for kind in conditions.TYPE_NAMES:
        detect_type(F, kind)
    assert len(dispatched) == reached
    assert permuted.count(True) == reached and permuted.count(False) == 6 * 4


def test_peel_candidates_have_dependent_leading_forms(su_pair_family, small_corpus,
                                                     monkeypatch):
    # every detector keeps only the scalars that make two leading forms
    # dependent, so each candidate whose degrees pass has dependent leading
    # forms and _peel_candidates checks only the degrees
    dependent = []
    peel_candidates = conditions._peel_candidates

    def observed(ws, h3, l, top, candidates, make_accept, limits):
        def seen():
            for key, g1, g2 in candidates:
                if g1.total_degree() == 2 * l and g2.total_degree() == top:
                    forms = [ws.leading_form(g1), ws.leading_form(g2)]
                    dependent.append(differentials_wedge(forms).is_zero)
                yield key, g1, g2
        return peel_candidates(ws, h3, l, top, seen(), make_accept, limits)

    monkeypatch.setattr(conditions, "_peel_candidates", observed)
    triples = [T for _, F, _ in su_pair_family for T in (F, permute_triple(F, (2, 1, 3)))]
    triples += [endo.components for endo, _ in small_corpus]
    triples += [_triple("x1^4 + x2^4 + x3", "x1^6", "x2^4"),
                _triple("x1^4 + x3", "x1^6 + x2^6", "x2^3"),
                _triple("x1^4 + x2", "x1^6 + 2*x1^3*x3 + x3^2", "x1^3 + x3"),
                # independent leading forms at each detector's lower branch
                # (type I with deg h3 < s*l, type II with deg h3 < 2l,
                # types III/IV with deg h2 < 3l)
                _triple("x1^4", "x2^6", "x3^5"), _triple("x1^8", "x2^12", "x3^7"),
                _triple("x1^8", "x2^11", "x3^6")]
    for T in triples:
        for kind in ("I", "II", "III", "IV"):
            detect_type(T, kind)
    assert len(dependent) >= 5 and all(dependent)


def test_su_pair_with_moved_generators_gives_type(su_pair_family):
    # strict pair with changed first two components: the swapped triple
    # admits a reduction of one of the first three types
    ws, F, G = su_pair_family[1]
    Gs = _strict_pair(ws, F, G)
    assert (F[0], F[1]) != (Gs[0], Gs[1])
    F_tau = permute_triple(F, (2, 1, 3))
    found = [k for k in ("I", "II", "III") if detect_type(F_tau, k) is not None]
    assert found


def test_su_pair_with_fixed_generators_gives_elementary(su_pair_family):
    ws, F, G = su_pair_family[0]
    Gs = _strict_pair(ws, F, G)
    assert (F[0], F[1]) == (Gs[0], Gs[1])
    out = find_elementary_reduction(ws, F)
    assert out.step is not None


def test_type_exclusivity_on_fixture(su_pair_family):
    ws, F, G = su_pair_family[1]
    F_tau = permute_triple(F, (2, 1, 3))
    found = [k for k in ("I", "II", "III", "IV") if detect_type(F_tau, k) is not None]
    assert len(found) <= 1


def test_type_i_appendix_identity(su_pair_family, wt):
    # a type-I triple satisfies: the two wedges against the second
    # component share their degree
    ws, F, G = su_pair_family[1]
    F_tau = permute_triple(F, (2, 1, 3))
    wit = detect_type(F_tau, "I")
    assert wit is not None
    H = permute_triple(F_tau, wit.sigma)
    assert wedge_degree(wt, H[0], H[1]) == wedge_degree(wt, H[0], H[2])


def test_type_witness_reconstructs(su_pair_family):
    ws, F, G = su_pair_family[1]
    F_tau = permute_triple(F, (2, 1, 3))
    wit = detect_type(F_tau, "I")
    h1, h2, h3 = permute_triple(F_tau, wit.sigma)
    g1, g2, g3 = wit.derived
    assert g1 == h1
    assert g2 == h2 - h3.scale(wit.alpha)
    assert g3 == h3 + wit.g.value()
    assert ws.deg(g3) < ws.deg(h3)


def test_detect_type_does_not_depend_on_remembered_degrees(su_pair_family, wt, wlex):
    # the degree gates read ws.deg, which remembers one weight's degree on
    # each polynomial: fresh components, components that remember their
    # total degree and components that remember their lex degree give the
    # same witnesses
    _, F, _ = su_pair_family[1]
    F_tau = permute_triple(F, (2, 1, 3))
    scans = []
    for remembered in (None, wt, wlex):
        T = tuple(Poly.from_contents(3, f.nums, f.den) for f in F_tau)
        for f in T:
            assert f._deg is None
            if remembered is not None:
                remembered.deg(f)
        witnesses = [detect_type(T, kind) for kind in ("I", "II", "III", "IV")]
        scans.append([w and json.dumps(w.to_json(), sort_keys=True) for w in witnesses])
    assert scans[0][0] is not None
    assert scans[1] == scans[0] and scans[2] == scans[0]


def test_lemma_first_slot_permutation(su_pair_family):
    # whenever the first component strictly dominates, a matching
    # permutation must keep slot one fixed
    for ws, F, G in su_pair_family:
        d1, d2, d3 = (ws.deg(f) for f in F)
        if d2 < d1 and d3 < d1:
            out = find_su_reduction(ws, F)
            assert out.witness.sigma[0] == 1


def test_scalar_uniqueness_against_perturbed_pair(su_pair_family):
    # with a constant tail the three scalars are pinned: changing the
    # linear one breaks the condition block
    ws, F, G = su_pair_family[1]
    Gs = _strict_pair(ws, F, G)
    g1_bad = Gs[0] + F[2]  # shifts c by one
    bad = (g1_bad, Gs[1], Gs[2])
    ok_quasi = True
    try:
        ok_quasi = check_quasi_su(ws, F, bad).overall
    except ValueError:
        ok_quasi = False
    assert not ok_quasi


def test_wedge_relations_on_multistep_witnesses(su_pair_family, small_corpus, wt):
    # for witnesses of the second, third, and fourth patterns the two mixed
    # wedge degrees are tied to the block degree; no such witness is
    # constructible at this scale, so assert over whatever exists
    triples = [permute_triple(F, (2, 1, 3)) for ws, F, G in su_pair_family]
    triples += [endo.components for endo, _ in small_corpus[:10]]
    for T in triples:
        for kind in ("II", "III", "IV"):
            wit = detect_type(T, kind)
            if wit is None:
                continue
            H = permute_triple(T, wit.sigma)
            l = wit.l
            g1, g2, g3 = wit.derived
            assert wedge_degree(wt, H[0], H[2]) == \
                wedge_degree(wt, g1, g2) + DegreeValue.of(3 * l)
            assert wedge_degree(wt, H[1], H[2]) == \
                wedge_degree(wt, H[0], H[2]) + DegreeValue.of(l)


def test_nagata_shifted_pair_fails_su3(nagata, nagata_ws):
    # shifting the candidate triple by its own third component in the
    # canonical shapes cannot produce the odd power relation
    f1, f2, f3 = nagata.components
    G = (f1 + f3 * f3 + f3, f2 + f3 + Poly.constant(1, 3), f3)
    rep = check_su_conditions(nagata_ws, nagata.components, G)
    assert not rep["SU3"]["holds"]
    assert not rep.overall
