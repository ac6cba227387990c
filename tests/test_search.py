import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from tame3 import cli, search
from tame3.algebra import (DegreeValue, Poly, ScaledPair, WeightSystem, all_semigroup_pairs,
                           cancellation_window, level_box, lex_weight, parallel_multipliers,
                           parse_poly, poly_to_text, probe_points, proportionality,
                           solve_contents, total_weight)
from tame3.engine import random_tame, reduce_step, stuck_rigorous
from tame3.search import (
    DEFAULT_LIMITS,
    SearchLimits,
    exact_membership,
    find_elementary_reduction,
    find_scaled_pair,
    find_su_reduction,
    homogeneous_membership,
    leading_membership_search,
    membership_in_single,
    permute_triple,
    unpermute_triple,
)
from tame3.conditions import check_quasi_su
from tame3.forms import wedge_degree
from tame3.univariate import AuxPoly, BiPoly, degS, su_inequality_report

D = DegreeValue.of


def test_limits_validation():
    with pytest.raises(ValueError):
        SearchLimits(max_bidegree=0)


def test_permute_roundtrip(xyz):
    for sigma in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)):
        assert unpermute_triple(permute_triple(xyz, sigma), sigma) == xyz


# --- homogeneous membership ------------------------------------------------


def test_homogeneous_membership_identity(xyz, wt):
    x1, x2, _ = xyz
    rep = homogeneous_membership(wt, x1, x1, x2)
    assert rep is not None and rep.coeffs == {(1, 0): 1}


def test_homogeneous_membership_unique_pair(nagata_ws, xyz):
    x1, x2, x3 = xyz
    g1 = x1 * x3**2
    target = g1 * x2
    rep = homogeneous_membership(nagata_ws, target, g1, x2)
    assert rep is not None and rep.coeffs == {(1, 1): 1}


def test_homogeneous_membership_nagata_obstruction(nagata, nagata_ws):
    ws = nagata_ws
    f1w, f2w, f3w = (ws.leading_form(f) for f in nagata.components)
    assert homogeneous_membership(ws, f3w, f1w, f2w) is None


def test_homogeneous_membership_rejects_inhomogeneous(wt, xyz):
    x1, x2, _ = xyz
    with pytest.raises(ValueError):
        homogeneous_membership(wt, x1 + x2**2, x1, x2)


def test_homogeneous_membership_spanning_slice(wt, xyz):
    # parallel generator degrees: several exponent pairs share the slice
    x1, x2, _ = xyz
    f = x1**2
    g = x2**2
    target = (x1**2 * x2**2).scale(3) + x1**4
    rep = homogeneous_membership(wt, target, f, g)
    assert rep is not None and rep.value() == target


# --- leading membership -----------------------------------------------------


def test_leading_membership_trivial(wt, xyz):
    _, x2, x3 = xyz
    out = leading_membership_search(wt, x2**2, (x2, x3))
    assert out.found is not None and out.found.coeffs == {(2, 0): 1}
    assert out.rounds_used == 0


def test_leading_membership_needs_cancellation(wt, xyz):
    # witness with representation degree strictly above the value degree
    x, y, z = xyz
    g1 = y**6 + (y**2 * z).scale(Fraction(3, 2))
    g2 = y**4 + z
    target = g1**2 - g2**3  # degree 6 but built from degree-12 products
    assert wt.deg(target) == D(6)
    out = leading_membership_search(wt, target, (g1, g2))
    assert out.found is not None
    assert out.rounds_used >= 1
    assert out.residual == target - out.found.value()
    assert wt.deg(out.residual) < D(6)


def test_leading_membership_nagata_rigorous_absence(nagata, nagata_ws):
    f1, f2, f3 = nagata.components
    out = leading_membership_search(nagata_ws, f1, (f2, f3))
    assert out.found is None
    assert out.absence.reason == "semigroup-obstruction"
    assert out.absence.rigorous


def test_exact_membership_roundtrip(wt, xyz):
    x, y, z = xyz
    g1 = y**6 + (y**2 * z).scale(Fraction(3, 2))
    g2 = y**4 + z
    value = (g1**2 - g2**3) + g1.scale(2) - g2 + Poly.constant(7, 3)
    out = exact_membership(wt, value, (g1, g2))
    assert out.found is not None
    assert out.found.value() == value


def test_membership_in_single(wt, xyz):
    x, y, _ = xyz
    g = y**2 + x
    target = (g**3).scale(2) - g + Poly.constant(5, 3)
    coeffs = membership_in_single(wt, target, g)
    assert coeffs == {3: Fraction(2), 1: Fraction(-1), 0: Fraction(5)}
    assert membership_in_single(wt, x + y, g) is None


def test_membership_in_single_leading_forms(wt, xyz):
    x1, x2, _ = xyz
    # a scalar multiple of a power of the base form is a member
    assert membership_in_single(wt, (x1**3).scale(-2), x1) == {3: Fraction(-2)}
    # same degree as a power, but not proportional to it
    assert membership_in_single(wt, x1 * x2, x1) is None
    assert membership_in_single(wt, Poly.constant(4, 3), x1) == {0: Fraction(4)}
    # a zero target is a member with no coefficients; the condition checkers rely on it
    assert membership_in_single(wt, Poly.zero(3), x1) == {}


def _obstruction(target_degree, note=None):
    detail = {"target_degree": target_degree}
    if note is not None:
        detail["note"] = note
    return {"absent": {"reason": "semigroup-obstruction", "rigorous": True,
                       "detail": detail}}


def _shape(detail):
    return {"absent": {"reason": "degree-shape", "rigorous": True, "detail": detail}}


@pytest.mark.parametrize("weight, target, gens, expected", [
    (lex_weight(3), "x1", ("x2", "x3"), _obstruction([1, 0, 0])),
    (WeightSystem(((1, 0), (0, 1), (1, 0))), "x3*x2", ("x1", "x2"),
     _shape("homogeneous-slice-mismatch")),
    (total_weight(3), "x3", ("x1^2", "x2^2"),
     _obstruction([1], "independent leading forms")),
    (total_weight(3), "x3", ("x1", "x2"),
     _shape("homogeneous-slice-mismatch (independent leading forms)")),
    (total_weight(3), "x3", ("x1^2 + x2", "x1^3 + x3"),
     _obstruction([1], "below the cancellation floor")),
    (total_weight(3), "x3^4", ("x1^2 + x2", "x1^3 + x3"),
     _shape({"cancellation_floor": [5]})),
], ids=["independent-degrees-empty-slice", "independent-degrees-slice",
        "independent-forms-empty-slice", "independent-forms-slice",
        "below-floor-empty-slice", "below-floor-slice"])
def test_leading_membership_rigorous_absences(weight, target, gens, expected):
    # each exit where the exact slice decides, with and without slice pairs
    out = leading_membership_search(
        weight, parse_poly(target, 3), tuple(parse_poly(g, 3) for g in gens))
    assert out.found is None
    assert out.absence.to_json() == expected


# --- scalar helpers ----------------------------------------------------------


def test_find_scaled_pair(wt, xyz):
    x1, x2, _ = xyz
    sp = find_scaled_pair(wt, x1**2, x1**3)
    assert (sp.p, sp.q) == (2, 3)
    assert find_scaled_pair(wt, x1, x2) is None
    sp = find_scaled_pair(wt, (x2**2).scale(2), x2**3)
    assert (sp.p, sp.q) == (2, 3)
    # degree-compatible but polynomially unrelated forms
    assert find_scaled_pair(wt, x1**2, x2**3) is None


def _scaled_pair_by_expansion(ws, fw, gw):
    """find_scaled_pair's answer from the degree relation and a comparison
    of powers built by repeated multiplication on fresh copies."""
    df, dg = ws.deg(fw), ws.deg(gw)
    if not (df.is_positive() and dg.is_positive()):
        return None
    a, b = parallel_multipliers(df.vec, dg.vec)
    if b is None or a <= 0 or b <= 0:
        return None
    p, q = a // math.gcd(a, b), b // math.gcd(a, b)
    fq, gp = Poly(3, fw.terms), Poly(3, gw.terms)
    for _ in range(q - 1):
        fq = fq * Poly(3, fw.terms)
    for _ in range(p - 1):
        gp = gp * Poly(3, gw.terms)
    return None if proportionality(gp, fq) is None else ScaledPair(p, q)


_PAIR_WEIGHTS = (total_weight(3), lex_weight(3), WeightSystem(((1, 0), (0, 1), (1, -2))))


@st.composite
def _pair_cases(draw):
    """(ws, fw, gw, kind): two random leading forms, a true power pair
    (c*u^p, u^q) for coprime p, q, or a near miss (u^p plus one monomial of
    the same degree that u^p lacks, where the weight has one)."""
    ws = draw(st.sampled_from(_PAIR_WEIGHTS))

    def form():
        terms = {tuple(draw(st.integers(0, 2)) for _ in range(3)): draw(st.integers(-3, 3))
                 for _ in range(draw(st.integers(1, 3)))}
        f = Poly(3, terms)
        assume(not f.is_zero and ws.deg(f).is_positive())
        return ws.leading_form(f)

    kind = draw(st.sampled_from(["random", "power", "near-miss"]))
    if kind == "random":
        return ws, form(), form(), kind
    u = form()
    p, q = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]))
    up = u**p
    if kind == "power":
        return ws, up.scale(draw(st.sampled_from([1, -2, Fraction(3, 5)]))), u**q, kind
    top = ws.deg(up).vec
    bound = 2 * up.total_degree() + 2
    others = [m for m in product(range(bound + 1), repeat=3)
              if ws.monomial_vec(m) == top and m not in up.nums]
    assume(others)
    extra = Poly(3, {draw(st.sampled_from(others)): draw(st.sampled_from([1, -1, 2]))})
    return ws, up + extra, u**q, kind


@settings(max_examples=150, deadline=None)
@given(_pair_cases())
def test_find_scaled_pair_matches_the_exact_comparison(case):
    ws, fw, gw, kind = case
    got = find_scaled_pair(ws, fw, gw)
    assert got == _scaled_pair_by_expansion(ws, fw, gw)
    if kind == "power":
        assert got is not None


def test_refuted_pair_builds_no_power():
    wt = total_weight(3)
    fw, gw = parse_poly("x1^2 + x2^2", 3), parse_poly("x1^3", 3)
    assert find_scaled_pair(wt, fw, gw) is None
    assert fw._powers is None and gw._powers is None
    # a "yes" is proved on the full powers: gw^2 and fw^3 are built
    fw, gw = parse_poly("x1^2 + 2*x1*x2 + x2^2", 3), parse_poly("3*x1^3 + 9*x1^2*x2 + "
                                                            "9*x1*x2^2 + 3*x2^3", 3)
    assert find_scaled_pair(wt, fw, gw) == ScaledPair(2, 3)
    assert 3 in fw._powers and 2 in gw._powers


def test_scaled_pair_vanishing_at_every_probe_point_is_decided_exactly():
    # two cubics, each a product of three lines through pairs of the probe
    # points, vanish at all of them: the point test cannot refute, and the
    # exact comparison says no
    pts = probe_points(3)

    def line(a, b):
        return Poly(3, {(1, 0, 0): a[1] * b[2] - a[2] * b[1],
                        (0, 1, 0): a[2] * b[0] - a[0] * b[2],
                        (0, 0, 1): a[0] * b[1] - a[1] * b[0]})

    def cubic(pairs):
        out = Poly.constant(1, 3)
        for i, j in pairs:
            out = out * line(pts[i], pts[j])
        return out

    f, g = cubic([(0, 1), (2, 3), (4, 5)]), cubic([(0, 2), (1, 3), (4, 5)])
    wt = total_weight(3)
    assert all(h.at_probe(k)[0] == 0 for h in (f, g) for k in range(len(pts)))
    assert find_scaled_pair(wt, f, g) is None
    assert find_scaled_pair(wt, f, f.scale(-2)) == ScaledPair(1, 1)


# --- elementary reduction -----------------------------------------------------


def test_elementary_reduction_constructed(wt, xyz):
    x1, x2, x3 = xyz
    F = (x1 + x2**3, x2, x3)
    out = find_elementary_reduction(wt, F)
    assert out.step is not None
    assert out.step.index == 1
    assert out.step.phi.value() == -(x2**3)
    assert out.step.new_degree == D(1)


def test_elementary_reduction_nagata_absent(nagata, nagata_ws):
    out = find_elementary_reduction(nagata_ws, nagata.components)
    assert out.step is None
    assert set(out.reasons) == {1, 2, 3}
    assert all(a.rigorous for a in out.reasons.values())


def test_elementary_exact_slice_before_widening(wt, xyz, monkeypatch):
    # component 1 reduces only through cancelling products, component 3 on
    # its exact slice: the exact pass steps component 3 and never widens
    x1, x2, x3 = xyz
    F = (x1 - (x2 * x3).scale(2) - x3.scale(2), x2, x3 - (x2**2).scale(2))
    assert leading_membership_search(wt, F[0], (F[1], F[2])).rounds_used >= 1
    widened = []
    widen = search._widen

    def counted(*args):
        widened.append(args)
        return widen(*args)

    monkeypatch.setattr(search, "_widen", counted)
    out = find_elementary_reduction(wt, F)
    assert out.step is not None and out.step.index == 3
    assert out.step.phi.value() == (x2**2).scale(2)
    assert out.reduced == (F[0], x2, x3)
    assert widened == []


def test_elementary_search_decides_each_lattice_question_once(wt, wlex, small_corpus,
                                                              monkeypatch):
    # a component that reaches the lattice step takes its semigroup pairs and
    # the Z-independence of the other two degrees once each, whether the
    # exact slice decides it, pass 2 widens it, or the semigroup skips it
    counts = {}
    for name in ("z_independent", "all_semigroup_pairs"):
        def counted(*args, _name=name, _original=getattr(search, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(search, name, counted)
    searched = []
    for ws in (wt, wlex):
        for endo, _ in small_corpus[:12]:
            counts.update(z_independent=0, all_semigroup_pairs=0)
            find_elementary_reduction(ws, endo.components)
            assert counts["z_independent"] == counts["all_semigroup_pairs"] <= 3
            searched.append(counts["z_independent"])
    assert max(searched) == 3


def test_power_pairs_are_tested_only_where_pass_2_widens(wt, wlex, xyz, small_corpus,
                                                         monkeypatch):
    # pass 1 never tests power proportionality; each widened component tests
    # it once, first, whatever its verdict
    counts = {}
    for name in ("find_scaled_pair", "_widen"):
        def counted(*args, _name=name, _original=getattr(search, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(search, name, counted)
    x, y, z = xyz
    g1, g2 = _cancelling_pair(y, z)
    searches = [(ws, endo.components) for ws in (wt, wlex) for endo, _ in small_corpus]
    widened = 0
    for ws, F in searches + [(wt, (x + g1**2 - g2**3, g1, g2))]:
        counts.update(find_scaled_pair=0, _widen=0)
        find_elementary_reduction(ws, F)
        assert counts["find_scaled_pair"] == counts["_widen"]
        widened += counts["_widen"]
    assert widened >= 1


def _cancelling_pair(y, z):
    # g1^2 and g2^3 share their degree-12 top and cancel down to degree 6
    return y**6 + (y**2 * z).scale(Fraction(3, 2)), y**4 + z


@pytest.mark.parametrize("case", ["nagata-lex", "widened-absence"])
def test_elementary_reasons_in_component_order(case, nagata, xyz):
    # each absence is the leading search's own, listed 1, 2, 3 whichever
    # pass decided it
    if case == "nagata-lex":
        ws, F, limits = lex_weight(3), nagata.components, DEFAULT_LIMITS
    else:
        # component 1 needs the window pairs (2, 0) and (0, 3), and a term
        # cap of 7 drops (0, 3) (at most 2^3 terms); components 2 and 3 are
        # decided on their exact slices
        x, y, z = xyz
        g1, g2 = _cancelling_pair(y, z)
        ws, F = total_weight(3), (x + g1**2 - g2**3, g1, g2)
        limits = SearchLimits(max_product_terms=7)
    out = find_elementary_reduction(ws, F, limits)
    assert out.step is None
    assert list(out.reasons) == [1, 2, 3]
    if case == "widened-absence":
        for i, (j, k) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
            alone = leading_membership_search(ws, F[i - 1], (F[j - 1], F[k - 1]), limits)
            assert out.reasons[i].to_json() == alone.absence.to_json()
        assert out.reasons[1].to_json() == {"absent": {
            "reason": "limits-exhausted", "rigorous": False,
            "detail": {"cancellation_window": [[0, 2], [1, 1], [2, 0], [0, 3]],
                       "max_product_terms": 7, "dropped": [[0, 3]]}}}


def test_widening_builds_only_the_window(xyz, monkeypatch):
    # at total weight deg g1 = 6, deg g2 = 4 (p, q = 3, 2) and
    # deg(dg1 ^ dg2) = 4, so for a degree-6 target the floor is 6, Imax = 2,
    # Jmax = 3 and m <= 1: the window is the pairs of degree 7..12
    x, y, z = xyz
    g1, g2 = _cancelling_pair(y, z)
    ws, target = total_weight(3), x + g1**2 - g2**3
    d = ws.deg(target)
    window = cancellation_window(d, ws.deg(g1), ws.deg(g2), wedge_degree(ws, g1, g2), 3, 2)
    assert window == [(0, 2), (1, 1), (2, 0), (0, 3)]
    assert leading_membership_search(ws, target, (g1, g2)).rounds_used == 1
    built = []
    truncated = search._ProductCache._truncated

    def counted(cache, i, j, top):
        built.append((i, j))
        return truncated(cache, i, j, top)

    monkeypatch.setattr(search._ProductCache, "_truncated", counted)
    phi, residual = search.peel(ws, target, (g1, g2), DEFAULT_LIMITS,
                                lambda res, _: ws.deg(res) < d, 2)
    assert phi is not None and residual == x
    # the exact pair (1, 0) on the target's slice is a leading-form
    # product: the truncated products built are the window's, each once
    assert built == window


def test_peel_accumulates_the_fraction_sum_of_its_rounds(wt, xyz, monkeypatch):
    # two scripted rounds whose (1, 0) coefficients cancel: the peeled sum
    # the accept sees after each round, and the representation returned,
    # are the Fraction sums of the rounds so far
    x1, x2, _ = xyz
    gens = (x1, x2)
    residuals = [x1**3, x1**2, x1]
    rounds = [{(1, 0): 1, (0, 1): 2}, {(1, 0): -1, (2, 0): Fraction(1, 3)}]
    script = iter(zip(rounds, residuals[1:]))

    def scripted(ws, target, gens_, limits, cache):
        coeffs, residual = next(script)
        return search.MembershipOutcome(BiPoly(gens_, Poly(2, coeffs)), residual=residual)

    monkeypatch.setattr(search, "leading_membership_search", scripted)
    seen = []

    def accept(res, peeled):
        seen.append(dict(peeled.terms))
        return res == residuals[-1]

    phi, residual = search.peel(wt, residuals[0], gens, DEFAULT_LIMITS, accept, 5)
    sums = [{}, {(1, 0): 1, (0, 1): 2}, {(0, 1): 2, (2, 0): Fraction(1, 3)}]
    assert seen == sums
    assert residual == x1 and phi.gens == gens and dict(phi.coeffs) == sums[-1]


def test_fully_solved_window_names_it(xyz):
    # x^6 sits at the floor, so the window is searched, but no combination
    # of products over y and z reaches an x
    x, y, z = xyz
    g1, g2 = _cancelling_pair(y, z)
    out = leading_membership_search(total_weight(3), x**6, (g1, g2))
    assert out.found is None
    assert out.absence.to_json() == {"absent": {
        "reason": "limits-exhausted", "rigorous": False,
        "detail": {"cancellation_window": [[0, 2], [1, 1], [2, 0], [0, 3]]}}}


def test_unbounded_window_solves_the_level_box_once(xyz, monkeypatch):
    # at lex weight no degree here has an x component, so floor.first = 0
    # and the inequality bounds nothing: one solve over the level box finds
    # g1^2 - g2^3, after the exact slice's own solve
    x, y, z = xyz
    g1, g2 = _cancelling_pair(y, z)
    ws, target = lex_weight(3), z**5 + g1**2 - g2**3
    d1, d2 = ws.deg(g1), ws.deg(g2)
    assert cancellation_window(ws.deg(target), d1, d2, wedge_degree(ws, g1, g2), 3, 2) is None
    calls = []
    widen, elimination = search._widen, search.Elimination

    def widening(*args):
        calls.append("widen")
        return widen(*args)

    def built(target):
        calls.append("elimination")
        return elimination(target)

    monkeypatch.setattr(search, "_widen", widening)
    monkeypatch.setattr(search, "Elimination", built)
    out = leading_membership_search(ws, target, (g1, g2))
    assert out.found is not None and out.found.coeffs == {(2, 0): 1, (0, 3): -1}
    assert out.rounds_used == 1 and calls == ["elimination", "widen", "elimination"]
    assert ws.deg(out.residual) < ws.deg(target)


def test_level_box_by_hand(xyz):
    # at lex, deg g1 = (0, 6, 0), deg g2 = (0, 4, 0) and the target above has
    # degree (0, 4, 2): a pair is in the box when 6i + 4j > 4, i.e. every
    # pair but (0, 0) and (0, 1), and the first-component cap is 0 + 4*0
    x, y, z = xyz
    ws = lex_weight(3)
    g1, g2 = _cancelling_pair(y, z)
    d, d1, d2 = ws.deg(z**5 + g1**2 - g2**3), ws.deg(g1), ws.deg(g2)
    assert (d, d1, d2) == (D(0, 4, 2), D(0, 6, 0), D(0, 4, 0))
    levels = [[(1, 0)], [(0, 2), (1, 1), (2, 0)], [(0, 3), (1, 2), (2, 1), (3, 0)]]
    # the levels cap: three nonempty levels, listed by level, then by i
    assert level_box(d, d1, d2, 14, 3) == (sum(levels, []), 3)
    assert level_box(d, d1, d2, 14, 1) == ([(1, 0)], 1)
    # the top cap: with i, j <= 1 only (1, 0) and (1, 1) are left, on two
    # levels, though eight may be filled
    assert level_box(d, d1, d2, 1, 8) == ([(1, 0), (1, 1)], 2)
    # the first-component cap: the same pair over x, deg g1 = (6, 0, 0) and
    # deg g2 = (4, 0, 0), for a target of degree (4, 0, 2).  A pair is in
    # when 4 < 6i + 4j <= 4 + 4*6, so level L keeps 4L + 2i <= 28: level 7
    # keeps only (0, 7), and levels 8 to 28 are empty, so 7 of 8 are filled
    g1, g2 = _cancelling_pair(x, z)
    d, d1, d2 = ws.deg(z**5 + g1**2 - g2**3), ws.deg(g1), ws.deg(g2)
    assert (d, d1, d2) == (D(4, 0, 2), D(6, 0, 0), D(4, 0, 0))
    pairs, filled = level_box(d, d1, d2, 14, 8)
    assert filled == 7
    assert pairs == [(i, level - i) for level in range(1, 8) for i in range(level + 1)
                     if 4 < 4 * level + 2 * i <= 28]
    assert pairs[-1] == (0, 7) and (5, 0) not in pairs
    # a box with nothing above d fills no level: 6i + 4j <= 50 for i, j <= 5
    assert level_box(D(50, 0, 1), d1, d2, 5, 8) == ([], 0)


def _terms_from(ws, p, d):
    """(den, [(mono, int)]) of the terms of p at weighted degree >= d."""
    return p.den, [(m, c) for (m, c), v in zip(p.nums.items(), ws.term_vecs(p.nums))
                   if v >= d.vec]


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3).filter(bool), st.integers(0, 1), st.integers(0, 1),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(-4, 4)),
                max_size=3),
       st.integers(1, 6), st.integers(1, 6))
def test_box_solve_matches_level_prefixes(c, a, b, low, top, levels):
    # targets whose window is None (at lex the floor has first component 0):
    # the one widened solve answers what solve_contents answers on the
    # first level prefix of the box that solves, with the exact pairs'
    # columns first, and an absence when no prefix does (an odd y exponent
    # is out of reach: every term of g1 and g2 has an even one)
    _, y, z = (Poly.variable(i, 3) for i in range(3))
    g1, g2 = _cancelling_pair(y, z)
    ws = lex_weight(3)
    target = (g1**2 - g2**3).scale(c) * g1**a * g2**b
    for u, v, k in low:
        target = target + (y**u * z**v).scale(k)
    assume(not target.is_zero)
    d, d1, d2 = ws.deg(target), ws.deg(g1), ws.deg(g2)
    wedge = wedge_degree(ws, g1, g2)
    # the floor 2*d1 + wedge - d1 - d2 is (0, 4, 2), as dg1 ^ dg2 = 3yz dy^dz
    assert wedge == D(0, 2, 2)
    assume(d >= D(0, 4, 2))
    assert cancellation_window(d, d1, d2, wedge, 3, 2) is None
    lead = _terms_from(ws, target, d)
    exact_pairs = all_semigroup_pairs(d, d1, d2)
    exact = [_terms_from(ws, g1**i * g2**j, d) for i, j in exact_pairs]
    assume(solve_contents(lead, exact) is None)
    limits = SearchLimits(max_bidegree=top, max_cancellation_rounds=levels)
    out = leading_membership_search(ws, target, (g1, g2), limits)
    pairs, filled = level_box(d, d1, d2, top, levels)
    by_level = {}
    for i, j in pairs:
        by_level.setdefault(i + j, []).append((i, j))
    prefix = []
    for level in sorted(by_level):
        prefix += by_level[level]
        columns = exact + [_terms_from(ws, g1**i * g2**j, d) for i, j in prefix]
        sol = solve_contents(lead, columns)
        if sol is not None:
            expected = {pair: x for pair, x in zip(exact_pairs + prefix, sol) if x}
            assert out.rounds_used == 1 and out.found.coeffs == expected
            assert ws.deg(out.residual) < d
            return
    assert out.found is None
    assert out.absence.to_json() == {"absent": {
        "reason": "limits-exhausted", "rigorous": False,
        "detail": {"max_bidegree": top, "rounds": filled}}}


def test_box_absence_json_is_pinned(xyz):
    # every term of g1 and g2 has an even y exponent, so y^5 z^2 is out of
    # reach of the whole box; the absence prints the bytes the level rounds
    # printed for it
    x, y, z = xyz
    g1, g2 = _cancelling_pair(y, z)
    out = leading_membership_search(lex_weight(3), y**5 * z**2 + z**3, (g1, g2))
    assert json.dumps(out.absence.to_json()) == (
        '{"absent": {"reason": "limits-exhausted", "rigorous": false, '
        '"detail": {"max_bidegree": 14, "rounds": 8}}}')


def test_widened_corpus_map_is_pinned(tmp_path, monkeypatch, capsys):
    # corpus seed 19 at lex weight is the round trip's one widening map: its
    # window is exactly the pairs (2, 2) and (7, 0), which cancel in the one
    # solve, and `factor --json` prints the bytes hashed here
    endo, _ = random_tame(19, 5)
    path = tmp_path / "F.txt"
    path.write_text("".join(poly_to_text(f) + "\n" for f in endo.components))
    widened = []
    widen = search._widen

    def counted(*args):
        out = widen(*args)
        widened.append(out)
        return out

    monkeypatch.setattr(search, "_widen", counted)
    code = cli.main(["factor", str(path), "--weight", "1,0,0;0,1,0;0,0,1", "--json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b1b3695067934949e839ba7d6f3c152b1222dbda8f029cb0685079d41c6be7f1"
    assert [(out.rounds_used, set(out.found.coeffs)) for out in widened] == [
        (1, {(2, 2), (7, 0)})]


def test_cancellation_window_of_the_corpus_map():
    # seed 19's widening: d = (13, 1, 0), deg f = (2, 0, 0), deg g = (5, 0, 0),
    # deg(df ^ dg) = (6, 1, 0) and 5*deg f = 2*deg g.  The floor is (9, 1, 0),
    # so Imax = 65 // 9 = 7, Jmax = 26 // 9 = 2, m <= 1 and K = (1, -1, 0):
    # the window's pairs lie in ((13, 1, 0), (14, 0, 0)]
    window = cancellation_window(D(13, 1, 0), D(2, 0, 0), D(5, 0, 0), D(6, 1, 0), 2, 5)
    assert window == [(2, 2), (7, 0)]
    # dependent f, g, or a floor with first component 0, bounds nothing
    assert cancellation_window(D(13, 1, 0), D(2, 0, 0), D(5, 0, 0), DegreeValue.bottom(),
                               2, 5) is None
    assert cancellation_window(D(0, 4, 2), D(0, 6, 0), D(0, 4, 0), D(0, 2, 2), 3, 2) is None


_UNITS = ("x1", "x1 + x2", "x1*x2", "x2 - 2*x3")


@st.composite
def _power_proportional_case(draw):
    """(p, q, f, g, phi): f = u^p + lower and g = u^q + lower at total
    weight, so (g^w)^p = (f^w)^q, and phi(x, y) with a factor (x^q - y^p)^k,
    which cancels the tops of its products at f, g."""
    p, q = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]))
    u = parse_poly(draw(st.sampled_from(_UNITS)), 3)

    def lower(below):
        # x3 keeps f and g independent for most units u
        terms = {(0, 0, 1): 1} if below > 1 else {}
        for _ in range(draw(st.integers(1, 3))):
            mono = tuple(draw(st.integers(0, 2)) for _ in range(3))
            if sum(mono) < below:
                terms[mono] = draw(st.integers(-3, 3))
        return Poly(3, terms)

    du = u.total_degree()
    f, g = u**p + lower(p * du), u**q + lower(q * du)

    def small():
        terms = {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(st.integers(-3, 3))
                 for _ in range(draw(st.integers(1, 2)))}
        return Poly(2, terms)

    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    phi = small() * (x**q - y**p)**draw(st.integers(0, 2)) + small()
    return p, q, f, g, phi


@settings(max_examples=40, deadline=None)
@given(_power_proportional_case())
def test_cancellation_window_holds_every_cancelling_pair(case):
    # Kuroda's inequality on Phi = sum_j (sum_i c_ij f^i) y^j at g, as the
    # oracle evaluates it, against the window built from the same degrees
    p, q, f, g, phi2 = case
    ws = total_weight(3)
    wedge = wedge_degree(ws, f, g)
    assume(not phi2.is_zero and not wedge.is_bottom)
    phi = BiPoly((f, g), phi2)
    d, d1, d2 = ws.deg(phi.value()), ws.deg(f), ws.deg(g)
    assert q * d1 == p * d2
    columns = {}
    for (i, j), c in phi.coeffs.items():
        columns[j] = columns.get(j, Poly.zero(3)) + (f**i).scale(c)
    report = su_inequality_report(ws, (f,), AuxPoly(3, columns), g)
    assert report.holds is True
    assert report.lhs == d and report.aux_deg == degS(ws, phi)
    # the two bounds on the multiplicity that the window rests on
    big_i = max(i for i, _ in phi.coeffs)
    big_j = max(j for _, j in phi.coeffs)
    assert report.multiplicity <= min(big_j // p, big_i // q)
    window = cancellation_window(d, d1, d2, wedge, p, q)
    if window is None:
        assert (q * d1 + wedge - d1 - d2).first <= 0
    else:
        assert {pair for pair in phi.coeffs if pair[0] * d1 + pair[1] * d2 > d} <= set(window)


def test_elementary_step_in_pass_one_computes_no_floor(wt, xyz, monkeypatch):
    # component 1 is left open for widening, but component 3 steps on its
    # exact slice, so no cancellation floor (a full wedge) is computed
    x1, x2, x3 = xyz
    F = (x1 - (x2 * x3).scale(2) - x3.scale(2), x2, x3 - (x2**2).scale(2))
    calls = []
    wedge_degree = search.wedge_degree

    def counted(*args):
        calls.append(args)
        return wedge_degree(*args)

    monkeypatch.setattr(search, "wedge_degree", counted)
    out = find_elementary_reduction(wt, F)
    assert out.step is not None and out.step.index == 3
    assert calls == []
    # searched on its own, component 1 does check its floor, and its window
    # reads the same wedge degree
    assert leading_membership_search(wt, F[0], (F[1], F[2])).found is not None
    assert len(calls) == 1


def test_elementary_step_in_pass_one_builds_no_full_product(wt, xyz, monkeypatch):
    # pass 1 solves every exact slice on leading-form products; component 1
    # is left open and component 3 steps, so no f^i g^j beyond its leading
    # form, not even a truncated one, is ever built
    x1, x2, x3 = xyz
    F = (x1 - (x2 * x3).scale(2) - x3.scale(2), x2, x3 - (x2**2).scale(2))
    built = []
    truncated = search._ProductCache._truncated

    def counted(cache, i, j, top):
        built.append((i, j))
        return truncated(cache, i, j, top)

    monkeypatch.setattr(search._ProductCache, "_truncated", counted)
    out = find_elementary_reduction(wt, F)
    assert out.step is not None and out.step.index == 3
    assert built == []


@st.composite
def _nonconstant_polys(draw):
    terms = {tuple(draw(st.integers(0, 3)) for _ in range(3)): draw(st.integers(-4, 4))
             for _ in range(draw(st.integers(1, 4)))}
    p = Poly(3, terms)
    return p if not p.is_constant else p + Poly.variable(0, 3)


_TAIL_WEIGHTS = (total_weight(3), lex_weight(3), WeightSystem(((1, 0), (1, 1), (0, 2))))


def _below(ws, p, d):
    """The terms of p of degree below d."""
    return Poly(3, {m: c for m, c in p.terms.items() if ws.monomial_vec(m) < d.vec})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((total_weight(3), lex_weight(3))), _nonconstant_polys(),
       _nonconstant_polys(), _nonconstant_polys(), st.sampled_from((3, 5)),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.booleans(),
       st.booleans())
def test_assembled_first_component_tops_at_a_power_of_u(ws, top, f3, h, s, k, a0, c0,
                                                        aligned, cut):
    # u is any homogeneous form; f1 is k*u^s - a0*f3^2 - c0*f3 plus h, and h
    # lies wholly below s*delta when cut.  An aligned f3 tops at u^s, so
    # gamma is a free unknown of the system.
    u = ws.leading_form(top)
    delta = ws.deg(u)
    us = u**s
    if aligned:
        f3 = us + _below(ws, f3, s * delta)
    if cut:
        h = _below(ws, h, s * delta)
    f1 = us.scale(k) - (f3**2).scale(a0) - f3.scale(c0) + h
    result = search._assemble_first_component(ws, f1, f3, u, s, delta)
    if k and cut:
        # (a0, c0, k) solves the system with gamma = k != 0
        assert result is not None
    if result is None:
        return
    a, c, g1 = result
    assert g1 == f1 + (f3**2).scale(a) + f3.scale(c)
    assert ws.deg(g1) == s * delta
    gamma = proportionality(ws.leading_form(g1), us)
    assert gamma is not None and gamma != 0
    # so (g1^w)^2 is proportional to (g2^w)^s for any g2 with g2^w ~ u^2
    assert proportionality(ws.leading_form(g1)**2, (u**2)**s) is not None


@settings(max_examples=60, deadline=None)
@given(_nonconstant_polys(), _nonconstant_polys(), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(_TAIL_WEIGHTS))
def test_tail_at_own_degree_is_the_leading_form_product(f, g, i, j, ws):
    full = f**i * g**j
    d = ws.deg(full)
    cache = search._ProductCache(f, g, ws)
    den, contents = cache.tail(i, j, d)
    top = {m: c for m, c in full.terms.items() if ws.monomial_vec(m) == d.vec}
    assert Poly.from_contents(3, dict(contents), den) == Poly(3, top)
    # below its own degree (a widened pair) the tail is the full product cut
    # at the threshold: each term pair reaching it counted once, none dropped
    degrees = [DegreeValue(v) for v in sorted({ws.monomial_vec(m) for m in full.nums})]
    below_all = DegreeValue((-1,) + (0,) * (ws.r - 1))
    for threshold in [below_all] + degrees[:-1]:
        den, contents = cache.tail(i, j, threshold)
        assert len({m for m, _ in contents}) == len(contents)
        cut = {m: c for m, c in full.terms.items() if ws.monomial_vec(m) >= threshold.vec}
        assert Poly.from_contents(3, dict(contents), den) == Poly(3, cut)


@settings(max_examples=60, deadline=None)
@given(_nonconstant_polys(), _nonconstant_polys(), st.integers(0, 4), st.integers(0, 4))
def test_product_size_never_exceeds_its_bound(f, g, i, j):
    cache = search._ProductCache(f, g, total_weight(3))
    assert len((f**i * g**j).nums) <= cache.size_bound(i, j)


def test_slice_solve_errors_propagate(wt, xyz, monkeypatch):
    # only the semigroup enumeration guard is an absence; an error from the
    # slice solve or a product build is not swallowed into one
    x1, x2, x3 = xyz

    def broken(*args):
        raise ValueError("product build failed")

    monkeypatch.setattr(search._ProductCache, "tail", broken)
    with pytest.raises(ValueError, match="product build failed"):
        leading_membership_search(wt, x1 + x2**2, (x2, x3))


def test_enumeration_guard_is_an_inconclusive_absence(wt, xyz):
    x1, x2, x3 = xyz
    out = leading_membership_search(wt, x3**4001, (x1, x2))
    assert out.found is None
    assert out.absence.to_json() == {"absent": {
        "reason": "limits-exhausted", "rigorous": False,
        "detail": "degree-slice enumeration guard"}}


def test_elementary_reduction_rejects_dependent(wt, xyz):
    x1, x2, _ = xyz
    with pytest.raises(ValueError):
        find_elementary_reduction(wt, (x1, x2, x1 * x2))


def test_elementary_reduction_matches_widened_search(wt, small_corpus):
    # doubling the bounds never finds a step where the default misses one
    # on reduced-from-corpus instances
    wide = SearchLimits(max_bidegree=2 * DEFAULT_LIMITS.max_bidegree,
                        max_cancellation_rounds=2 * DEFAULT_LIMITS.max_cancellation_rounds,
                        max_product_terms=4 * DEFAULT_LIMITS.max_product_terms)
    for endo, _ in small_corpus[:8]:
        out_default = find_elementary_reduction(wt, endo.components,
                                                check_independent=False)
        out_wide = find_elementary_reduction(wt, endo.components, wide,
                                             check_independent=False)
        if out_default.step is None:
            rigorous = all(a.rigorous for a in out_default.reasons.values())
            if rigorous:
                assert out_wide.step is None


# --- structured reduction -----------------------------------------------------


def test_su_reduction_nagata_absent_rigorously(nagata, nagata_ws):
    out = find_su_reduction(nagata_ws, nagata.components)
    assert out.witness is None
    assert any(
        r.get("absent", {}).get("reason") == "degree-shape" for r in out.reasons
    )
    assert all(r.get("absent", {}).get("rigorous") for r in out.reasons if "absent" in r)


def test_su_reduction_archimedean_exit(wlex, xyz):
    # at lex, no multiple of deg x2^2 = (0, 2, 0) exceeds deg x1 = (1, 0, 0),
    # so no weak SU reduction exists and the absence is rigorous
    x1, x2, x3 = xyz
    F = (x1, x2**2, x3)
    out = find_su_reduction(wlex, F)
    assert out.witness is None and out.reduced is None
    assert out.reasons == [{"absent": {"reason": "degree-shape", "rigorous": True,
                                       "detail": {"archimedean-obstruction": [1, 2]}}}]
    step = reduce_step(wlex, F)
    assert step.kind == "stuck"
    assert step.reasons["su"] == out.reasons
    assert stuck_rigorous(step.reasons)


def test_su_reduction_roundtrip(su_pair_family):
    for ws, F, G in su_pair_family:
        out = find_su_reduction(ws, F)
        assert out.witness is not None
        sigma = out.witness.sigma
        rep = check_quasi_su(ws, permute_triple(F, sigma),
                             permute_triple(out.reduced, sigma))
        assert rep.overall
        # the reduction strictly decreases the total degree
        assert ws.deg_endo(out.reduced) < ws.deg_endo(F)


def test_su_witness_reproduces_reduced_triple(su_pair_family):
    for ws, F, G in su_pair_family:
        out = find_su_reduction(ws, F)
        w = out.witness
        f1, f2, f3 = permute_triple(F, w.sigma)
        g1 = f1 + (f3 * f3).scale(w.a) + f3.scale(w.c)
        g2 = f2 + f3.scale(w.b)
        g3 = f3 + w.phi3.value()
        assert permute_triple(out.reduced, w.sigma) == (g1, g2, g3)


def test_su_reduction_on_permuted_input(su_pair_family):
    ws, F, G = su_pair_family[2]
    for sigma in ((2, 3, 1), (3, 2, 1)):
        F_perm = permute_triple(F, sigma)
        out = find_su_reduction(ws, F_perm)
        assert out.witness is not None
        tau = out.witness.sigma
        assert check_quasi_su(ws, permute_triple(F_perm, tau),
                              permute_triple(out.reduced, tau)).overall


def test_su_lift_when_gamma_is_free(su_pair_family):
    # Input (f3, g2, g1) at weights (1,0), (1,0), (0,1): for sigma (1, 2, 3)
    # the third leading form is a multiple of u^3, so gamma is a free unknown
    # of the first-component system and is lifted to 1; the new first
    # component then holds the third leading form, and the step is found at
    # sigma (3, 2, 1) instead.  Witness recorded from the dense-solver search.
    ws = WeightSystem(((1, 0), (1, 0), (0, 1)))
    _, F, G = su_pair_family[0]
    out = find_su_reduction(ws, permute_triple(F, (3, 2, 1)))
    w = out.witness
    assert (w.sigma, w.a, w.b, w.c, w.s, w.delta) == ((3, 2, 1), 0, 0, 0, 3, D(2, 0))
    assert out.reasons == [{"sigma": [1, 2, 3], "s": 3,
                            "skip": "third leading form lies in the new graded pair"}]
    assert out.reduced == (G[2], G[1], G[0])


def test_su_no_lift_when_gamma_is_a_zero_pivot(su_pair_family):
    # At weights 1, 1, 2 every first-component system forces gamma = 0, so no
    # candidate is assembled under any permutation.
    ws = WeightSystem(((1,), (1,), (2,)))
    _, F, _ = su_pair_family[0]
    out = find_su_reduction(ws, F)
    assert out.witness is None and out.reduced is None
    assert out.reasons == [{"absent": {"reason": "limits-exhausted", "rigorous": False,
                                       "detail": [{"skip": "no permutation produced a candidate"}]}}]


def test_fast_path_soundness(wt, wlex):
    # whenever the semigroup fast path would skip, the bounded search agrees
    import random as _random

    from tame3.algebra import all_semigroup_pairs, z_independent

    rng = _random.Random(31)
    checked = 0
    while checked < 12:
        terms1 = {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): 1}
        terms2 = {(rng.randint(0, 3), 0, rng.randint(0, 1)): rng.choice([1, 2])}
        target = Poly(3, {(rng.randint(0, 3), rng.randint(0, 2), 0): 1})
        f, g = Poly(3, terms1), Poly(3, terms2)
        for ws in (wt, wlex):
            if f.is_constant or g.is_constant or target.is_zero:
                continue
            dj, dl = ws.deg(f), ws.deg(g)
            if not (dj.is_positive() and dl.is_positive()):
                continue
            if z_independent(dj, dl) and not all_semigroup_pairs(ws.deg(target), dj, dl):
                out = leading_membership_search(ws, target, (f, g))
                assert out.found is None
                assert out.absence.rigorous
                checked += 1
    assert checked >= 12
