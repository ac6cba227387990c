import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tame3 import algebra
from tame3.algebra import (
    DegreeValue,
    Elimination,
    Poly,
    ScaledPair,
    WeightSystem,
    all_semigroup_pairs,
    exists_multiple_exceeding,
    half,
    lex_weight,
    parse_poly,
    poly_to_text,
    power_sum,
    probe_points,
    proportionality,
    solve_contents,
    solve_sparse_int,
    sqrt_up_to_scalar,
    total_weight,
    z_independent,
)
from tame3.univariate import AuxPoly

try:
    import sympy
except ImportError:  # test-only dependency
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

D = DegreeValue.of


# --- degree values -------------------------------------------------------


def test_bottom_below_everything():
    bot = DegreeValue.bottom()
    assert bot < D(0, 0, 0)
    assert bot < D(-5, 0, 0)
    assert not bot < bot
    assert bot + D(1, 2, 3) == bot


def test_lex_order():
    assert D(1, 0, 2) < D(2, 0, 3)
    assert D(0, 0, 1) < D(0, 1, 0)
    assert D(2, 0, 3) + D(1, 0, 2) == D(3, 0, 5)
    assert 3 * D(0, 0, 1) == D(0, 0, 3)


def _order_key(d):
    # Bottom first, then vectors in lex (tuple) order
    return (0,) if d.is_bottom else (1, d.vec)


_ORDER_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_degree_values = st.one_of(
    st.just(DegreeValue.bottom()),
    st.tuples(*[st.integers(-3, 3)] * 3).map(DegreeValue),
)


@settings(max_examples=200, deadline=None)
@given(_degree_values, _degree_values)
def test_degree_order_matches_tuple_order(a, b):
    ka, kb = _order_key(a), _order_key(b)
    assert (a < b, a <= b, a > b, a >= b, a == b) == (ka < kb, ka <= kb, ka > kb, ka >= kb,
                                                      ka == kb)


@pytest.mark.parametrize("op", sorted(_ORDER_OPS))
def test_degree_order_with_bottom_on_either_side(op):
    bot, cmp = DegreeValue.bottom(), _ORDER_OPS[op]
    for d in (D(-5, 0, 0), D(0, 0, 0), D(1), D(2, 0, 3)):
        assert cmp(bot, d) == (op in ("<", "<="))
        assert cmp(d, bot) == (op in (">", ">="))
    assert cmp(bot, bot) == (op in ("<=", ">="))


@pytest.mark.parametrize("op", sorted(_ORDER_OPS))
def test_degree_order_rejects_rank_mismatch(op):
    with pytest.raises(ValueError):
        _ORDER_OPS[op](D(1, 0), D(1, 0, 0))
    with pytest.raises(ValueError):
        _ORDER_OPS[op](D(0, 0, 5), D(7))


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(((0, 0), (1, 0)))
    ws = WeightSystem(((1, -1), (0, 1)))  # lex-positive despite negative entry
    assert ws.total == D(1, 0)


def test_rank():
    assert lex_weight(3).rank() == 3
    assert total_weight(3).rank() == 1
    assert WeightSystem(((1, 0), (2, 0), (0, 1))).rank() == 2


def _lex_positive(vec):
    return next((c > 0 for c in vec if c), False)


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.tuples(*[st.integers(-3, 3)] * r).filter(_lex_positive), min_size=1, max_size=5)))
def test_rank_agrees_with_sympy(weights):
    assert WeightSystem(tuple(weights)).rank() == sympy.Matrix(weights).rank()


# --- polynomial arithmetic ----------------------------------------------


def test_mul_and_identity(xyz):
    x1, x2, x3 = xyz
    assert x1 * x2 == Poly(3, {(1, 1, 0): 1})
    f = x1 + x2**2
    assert (f + (-f)).is_zero
    assert f * Poly.constant(1, 3) == f


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("c", [0, 1, -7, 12, Fraction(-6, 4), Fraction(5, 3), Fraction(0)])
def test_constant_matches_general_constructor(c, n):
    p, q = Poly.constant(c, n), Poly(n, {(0,) * n: c})
    assert (p.n, p.nums, p.den) == (q.n, q.nums, q.den)
    assert hash(p) == hash(q)
    assert p.constant_term() == c
    if not c:
        assert (p.nums, p.den) == ({}, 1)
    assert Poly.zero(n) == Poly(n) and Poly.zero(n).den == 1


@pytest.mark.parametrize("mono", [(-1, 0, 0), (1.5, 0, 0), (0, 0, 2.0), (0, "1", 0)])
def test_constructor_rejects_bad_exponents(mono):
    # a negative exponent would print as 1 and have total degree -1; a float
    # one used to be truncated by int()
    with pytest.raises(ValueError):
        Poly(3, {mono: 1})


def test_constructor_reads_a_bool_exponent_as_an_int(xyz):
    # bool is an int subclass, so operator.index accepts it; the stored key
    # is a plain int tuple, as every other construction gives
    p = Poly(3, {(True, 0, False): 2})
    assert p == xyz[0].scale(2)
    assert [type(e) for m in p.nums for e in m] == [int, int, int]


@pytest.mark.parametrize("c", [0.5, 0.0, "1", None])
def test_constant_rejects_non_rationals(c):
    with pytest.raises(TypeError):
        Poly.constant(c, 3)


def test_pow_matches_repeated_mul(xyz):
    x1, x2, _ = xyz
    f = x1 + x2.scale(2)
    acc = Poly.constant(1, 3)
    for k in range(5):
        assert f**k == acc
        acc = acc * f


def _count_muls(monkeypatch) -> list:
    """A list that grows by one on every Poly multiplication from now on."""
    calls = []
    mul = Poly.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    return calls


def test_pow_builds_each_power_once(xyz, monkeypatch):
    x1, x2, x3 = xyz
    f = x1 + x2.scale(2) - x3
    expected = [Poly.constant(1, 3)]
    for _ in range(6):
        expected.append(expected[-1] * f)
    calls = _count_muls(monkeypatch)
    counts = []
    for k in (6, 6, 4):
        before = len(calls)
        assert f**k == expected[k]
        counts.append(len(calls) - before)
    # f^2..f^6 once each, then every later power is remembered
    assert counts == [5, 0, 0]


def test_pow_of_one_term_is_built_directly(monkeypatch):
    t = Poly(3, {(1, 2, 0): Fraction(-3, 4)})
    expected = [Poly.constant(1, 3)]
    for _ in range(7):
        expected.append(expected[-1] * t)
    calls = _count_muls(monkeypatch)
    assert [t**k for k in range(8)] == expected
    # no multiplication, and only the exponents asked for are remembered
    assert calls == [] and sorted(t._powers) == list(range(2, 8))
    assert t**5 is t**5
    big = t**1000
    assert big.nums == {(1000, 2000, 0): 3**1000} and big.den == 4**1000
    assert len(t._powers) == 7


def test_compose_reuses_the_powers_of_its_substitutions(xyz, monkeypatch):
    x1, x2, x3 = xyz
    q = x1**5 - x2.scale(3) + x3**2  # no monomial mixes two variables
    subs = [x1 + x2, x2 - x3.scale(2), x3 + Poly.constant(1, 3)]
    calls = _count_muls(monkeypatch)
    first = q.compose(subs)
    built = len(calls)
    assert q.compose(subs) == first
    assert built == 5 and len(calls) == built


@pytest.mark.parametrize("coeffs", [
    {},
    {0: Fraction(5)},
    {0: Fraction(-3), 1: Fraction(2)},
    {3: Fraction(1, 2), 1: Fraction(-1), 2: Fraction(0)},
])
def test_power_sum_matches_aux_evaluation(xyz, coeffs):
    x1, x2, x3 = xyz
    p = x1 * x3 + x2.scale(2) - Poly.constant(1, 3)
    expected = AuxPoly(3, {m: Poly.constant(c, 3) for m, c in coeffs.items()}).evaluate(p)
    assert power_sum(p, coeffs) == expected


_RATIONALS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def _rational_polys(draw, n):
    terms = {tuple(draw(st.integers(0, 2)) for _ in range(n)): draw(_RATIONALS)
             for _ in range(draw(st.integers(0, 3)))}
    return Poly(n, terms)


@settings(max_examples=80, deadline=None)
@given(_rational_polys(2), _rational_polys(3), _rational_polys(3), _rational_polys(3),
       st.sampled_from(["random", "cancelling", "partly-cancelling"]))
def test_compose_onto_adds_in_one_pass(p, s1, s2, q, kind):
    subs = [s1 + Poly.variable(0, 3), s2 + Poly.variable(1, 3)]
    value = p.compose(subs)
    if kind == "cancelling":
        q = -value
    elif kind == "partly-cancelling":
        q = q - value
    out = p.compose(subs, onto=q)
    assert out == q + value
    assert (out.nums, out.den) == ((q + value).nums, (q + value).den)
    if kind == "cancelling":
        assert out.is_zero and out.den == 1


@pytest.mark.parametrize("p_den, q_den", [(1, 1), (6, 1), (1, 10), (4, 6), (3, 3)])
def test_compose_onto_lifts_either_denominator(xyz, p_den, q_den):
    x1, x2, x3 = xyz
    p = Poly(2, {(2, 0): Fraction(1, p_den), (0, 1): Fraction(-5, p_den)})
    q = (x1 * x3 + x2**2).scale(Fraction(7, q_den))
    subs = [x1 + x3.scale(Fraction(1, 2)), x2 - x1]
    assert p.compose(subs, onto=q) == q + p.compose(subs)
    assert p.compose(subs, onto=-p.compose(subs)).is_zero
    assert Poly.zero(2).compose(subs, onto=q) == q


def test_compose_binomial(xyz):
    x1, x2, x3 = xyz
    f = x1**2
    assert f.compose([x1 + x2, x2, x3]) == x1**2 + (x1 * x2).scale(2) + x2**2


def test_compose_identity(nagata, xyz):
    for f in nagata.components:
        assert f.compose(list(xyz)) == f


def test_compose_associative_spot():
    import random

    rng = random.Random(7)

    def rand_triple():
        out = []
        for _ in range(3):
            terms = {}
            for _ in range(2):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                terms[mono] = rng.randint(-3, 3)
            out.append(Poly(3, terms) + Poly.variable(rng.randint(0, 2), 3))
        return out

    for _ in range(5):
        A, B, C = rand_triple(), rand_triple(), rand_triple()
        left = [c.compose(B) for c in C]
        left = [p.compose(A) for p in left]
        inner = [b.compose(A) for b in B]
        right = [c.compose(inner) for c in C]
        assert left == right


# --- weighted degrees ----------------------------------------------------


def test_nagata_degree_table(nagata, nagata_ws):
    degs = [nagata_ws.deg(f) for f in nagata.components]
    assert degs == [D(2, 0, 3), D(1, 0, 2), D(0, 0, 1)]
    assert nagata_ws.deg_endo(nagata.components) == D(3, 0, 6)
    assert nagata_ws.total == D(1, 1, 1)


def test_deg_zero_is_bottom(wt):
    assert wt.deg(Poly.zero(3)).is_bottom


def test_total_degree_of_first_component(nagata, wt):
    assert wt.deg(nagata.components[0]) == D(5)


def test_leading_form_examples(xyz, nagata, nagata_ws):
    x1, x2, _ = xyz
    f = x1 + x2**2
    assert nagata_ws.leading_form(f) == x1
    mono = Poly(3, {(2, 1, 0): 3})
    assert nagata_ws.leading_form(mono) == mono
    assert nagata_ws.leading_form(nagata.components[1]) == Poly(3, {(1, 0, 2): 1})
    with pytest.raises(ValueError):
        nagata_ws.leading_form(Poly.zero(3))


@st.composite
def small_polys(draw, nonzero=False):
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(3))
        terms[mono] = draw(st.integers(-4, 4))
    p = Poly(3, terms)
    if nonzero and p.is_zero:
        p = p + Poly.constant(1, 3)
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(nonzero=True), small_polys(nonzero=True))
def test_deg_multiplicative(f, g):
    for ws in (total_weight(3), lex_weight(3)):
        assert ws.deg(f * g) == ws.deg(f) + ws.deg(g)
        assert ws.leading_form(f * g) == ws.leading_form(f) * ws.leading_form(g)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_deg_subadditive(f, g):
    ws = lex_weight(3)
    s = f + g
    if s.is_zero or f.is_zero or g.is_zero:
        return
    assert ws.deg(s) <= max(ws.deg(f), ws.deg(g))
    if ws.deg(f) != ws.deg(g):
        assert ws.deg(s) == max(ws.deg(f), ws.deg(g))


@settings(max_examples=40, deadline=None)
@given(small_polys(nonzero=True))
def test_leading_form_idempotent(f):
    ws = total_weight(3)
    lf = ws.leading_form(f)
    assert ws.leading_form(lf) == lf


def test_named_weight_systems_are_shared():
    assert total_weight(3) is total_weight(3) and lex_weight(3) is lex_weight(3)


@settings(max_examples=80, deadline=None)
@given(small_polys(nonzero=True))
def test_total_weight_is_total_degree(f):
    # the reference reads exponent sums, not the system's degree vectors
    ws, top = total_weight(3), f.total_degree()
    assert ws.deg(f) == DegreeValue.of(top)
    assert ws.leading_form(f) == Poly(3, {m: c for m, c in f.terms.items() if sum(m) == top})


def _reference_deg(ws, f):
    return max((DegreeValue(ws.monomial_vec(m)) for m in f.nums), default=DegreeValue.bottom())


def test_deg_memo_across_weight_systems():
    f = parse_poly("x1^3*x3 - 2/3*x2^4 + x1*x2*x3^2 + 5", 3)
    # the last system equals the first without being it: the named ones are shared
    systems = [total_weight(3), lex_weight(3), WeightSystem(((1, 0), (0, 1), (1, -2))),
               WeightSystem(((1,), (1,), (1,)))]
    refs = [_reference_deg(ws, f) for ws in systems]
    assert len(set(refs)) == 3 and refs[0] == refs[3]
    copy = Poly(3, f.terms)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 1, 3, 2, 2, 0]):
        for k in order:
            assert systems[k].deg(f) == refs[k]
    # the remembered degree is not part of equality or hashing
    assert f == copy and hash(f) == hash(copy)
    assert systems[2].deg(copy) == refs[2]


def test_leading_form_memo_across_weight_systems():
    f = parse_poly("x1^3*x3 - 2/3*x2^4 + x1*x2*x3^2 + 5 + x1^2*x2^2*x3^2", 3)
    # the last system equals the first without being it: the named ones are shared
    systems = [total_weight(3), lex_weight(3), WeightSystem(((1, 0), (0, 1), (1, -2))),
               WeightSystem(((1,), (1,), (1,)))]
    refs = []
    for ws in systems:
        top = max(ws.monomial_vec(m) for m in f.nums)
        refs.append(Poly(3, {m: c for m, c in f.terms.items() if ws.monomial_vec(m) == top}))
    assert len(set(refs)) == 3 and refs[0] == refs[3]
    copy = Poly(3, f.terms)
    for order in ([0, 1, 2, 3], [3, 0, 0, 2, 1, 1, 3], [1, 0, 3, 2, 2, 0]):
        last = None
        for k in order:
            lf = systems[k].leading_form(f)
            assert lf == refs[k] and lf is not f
            if last is not None and systems[last[0]].weights == systems[k].weights:
                assert lf is last[1]
            last = (k, lf)
    # a repeat keeps the powers built of the form, and a form's own form is itself
    ws = systems[0]
    cube = ws.leading_form(f) ** 3
    assert systems[3].leading_form(f) ** 3 is cube
    lf = ws.leading_form(f)
    assert ws.leading_form(lf) is lf and lf._lead == (ws.weights, None)
    # the remembered form is not part of equality or hashing
    assert f == copy and hash(f) == hash(copy) and copy._lead is None
    assert systems[2].leading_form(copy) == refs[2]


def test_probe_values_are_remembered(monkeypatch):
    f = parse_poly("x1^3*x3 - 2/3*x2^4 + x1*x2*x3^2 + 5", 3)
    ks = range(len(probe_points(3)))
    first = [f.at_probe(k) for k in ks]
    # equal but distinct polynomials read equal values
    for other in (Poly(3, f.terms), -(-f)):
        assert other == f and other is not f
        assert [other.at_probe(k) for k in ks] == first
    # a second read evaluates nothing: it does not even look up the point
    monkeypatch.setattr(algebra, "probe_points", None)
    assert all(f.at_probe(k) is first[k] for k in ks)
    # the remembered values are not part of equality or hashing
    fresh = parse_poly("x1^3*x3 - 2/3*x2^4 + x1*x2*x3^2 + 5", 3)
    assert fresh._probes is None and fresh == f and hash(fresh) == hash(f)


def test_leading_form_of_a_homogeneous_polynomial_is_itself():
    h = parse_poly("x1^2*x3 - 4*x2^3", 3)
    ws = total_weight(3)
    assert ws.leading_form(h) is h and h._lead == (ws.weights, None)
    assert lex_weight(3).leading_form(h) == parse_poly("x1^2*x3", 3)
    with pytest.raises(ValueError):
        ws.leading_form(Poly.zero(3))


@st.composite
def lex_positive_weights(draw):
    r = draw(st.integers(1, 3))
    vectors = []
    for _ in range(3):
        zeros = draw(st.integers(0, r - 1))
        rest = [draw(st.integers(-3, 3)) for _ in range(r - zeros - 1)]
        vectors.append((0,) * zeros + (draw(st.integers(1, 3)),) + tuple(rest))
    return WeightSystem(tuple(vectors))


@settings(max_examples=80, deadline=None)
@given(small_polys(), lex_positive_weights(), lex_positive_weights())
def test_deg_memo_matches_reference(f, ws, other):
    for _ in range(2):
        for w in (ws, other, WeightSystem(ws.weights)):
            assert w.deg(f) == _reference_deg(w, f)
    if not f.is_zero:
        lf = ws.leading_form(f)
        assert ws.deg(lf) == ws.deg(f) and other.deg(lf) == _reference_deg(other, lf)
        assert WeightSystem(ws.weights).leading_form(f) is lf


def test_deg_zero_is_bottom_under_every_weight():
    zero = Poly.zero(3)
    for ws in (total_weight(3), lex_weight(3), WeightSystem(((1, 0), (0, 1), (1, -2))),
               total_weight(3)):
        assert ws.deg(zero).is_bottom
        assert ws.deg(zero).is_bottom


def test_deg_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        total_weight(2).deg(Poly.variable(0, 3))
    with pytest.raises(ValueError):
        lex_weight(4).deg(Poly.zero(3))
    f = Poly.variable(1, 3)
    assert total_weight(3).deg(f) == D(1)  # a remembered degree does not hide the check
    with pytest.raises(ValueError):
        WeightSystem(((1,), (1,))).deg(f)


# --- lattice helpers ------------------------------------------------------


def test_z_independent_examples():
    assert z_independent(D(2, 0, 3), D(1, 0, 2))
    assert not z_independent(D(2, 4), D(1, 2))
    assert z_independent(D(0, 0, 1), D(2, 0, 3))


def test_semigroup_member_examples():
    assert all_semigroup_pairs(D(2, 0, 3), D(1, 0, 2), D(0, 0, 1)) == []
    d1 = D(2, 0, 3)
    assert all_semigroup_pairs(d1, d1, D(0, 0, 1)) == [(1, 0)]
    assert all_semigroup_pairs(D(5, 0, 8), D(2, 0, 3), D(1, 0, 2)) == [(2, 1)]


def test_semigroup_member_parallel_case():
    assert all_semigroup_pairs(D(7), D(2), D(3)) == [(2, 1)]
    assert all_semigroup_pairs(D(1), D(2), D(3)) == []
    # ascending p
    assert all_semigroup_pairs(D(12), D(2), D(3)) == [(0, 4), (3, 2), (6, 0)]


def _brute_pairs(d, d1, d2):
    """Every (p, q) >= 0 with p*d1 + q*d2 == d, in ascending p.  Complete for
    nonzero generators with nonnegative components: each has a component
    c >= 1, so p and q are at most max(d)."""
    box = max(d.vec, default=0) + 1
    return [(p, q) for p in range(box) for q in range(box) if p * d1 + q * d2 == d]


def _brute_dependent(d1, d2):
    """Some (m1, m2) != 0 with m1*d1 == m2*d2; complete for components in
    [0, 3], where parallel vectors have multipliers of at most 3."""
    return any(m1 * d1 == m2 * d2 for m1 in range(-4, 5) for m2 in range(-4, 5)
               if m1 or m2)


def _check_lattice(d, d1, d2):
    """The lattice helpers against brute force, on nonnegative components."""
    assert z_independent(d1, d2) == (not _brute_dependent(d1, d2))
    if not (d1.is_positive() and d2.is_positive()):
        return None
    pairs = all_semigroup_pairs(d, d1, d2)
    assert pairs == _brute_pairs(d, d1, d2)
    return pairs


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
       st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_semigroup_member_matches_bruteforce(p, q, rank, v1, v2):
    d1, d2 = DegreeValue(v1[:rank]), DegreeValue(v2[:rank])
    pairs = _check_lattice(p * d1 + q * d2, d1, d2)
    assert pairs is None or (p, q) in pairs


def test_half_examples():
    assert half(D(2, 0, 4)) == D(1, 0, 2)
    assert half(D(1, 0, 2)) is None
    assert half(D(0, 0, 1)) is None


def test_exists_multiple_exceeding():
    assert not exists_multiple_exceeding(D(0, 0, 1), D(2, 0, 3))
    assert exists_multiple_exceeding(D(1, 0, 0), D(2, 0, 3))
    assert exists_multiple_exceeding(D(2), D(9))


def test_scaled_pair_validation():
    with pytest.raises(ValueError):
        ScaledPair(2, 4)
    assert ScaledPair(2, 3).p == 2


# --- text grammar ---------------------------------------------------------


def test_parse_basics():
    f = parse_poly("x1 - 2*x1*x2^2 + 3/4", 3)
    assert f == Poly(3, {(1, 0, 0): 1, (1, 2, 0): -2, (0, 0, 0): Fraction(3, 4)})
    assert parse_poly("2x1", 3) == Poly(3, {(1, 0, 0): 2})
    assert parse_poly("  -x3 ", 3) == Poly(3, {(0, 0, 1): -1})


def test_parse_errors():
    from tame3.algebra import PolyParseError

    for bad in ("x4", "x1 +", "2**x1", "x1^^2", "x1^1/2", ""):
        with pytest.raises(PolyParseError):
            parse_poly(bad, 3)


def test_parse_adds_like_monomials():
    assert parse_poly("x1 + 2*x1 - 3*x1 + x2", 3) == Poly.variable(1, 3)
    zero = parse_poly("x1*x2 - 1/2 + 3x3^2 - x2*x1 + 1/2 - 3*x3^2", 3)
    assert zero == Poly.zero(3) and zero.den == 1


def test_parse_builds_one_poly(monkeypatch):
    # one Poly from all the terms, not one addition per term
    def refuse(self, other, sign):
        raise AssertionError("parse_poly added two polynomials")

    monkeypatch.setattr(Poly, "_add_scaled", refuse)
    text = " + ".join(f"{k}*x1^{k}*x3" for k in range(1, 40)) + " - 1/2"
    expected = {(k, 0, 1): k for k in range(1, 40)}
    assert parse_poly(text, 3) == Poly(3, {**expected, (0, 0, 0): Fraction(-1, 2)})


@settings(max_examples=80, deadline=None)
@given(small_polys())
def test_print_parse_roundtrip(f):
    assert parse_poly(poly_to_text(f), 3) == f


def test_printer_descending_order():
    f = Poly(3, {(0, 0, 1): 1, (2, 0, 0): 1, (1, 1, 0): -1})
    assert poly_to_text(f) == "x1^2 - x1*x2 + x3"


# --- exact solvers and square roots --------------------------------------


def _rows(matrix, rhs):
    return [({j: c for j, c in enumerate(r) if c}, b) for r, b in zip(matrix, rhs)]


def test_solve_sparse_int_by_hand():
    # x + 2y = 4: y is free and set to 0
    assert solve_sparse_int(_rows([[1, 2]], [4]), 2) == [4, 0]
    assert solve_sparse_int(_rows([[1, 2], [0, 1]], [5, 2]), 2) == [1, 2]
    assert solve_sparse_int(_rows([[2, 0], [0, 3]], [1, -2]), 2) == [Fraction(1, 2),
                                                                     Fraction(-2, 3)]
    # x + y = 1 and 2x + 2y = 3 are inconsistent; so is 0 = 1
    assert solve_sparse_int(_rows([[1, 1], [2, 2]], [1, 3]), 2) is None
    assert solve_sparse_int([({}, 1)], 1) is None
    # rank 2 of 3: the second row repeats the first, z is free
    assert solve_sparse_int(_rows([[1, 1, 0], [2, 2, 0], [0, 1, 1]], [2, 4, 1]), 3) == [1, 1, 0]
    # unknowns no row mentions are free
    assert solve_sparse_int([], 2) == [0, 0]


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
def test_sparse_solver_agrees_with_sympy_rref(m, n, rng):
    matrix = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.6:
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(r[j] * x0[j] for j in range(n)) for r in matrix]
    else:
        rhs = [rng.randint(-4, 4) for _ in range(m)]
    sol = solve_sparse_int(iter(_rows(matrix, rhs)), n)
    system = Elimination((1, {r: b for r, b in enumerate(rhs) if b}))
    for j in range(n):
        system.add((1, {r: row[j] for r, row in enumerate(matrix) if row[j]}))
    reduced, pivots = sympy.Matrix([r + [b] for r, b in zip(matrix, rhs)]).rref()
    if n in pivots:
        assert sol is None and system.solution() is None
        return
    # the pivot columns are sympy's, and the elimination stays on ints: each
    # stored pivot is primitive with a positive lead on its largest key, and
    # its combination ends at the column it was added as
    assert {max(combo) for _, combo in system._pivots.values()} == set(pivots)
    for lead, (vec, combo) in system._pivots.items():
        assert lead == max(vec) and vec[lead] > 0
        assert all(type(v) is int for v in (*vec.values(), *combo.values()))
        assert math.gcd(*vec.values(), *combo.values()) == 1
    # pivot unknowns from the reduced rows, free unknowns 0
    expected = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        q = reduced[i, n]
        expected[j] = Fraction(int(q.p), int(q.q))
    assert sol == expected
    assert all(isinstance(c, Fraction) for c in sol)


def _mix(keys, a, b, ca, cb):
    """ca * a + cb * b for contents columns (den, {key: int})."""
    (da, va), (db, vb) = a, b
    mixed = {k: ca * db * va.get(k, 0) + cb * da * vb.get(k, 0) for k in keys}
    return da * db, {k: v for k, v in mixed.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.randoms(use_true_random=False))
def test_elimination_rounds_agree_with_solve_contents(m, n, rng):
    # random sparse columns, some dependent on earlier ones, and a target
    # that may be inconsistent; a last column (the target less a mix of
    # earlier columns) makes it consistent.  Fed in random rounds, the
    # elimination answers after every round what solve_contents answers on
    # the columns so far: the same Fractions, or None.
    keys = [(k, m - k) for k in range(m)]

    def sparse():
        values = {k: rng.choice((0, 0, rng.randint(-9, 9))) for k in keys}
        return rng.randint(1, 4), {k: v for k, v in values.items() if v}

    columns = []
    for _ in range(n):
        if columns and rng.random() < 0.4:
            a, b = rng.choice(columns), rng.choice(columns)
            columns.append(_mix(keys, a, b, rng.randint(-3, 3), rng.randint(-3, 3)))
        else:
            columns.append(sparse())
    target = sparse()
    a, b = rng.choice(columns), rng.choice(columns)
    columns.append(_mix(keys, target, _mix(keys, a, b, rng.randint(-3, 3), 1), 1, -1))
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(0, n))) + [n + 1]
    system = Elimination(target)
    answers = []
    added = 0
    for end in cuts:
        for column in columns[added:end]:
            system.add(column)
        added = end
        expected = solve_contents((target[0], target[1].items()),
                                  [(den, contents.items()) for den, contents in columns[:end]])
        answers.append(expected)
        assert system.solution() == expected
        assert system.solution() == expected
        contents = system.contents()
        assert (contents is None) == (expected is None)
        if contents is not None:
            # integer contents that, scaled back, are the solution, and solve
            # the system on the columns so far
            den, nums = contents
            assert type(den) is int and den
            assert all(type(c) is int and c and 0 <= k < end for k, c in nums.items())
            x = [Fraction(nums.get(k, 0), den) for k in range(end)]
            assert x == expected
            for key in keys:
                lhs = sum(xk * Fraction(col[1].get(key, 0), col[0])
                          for xk, col in zip(x, columns))
                assert lhs == Fraction(target[1].get(key, 0), target[0])
    assert answers[-1] is not None


def test_elimination_round_makes_a_target_consistent():
    # x + y is out of reach of x + 2y and 2x + 4y, and in reach once y joins
    x, y = (1, 0), (0, 1)
    system = Elimination((1, {x: 1, y: 1}))
    system.add((1, {x: 1, y: 2}))
    system.add((3, {x: 2, y: 4}))
    assert system.solution() is None and system.rank == 1
    system.add((1, {y: 1}))
    assert system.solution() == [1, 0, -1]
    assert system.rank == 2


def test_solve_contents_rescales_and_rejects_untouched_monomials():
    x, y = (0, 1), (1, 0)
    # (3/4) x + (1/6) y over columns x/2 and (x + y)/3
    sol = solve_contents((12, [(x, 9), (y, 2)]), [(2, [(x, 1)]), (3, [(x, 1), (y, 1)])])
    assert sol == [Fraction(7, 6), Fraction(1, 2)]
    assert solve_contents((1, [((2, 2), 1)]), [(1, [(x, 1)])]) is None
    assert solve_contents((1, []), [(5, [(x, 2)])]) == [0]


def test_sqrt_up_to_scalar_examples(xyz):
    x1, x2, _ = xyz
    u = x1**2 + (x1 * x2).scale(3) + Poly.constant(1, 3)
    assert sqrt_up_to_scalar(u * u) == (1, u)
    assert sqrt_up_to_scalar(x1 * x2) is None
    assert sqrt_up_to_scalar((u * u).scale(Fraction(9, 4))) == (Fraction(9, 4), u)
    assert sqrt_up_to_scalar(Poly.zero(3)) == (0, Poly.zero(3))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((total_weight(3), lex_weight(3))), small_polys(nonzero=True),
       st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
       st.tuples(*[st.integers(0, 6)] * 3), st.integers(-4, 4).filter(bool))
def test_sqrt_up_to_scalar_of_a_scaled_square(ws, f, c, mono, k):
    # u is a leading form scaled to lex-leading coefficient 1
    u = ws.leading_form(f)
    u = u.scale(1 / u.coeff(max(u.nums)))
    square = (u * u).scale(c)
    assert sqrt_up_to_scalar(square) == (c, u)
    # one more term breaks the square, unless it happens to make another one
    broken = square + Poly(3, {mono: k})
    out = sqrt_up_to_scalar(broken)
    assert out is None or (out[1] * out[1]).scale(out[0]) == broken


def test_proportionality(xyz):
    x1, x2, _ = xyz
    assert proportionality(x1.scale(2), x1) == 2
    assert proportionality(x1, x2) is None
    f = x1 + x2
    assert proportionality(f.scale(Fraction(-3, 7)), f) == Fraction(-3, 7)


def test_nagata_product_degree(nagata, nagata_ws):
    f1, f2, _ = nagata.components
    prod = f1 * f2
    assert nagata_ws.deg(prod) == D(3, 0, 5)
    assert nagata_ws.deg(prod) == nagata_ws.deg(f1) + nagata_ws.deg(f2)


def test_semigroup_member_bruteforce_equivalence():
    import random as _random

    rng = _random.Random(99)
    seen = set()
    for _ in range(450):
        rank = rng.randint(1, 3)

        def vec(top):
            return DegreeValue(tuple(rng.randint(0, top) for _ in range(rank)))

        if rng.random() < 0.4:
            # parallel generators: multiples of one direction
            e = vec(1)
            d1, d2 = rng.randint(0, 3) * e, rng.randint(0, 3) * e
        else:
            d1, d2 = vec(3), vec(3)
        d = vec(0) if rng.random() < 0.1 else vec(8)
        pairs = _check_lattice(d, d1, d2)
        seen.add((rank, z_independent(d1, d2), pairs is None, bool(pairs)))
        seen.add(("zero", not any(d1.vec) or not any(d2.vec) or not any(d.vec)))
    # every rank with parallel and independent positive generators, members
    # and non-members, and zero vectors
    assert {(r, ind, False, found) for r in (2, 3) for ind in (True, False)
            for found in (True, False)} <= seen
    assert {(1, False, False, True), (1, False, False, False), ("zero", True)} <= seen


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([-3, -1, 0, 2, 5]), st.data())
def test_add_product_scales_into_a_nonempty_accumulator(n, k, data):
    # add_product is Poly.__mul__'s term-pair loop: k * p * q added onto the
    # accumulator's contents over p.den * q.den, zero entries included
    monos = st.tuples(*[st.integers(0, 2)] * n)

    def poly():
        return Poly(n, data.draw(st.dictionaries(monos, _RATIONALS, max_size=4)))

    p, q = poly(), poly()
    start = data.draw(st.dictionaries(monos, st.integers(-9, 9), min_size=1, max_size=5))
    den = p.den * q.den
    acc = dict(start)
    assert algebra.add_product(acc, p, q, k) is None
    assert Poly.from_contents(n, acc, den) == (
        Poly.from_contents(n, start, den) + (p * q).scale(k))
    acc = {}
    algebra.add_product(acc, p, q)
    assert Poly.from_contents(n, acc, den) == p * q
