"""Bounded constructive searches for leading-form membership and reductions.

Membership of a leading form in the graded algebra generated by two
polynomials is SAGBI-hard in general, so the search here is an explicitly
bounded semi-decision procedure.  Every absence carries a reason tag:

* ``semigroup-obstruction`` -- rigorous: the target degree is not in the
  semigroup generated by the generator degrees (generator degrees
  Z-independent, so no cancellation can evade the count);
* ``degree-shape`` -- rigorous: a degree/parity constraint excludes every
  candidate (e.g. the homogeneous slice does not match, or no component
  degree is halvable);
* ``limits-exhausted`` -- inconclusive: the bounded ansatz ran out.

Only rigorous reasons may feed non-tameness certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from operator import add, itemgetter
from typing import Callable, Optional, Sequence

from .algebra import (
    DegreeValue,
    Elimination,
    Poly,
    ScaledPair,
    WeightSystem,
    all_semigroup_pairs,
    cancellation_window,
    exists_multiple_exceeding,
    half,
    level_box,
    parallel_multipliers,
    probe_points,
    proportionality,
    solve_contents,
    sqrt_up_to_scalar,
    z_independent,
)
from .forms import algebraically_independent, wedge_degree
from .univariate import BiPoly

PERMUTATIONS_3 = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)


def permute_triple(triple: Sequence, sigma: tuple) -> tuple:
    """(f_{sigma(1)}, f_{sigma(2)}, f_{sigma(3)})."""
    return tuple(triple[s - 1] for s in sigma)


def unpermute_triple(permuted: Sequence, sigma: tuple) -> tuple:
    """Inverse of permute_triple: G with permute_triple(G, sigma) == permuted."""
    out = [None] * len(permuted)
    for k, s in enumerate(sigma):
        out[s - 1] = permuted[k]
    return tuple(out)


@dataclass(frozen=True)
class SearchLimits:
    """Bounds for the cancellation ansatz; all positive.

    ``max_bidegree`` caps each generator exponent explored beyond the
    exact-degree pairs and ``max_cancellation_rounds`` is how many nonempty
    levels i + j the widened pairs span; both apply only when the
    generalized SU inequality leaves the widened pairs unbounded (no
    ``algebra.cancellation_window``, so ``algebra.level_box`` lists
    them).  ``max_product_terms`` drops a widened pair whose product may
    exceed that many terms; ``max_candidates`` caps scalar/exponent
    branching in the structured searches.
    """

    max_bidegree: int = 14
    max_cancellation_rounds: int = 8
    max_candidates: int = 24
    max_product_terms: int = 20_000

    def __post_init__(self):
        if min(self.max_bidegree, self.max_cancellation_rounds,
               self.max_candidates, self.max_product_terms) <= 0:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = SearchLimits()


@dataclass
class Absence:
    reason: str  # semigroup-obstruction | degree-shape | limits-exhausted
    detail: object = None

    @property
    def rigorous(self) -> bool:
        """Every reason but ``limits-exhausted`` is a proof of absence."""
        return self.reason != "limits-exhausted"

    def to_json(self) -> dict:
        return {"absent": {"reason": self.reason, "rigorous": self.rigorous,
                           "detail": self.detail}}


@dataclass
class MembershipOutcome:
    found: Optional[BiPoly]
    absence: Optional[Absence] = None
    # widened solves behind `found`: 0 on the exact slice, 1 for the one
    # solve over a cancellation window or a level box
    rounds_used: int = 0
    # target - found.value(), when found: `negated` (-found) expanded onto
    # target in one Poly.compose pass
    residual: Optional[Poly] = None
    negated: Optional[BiPoly] = None


class _ProductCache:
    """The slices of the products f^i g^j of a fixed generator pair f, g that
    a leading search reads.  Every power comes from ``Poly.__pow__``, so f,
    g and their leading forms each build a power once and keep it.

    Weighted degree is additive, so the terms of f^i g^j at its own degree
    i*deg f + j*deg g are exactly lf^i lg^j, for the leading forms lf, lg.
    ``tail`` at that degree (every exact-slice pair) reads the leading-form
    product.  A widened pair lies above the target degree; its ``tail``
    multiplies the powers f^i and g^j, each sorted by degree once here, and
    skips every term pair whose degrees sum below the threshold, so no full
    f^i g^j is built.
    """

    def __init__(self, f: Poly, g: Poly, ws: WeightSystem):
        self.f = f
        self.g = g
        self.ws = ws
        self.lf = ws.leading_form(f)
        self.lg = ws.leading_form(g)
        self._degs = (ws.deg(f).vec, ws.deg(g).vec)
        self._sorted: dict[tuple[int, int], list] = {}  # (0, i) f^i, (1, j) g^j

    def _sorted_power(self, side: int, k: int) -> list:
        """[(degree vector, mono, int)] of f^k (side 0) or g^k (side 1), by
        descending degree vector."""
        key = (side, k)
        entries = self._sorted.get(key)
        if entries is None:
            p = (self.f, self.g)[side] ** k
            entries = sorted(zip(self.ws.term_vecs(p.nums), p.nums, p.nums.values()),
                             key=itemgetter(0), reverse=True)
            self._sorted[key] = entries
        return entries

    def size_bound(self, i: int, j: int) -> int:
        """A bound on the term count of f^i g^j: at most tf^i tg^j products
        of terms, and at most the number of monomials of its total degree."""
        tf, tg = len(self.f.nums), len(self.g.nums)
        deg = i * self.f.total_degree() + j * self.g.total_degree()
        dense = 1
        for k in range(1, self.f.n + 1):
            dense = dense * (deg + k) // k
        return min(tf**i * tg**j, dense)

    def product_within(self, i: int, j: int, term_cap: int) -> bool:
        """Whether the pair (i, j) joins the widened ansatz: the size bound
        of f^i g^j stays within term_cap, and the term pairs of a last
        multiplication in its chain within 50 * term_cap.  Decided from the
        bound alone, so the pairs tried do not depend on what ``tail``
        builds."""
        bound = self.size_bound(i, j)
        tf, tg = len(self.f.nums), len(self.g.nums)
        return bound <= term_cap and bound * max(tf, tg) <= 50 * term_cap

    def tail(self, i: int, j: int, threshold) -> tuple[int, list]:
        """(denominator, [(mono, int_coeff)]) of the terms of f^i g^j with
        degree >= threshold; at the degree of f^i g^j itself, the contents
        of lf^i lg^j."""
        if tuple(i * a + j * b for a, b in zip(*self._degs)) == threshold.vec:
            p = self.lg**j if i == 0 else self.lf**i if j == 0 else self.lf**i * self.lg**j
            return p.den, list(p.nums.items())
        return self._truncated(i, j, threshold.vec)

    def _truncated(self, i: int, j: int, top: tuple) -> tuple[int, list]:
        """The terms of f^i g^j with degree vector >= top, from the term
        pairs of f^i and g^j whose degree vectors sum to at least top."""
        fs, gs = self._sorted_power(0, i), self._sorted_power(1, j)
        g_top = gs[0][0]
        acc: dict = {}
        for fv, fm, fc in fs:
            # gv >= top - fv, read off the sorted powers
            need = tuple(t - v for t, v in zip(top, fv))
            if g_top < need:
                break
            for gv, gm, gc in gs:
                if gv < need:
                    break
                m = tuple(map(add, fm, gm))
                v = acc.get(m)
                acc[m] = fc * gc if v is None else v + fc * gc
        den = (self.f**i).den * (self.g**j).den
        return den, [(m, c) for m, c in acc.items() if c]


def _above(ws: WeightSystem, p: Poly, threshold: DegreeValue) -> tuple[int, list]:
    """(den, [(mono, int_coeff)]) of the terms of p with degree >= threshold."""
    top = threshold.vec
    return p.den, [(m, c) for (m, c), v in zip(p.nums.items(), ws.term_vecs(p.nums))
                   if v >= top]


def _solve_with_pairs(
    lead: Poly,
    gens: tuple[Poly, Poly],
    pairs: list[tuple[int, int]],
    threshold: DegreeValue,
    cache: _ProductCache,
) -> Optional[BiPoly]:
    """Coefficients c over `pairs` with deg(target - sum c*f^i*g^j) <
    threshold, where `lead` is the target's terms at or above threshold (its
    leading form, when threshold is its degree), as a representation on
    integer contents: one ``Elimination`` of `lead` over the tails of the
    pairs, filled and solved once."""
    system = Elimination((lead.den, lead.nums))
    for i, j in pairs:
        system.add(cache.tail(i, j, threshold))
    sol = system.contents()
    if sol is None:
        return None
    den, nums = sol
    return BiPoly(gens, Poly.from_contents(2, {pairs[k]: c for k, c in nums.items()}, den))


def homogeneous_membership(
    ws: WeightSystem, h: Poly, g1h: Poly, g2h: Poly
) -> Optional[BiPoly]:
    """Exact representation of homogeneous h over homogeneous generators.

    Complete: only exponent pairs on the degree slice can contribute, and a
    combination of higher homogeneous products is homogeneous of the wrong
    degree, so one exact linear system decides membership.
    """
    for name, p in (("h", h), ("g1", g1h), ("g2", g2h)):
        if p.is_zero:
            raise ValueError(f"{name} must be nonzero")
        if not ws.is_homogeneous(p):
            raise ValueError(f"{name} is not homogeneous")
    if not (ws.deg(g1h).is_positive() and ws.deg(g2h).is_positive()):
        raise ValueError("generators must be nonconstant")
    d = ws.deg(h)
    pairs = all_semigroup_pairs(d, ws.deg(g1h), ws.deg(g2h))
    found = _solve_with_pairs(h, (g1h, g2h), pairs, d, _ProductCache(g1h, g2h, ws))
    if found is not None:
        assert found.value() == h
    return found


def _found(ws: WeightSystem, target: Poly, found: BiPoly, rounds: int) -> MembershipOutcome:
    """The outcome for a found representation, with its residual: the
    negated representation expanded onto target in one pass."""
    negated = found.negate()
    residual = negated.at(found.gens, target)
    assert ws.deg(residual) < ws.deg(target)
    return MembershipOutcome(found, rounds_used=rounds, residual=residual, negated=negated)


@dataclass
class _Widening:
    """A target the exact slice left open: its generator degrees are
    Z-dependent, so products above its degree may cancel among themselves.
    ``_widen`` decides the rest, starting with the power proportionality
    of the generator leading forms."""

    target: Poly
    gens: tuple[Poly, Poly]
    degree: DegreeValue
    exact_pairs: list[tuple[int, int]]
    cache: _ProductCache


def _decided_absent(exact_pairs: list, d: DegreeValue, shape_detail,
                    note=None) -> MembershipOutcome:
    """The exact slice at degree d decided: no pairs at all, or no solution
    on them."""
    if exact_pairs:
        return MembershipOutcome(None, Absence("degree-shape", shape_detail))
    detail = {"target_degree": d.to_json()}
    if note is not None:
        detail["note"] = note
    return MembershipOutcome(None, Absence("semigroup-obstruction", detail))


def _decide_exact(
    ws: WeightSystem,
    target: Poly,
    gens: tuple[Poly, Poly],
    cache: Optional[_ProductCache] = None,
    component: Optional[int] = None,
) -> MembershipOutcome | _Widening:
    """The exact-slice solve and the rigorous exits on Z-independent
    generator degrees.

    Returns a MembershipOutcome when they decide, else the _Widening state
    from which ``_widen`` resumes; the power-proportionality test is left
    to ``_widen``, so a target that a caller never widens does not pay for
    it.  A target degree outside the semigroup of Z-independent generator
    degrees is decided before anything is built; its absence names the
    1-based ``component`` when the elementary search gives one, else the
    target degree.
    """
    if target.is_zero:
        raise ValueError("zero target")
    f, g = gens
    d1, d2 = ws.deg(f), ws.deg(g)
    if not (d1.is_positive() and d2.is_positive()):
        raise ValueError("generators must be nonconstant")
    d = ws.deg(target)
    try:
        exact_pairs = all_semigroup_pairs(d, d1, d2)
    except ValueError:
        return MembershipOutcome(None, Absence("limits-exhausted",
                                               "degree-slice enumeration guard"))
    # Z-independent degrees: distinct products have distinct degrees, so no
    # cancellation between them is possible and the exact slice decides.
    independent = z_independent(d1, d2)
    if independent and not exact_pairs:
        detail = {"target_degree": d.to_json()} if component is None else {"component": component}
        return MembershipOutcome(None, Absence("semigroup-obstruction", detail))
    cache = cache or _ProductCache(f, g, ws)
    found = _solve_with_pairs(ws.leading_form(target), gens, exact_pairs, d, cache)
    if found is not None:
        return _found(ws, target, found, 0)
    if independent:
        return _decided_absent(exact_pairs, d, "homogeneous-slice-mismatch")
    return _Widening(target, gens, d, exact_pairs, cache)


def _widen(ws: WeightSystem, state: _Widening, limits: SearchLimits) -> MembershipOutcome:
    """Test the generator leading forms for power proportionality, check
    the cancellation floor, then solve over the pairs above the target
    degree whose products may cancel among themselves.

    Cancellation among leading products forces g^p to be a multiple of f^q
    on the leading forms; without that, the exact slice already decided
    membership, and the absence is the rigorous "independent leading forms"
    one.

    The pairs are the generalized SU inequality's window
    (``algebra.cancellation_window``), or, where it bounds nothing, the
    level box (``algebra.level_box``: ``max_cancellation_rounds`` nonempty
    levels i + j with i, j <= ``max_bidegree``).  Less the pairs that
    ``max_product_terms`` drops, they join the exact pairs in one solve.
    An absence stays ``limits-exhausted`` either way; its detail names the
    window, or the box's bidegree and levels, and any pairs the term cap
    dropped.
    """
    f, g = state.gens
    d = state.degree
    cache = state.cache
    scaled = find_scaled_pair(ws, cache.lf, cache.lg)
    if scaled is None:
        return _decided_absent(state.exact_pairs, d,
                               "homogeneous-slice-mismatch (independent leading forms)",
                               "independent leading forms")
    d1, d2 = ws.deg(f), ws.deg(g)
    wedge = wedge_degree(ws, f, g)
    # Any element whose representation degree exceeds its value degree obeys
    # the cancellation floor q*deg(f) + deg(df^dg) - deg(f) - deg(g); targets
    # below it cannot be reached by the widened ansatz at all.
    floor = scaled.q * d1 + wedge - d1 - d2
    if d < floor:
        return _decided_absent(state.exact_pairs, d, {"cancellation_floor": floor.to_json()},
                               "below the cancellation floor")
    pairs = cancellation_window(d, d1, d2, wedge, scaled.p, scaled.q)
    if pairs is None:
        top = limits.max_bidegree
        pairs, levels = level_box(d, d1, d2, top, limits.max_cancellation_rounds)
        detail = {"max_bidegree": top, "rounds": levels}
    else:
        detail = {"cancellation_window": [list(pair) for pair in pairs]}
    kept = [pair for pair in pairs if cache.product_within(*pair, limits.max_product_terms)]
    found = _solve_with_pairs(ws.leading_form(state.target), state.gens,
                              state.exact_pairs + kept, d, cache)
    if found is not None:
        return _found(ws, state.target, found, 1)
    if len(kept) < len(pairs):
        detail["max_product_terms"] = limits.max_product_terms
        detail["dropped"] = [list(pair) for pair in pairs if pair not in kept]
    return MembershipOutcome(None, Absence("limits-exhausted", detail))


def leading_membership_search(
    ws: WeightSystem,
    target: Poly,
    gens: tuple[Poly, Poly],
    limits: SearchLimits = DEFAULT_LIMITS,
    cache: Optional[_ProductCache] = None,
) -> MembershipOutcome:
    """Find phi over gens with deg(target - phi.value()) < deg(target).

    First the exact-degree exponent pairs, then (only when the generator
    degrees are Z-dependent, i.e. cancellation is possible at all) one
    widened solve that adds larger products whose tops may cancel among
    themselves.  Absence is NOT a proof of non-membership unless tagged
    rigorous.
    """
    out = _decide_exact(ws, target, gens, cache)
    if isinstance(out, _Widening):
        return _widen(ws, out, limits)
    return out


def peel(
    ws: WeightSystem,
    target: Poly,
    gens: tuple[Poly, Poly],
    limits: SearchLimits,
    accept: Callable[[Poly, Poly], bool],
    budget: int,
) -> tuple:
    """Subtract leading representations over gens from target until
    ``accept(residual, coeffs)`` holds, at most ``budget`` times.

    ``coeffs`` is the sum of the representations peeled so far, a Poly in
    two variables.  Returns (phi, residual) with target == phi.value() +
    residual, or (None, absence) when a leading form has no representation,
    the residual is an unaccepted constant, or the budget runs out.
    """
    cache = _ProductCache(*gens, ws)
    residual = target
    acc = Poly.zero(2)
    for _ in range(budget):
        if accept(residual, acc):
            return BiPoly(gens, acc), residual
        if residual.is_constant:
            return None, Absence("limits-exhausted", "constant residual")
        out = leading_membership_search(ws, residual, gens, limits, cache)
        if out.found is None:
            return None, out.absence
        acc = acc + out.found.poly
        assert ws.deg(out.residual) < ws.deg(residual)
        residual = out.residual
    return None, Absence("limits-exhausted", "peel budget")


def exact_membership(
    ws: WeightSystem,
    target: Poly,
    gens: tuple[Poly, Poly],
    limits: SearchLimits = DEFAULT_LIMITS,
) -> MembershipOutcome:
    """Full membership target in k[gens] by repeated leading peeling."""
    phi, rest = peel(ws, target, gens, limits, lambda res, _: res.is_constant, 200)
    if phi is None:
        return MembershipOutcome(None, rest)
    phi = BiPoly(gens, phi.poly + Poly.constant(rest.constant_term(), 2))
    return MembershipOutcome(phi, residual=Poly.zero(target.n))


def membership_in_single(
    ws: WeightSystem, target: Poly, gen: Poly
) -> Optional[dict[int, Fraction]]:
    """Exact membership of target in k[gen] ({} for a zero target); a
    complete greedy decision.

    Powers of a fixed nonconstant polynomial have pairwise distinct degrees,
    so the top coefficient is forced at every step.
    """
    dg = ws.deg(gen)
    if not dg.is_positive():
        raise ValueError("generator must be nonconstant")
    coeffs: dict[int, Fraction] = {}
    residual = target
    guard = 0
    while not residual.is_zero:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("runaway single-generator membership")
        if residual.is_constant:
            coeffs[0] = residual.constant_term()
            return coeffs
        d = ws.deg(residual)
        mg, md = parallel_multipliers(dg.vec, d.vec)
        if md is None or md < 0 or md % mg:
            return None
        k = md // mg
        power = gen**k
        t = proportionality(ws.leading_form(residual), ws.leading_form(power))
        if t is None:
            return None
        coeffs[k] = t
        residual = residual - power.scale(t)
        if not residual.is_zero and not ws.deg(residual) < d:
            return None
    return coeffs


def find_scaled_pair(ws: WeightSystem, fw: Poly, gw: Poly) -> Optional[ScaledPair]:
    """Coprime (p, q) with gw^p a scalar multiple of fw^q, from the degree
    relation q*deg(fw) = p*deg(gw), verified by exact comparison.

    On integer contents G and F, gw^p = c*fw^q makes G^p a constant multiple
    of F^q, so G(v)^p * F(u)^q = G(u)^p * F(v)^q at any two points u, v.  A
    mismatch at two consecutive ``probe_points`` (Schwartz-Zippel, used only
    to refute), on the values each polynomial remembers (``Poly.at_probe``),
    is an exact "no" that builds no power; a "yes" is always proved on the
    full powers."""
    if fw.is_zero or gw.is_zero:
        raise ValueError("requires nonzero polynomials")
    df, dg = ws.deg(fw), ws.deg(gw)
    if not (df.is_positive() and dg.is_positive()):
        return None
    # df = a*e, dg = b*e along the primitive common direction.
    a, b = parallel_multipliers(df.vec, dg.vec)
    if b is None or a <= 0 or b <= 0:
        return None
    g0 = math.gcd(a, b)
    p, q = a // g0, b // g0
    values = ((gw.at_probe(k)[0] ** p, fw.at_probe(k)[0] ** q)
              for k in range(len(probe_points(fw.n))))
    if any(g1 * f0 != g0 * f1 for (g0, f0), (g1, f1) in pairwise(values)):
        return None
    if proportionality(gw**p, fw**q) is None:
        return None
    return ScaledPair(p, q)


# ---------------------------------------------------------------------------
# Elementary reduction search
# ---------------------------------------------------------------------------


@dataclass
class ElementaryStep:
    """Adding phi.value() to component `index` strictly drops its degree."""

    index: int  # 1-based component index
    phi: BiPoly
    new_degree: DegreeValue

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "phi": self.phi.to_json(),
            "degree_after_component": self.new_degree.to_json(),
        }


@dataclass
class ElementaryOutcome:
    step: Optional[ElementaryStep]
    reasons: dict = field(default_factory=dict)  # 1-based index -> Absence
    reduced: Optional[tuple] = None  # the triple after the step


def find_elementary_reduction(
    ws: WeightSystem,
    triple: Sequence[Poly],
    limits: SearchLimits = DEFAULT_LIMITS,
    check_independent: bool = True,
) -> ElementaryOutcome:
    """A component whose leading form lies in the graded algebra of the
    other two, in two passes over the indices.

    Pass 1 decides each component exactly: the minimal-degree and semigroup
    skips, then the exact slice and its exits on Z-independent degrees.
    Pass 2 widens, in index order, only the components pass 1 left open,
    each starting with the power-proportionality test.  The first success
    of either pass is the step.  ``reasons`` lists, in index order, the
    absences decided before it: all three when there is no step, and on a
    step only those its search had decided (``reduce_step`` records none).
    """
    if check_independent and not algebraically_independent(triple):
        raise ValueError("components are algebraically dependent")
    reasons: dict[int, Absence] = {}
    pending: dict[int, _Widening] = {}

    def outcome(index=None, out=None) -> ElementaryOutcome:
        ordered = dict(sorted(reasons.items()))
        if index is None:
            return ElementaryOutcome(None, ordered)
        reduced = list(triple)
        reduced[index - 1] = out.residual
        step = ElementaryStep(index=index, phi=out.negated, new_degree=ws.deg(out.residual))
        return ElementaryOutcome(step, ordered, tuple(reduced))

    for i in range(3):
        j, l = [k for k in range(3) if k != i]
        fi, fj, fl = triple[i], triple[j], triple[l]
        if ws.deg(fi) <= ws.min_weight:
            # A strict drop would force a constant component, impossible
            # for an independent triple.
            reasons[i + 1] = Absence("degree-shape",
                                     {"component-at-minimal-degree": i + 1})
            continue
        out = _decide_exact(ws, fi, (fj, fl), component=i + 1)
        if isinstance(out, _Widening):
            pending[i + 1] = out
        elif out.found is not None:
            return outcome(i + 1, out)
        else:
            reasons[i + 1] = out.absence
    for index in list(pending):
        out = _widen(ws, pending.pop(index), limits)
        if out.found is not None:
            return outcome(index, out)
        reasons[index] = out.absence
    return outcome()


# ---------------------------------------------------------------------------
# Structured (two-stage) reduction search
# ---------------------------------------------------------------------------


@dataclass
class SUWitness:
    """Data reproducing the reduced triple from the original one.

    With (f1, f2, f3) the sigma-permuted components: g1 = f1 + a*f3^2 + c*f3,
    g2 = f2 + b*f3 (b = 0 in a searched witness), g3 = f3 + phi3(g1, g2).
    """

    sigma: tuple
    a: Fraction
    b: Fraction
    c: Fraction
    phi3: BiPoly
    s: int
    delta: DegreeValue

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "phi3": self.phi3.to_json(),
            "s": self.s,
            "delta": self.delta.to_json(),
        }


@dataclass
class SUOutcome:
    witness: Optional[SUWitness]
    reduced: Optional[tuple]
    reasons: list = field(default_factory=list)


def _odd_s_values(
    delta: DegreeValue,
    lower: DegreeValue,
    upper: DegreeValue,
    cap: int,
) -> list[int]:
    """Odd s >= 3 with lower <= s*delta <= upper, capped for lex-degenerate
    directions where multiples never pass the bound."""
    out = []
    s = 3
    count = 0
    while count < cap:
        sd = s * delta
        if sd > upper:
            break
        if sd >= lower:
            out.append(s)
        s += 2
        count += 1
    return out


def su6_bound(ws: WeightSystem, g1: Poly, g2: Poly) -> DegreeValue:
    """deg g1 - deg g2 + deg(dg1 ^ dg2): the SU6 bound on deg g3."""
    return ws.deg(g1) - ws.deg(g2) + wedge_degree(ws, g1, g2)


def find_su_reduction(
    ws: WeightSystem,
    triple: Sequence[Poly],
    limits: SearchLimits = DEFAULT_LIMITS,
    check_independent: bool = True,
) -> SUOutcome:
    """Search for a structured two-generator reduction of the triple.

    Scans permutations; for each, derives the finitely many scalar and
    shape parameters from exact leading-form cancellation systems, then
    searches the third-component correction over the new generator pair.
    Absence is rigorous only for the degree-shape obstructions.
    """
    if check_independent and not algebraically_independent(triple):
        raise ValueError("components are algebraically dependent")
    degs = [ws.deg(f) for f in triple]
    reasons: list[dict] = []
    if all(half(d) is None for d in degs):
        return SUOutcome(None, None, [Absence(
            "degree-shape", "no component degree is halvable").to_json()])
    for i in range(3):
        for j in range(3):
            if i != j and not exists_multiple_exceeding(degs[j], degs[i]):
                return SUOutcome(None, None, [Absence(
                    "degree-shape", {"archimedean-obstruction": [i + 1, j + 1]}).to_json()])
    for sigma in PERMUTATIONS_3:
        fs = permute_triple(triple, sigma)
        f1, f2, f3 = fs
        d1, d2, d3 = (ws.deg(f) for f in fs)
        delta = half(d2)
        if delta is None:
            reasons.append({"sigma": list(sigma), "skip": "second degree not halvable"})
            continue
        # SU2 needs deg(f2 + b*f3) = d2: the b cancelling the tops of f2 and f3
        # breaks it, and no other b is searched, so absences stay limits-exhausted.
        g2 = f2
        sq = sqrt_up_to_scalar(ws.leading_form(g2))
        if sq is None:
            reasons.append({"sigma": list(sigma), "b": "0",
                            "skip": "leading form of new second component is not a square"})
            continue
        _, u = sq
        upper = max(d1, 2 * d3)
        lower = max(d1, d3)
        for s in _odd_s_values(delta, lower, upper, limits.max_candidates):
            result = _assemble_first_component(ws, f1, f3, u, s, delta)
            if result is None:
                continue
            a, c, g1 = result
            g1w, g2w = ws.leading_form(g1), ws.leading_form(g2)
            f3w = ws.leading_form(f3)
            if homogeneous_membership(ws, f3w, g1w, g2w) is not None:
                reasons.append({"sigma": list(sigma), "s": s,
                                "skip": "third leading form lies in the new graded pair"})
                continue
            bound = su6_bound(ws, g1, g2)

            def below_bounds(res: Poly, _) -> bool:
                d = ws.deg(res)
                return d < d3 and d < bound

            phi3, g3 = peel(ws, f3, (g1, g2), limits, below_bounds, 64)
            if phi3 is None:
                reasons.append({"sigma": list(sigma), "s": s,
                                "skip": "no admissible third-component correction"})
                continue
            phi3 = phi3.negate()
            if not algebraically_independent([g1, g2, g3]):
                continue
            witness = SUWitness(sigma=sigma, a=a, b=Fraction(0), c=c, phi3=phi3, s=s,
                                delta=delta)
            reduced = unpermute_triple((g1, g2, g3), sigma)
            return SUOutcome(witness, reduced, reasons)
    if not reasons:
        reasons.append({"skip": "no permutation produced a candidate"})
    return SUOutcome(None, None, [Absence("limits-exhausted", reasons).to_json()])


def _assemble_first_component(ws, f1, f3, u, s, delta):
    """Solve the leading cancellation system for g1 = f1 + a f3^2 + c f3.

    Unknowns (a, c, gamma): every monomial of weighted degree >= s*delta in
    f1 + a f3^2 + c f3 - gamma u^s must vanish, with gamma != 0 so the new
    top is exactly gamma*u^s.  A tail psi(f2) cannot enter: every atom f2^m
    with 2m <= s - 1 lies wholly below s*delta, so its column would be zero.

    A returned g1 has degree s*delta and leading form gamma*u^s, gamma != 0:
    u is homogeneous of degree delta, as a square root of a homogeneous form,
    so u^s is a nonzero form of degree s*delta; every term of g1 - gamma*u^s
    at or above s*delta is solved to zero; and gamma is the pivot or is set
    to 1.  So with g2^w = lambda*u^2, (g1^w)^2 is proportional to (g2^w)^s.
    """

    def above(p: Poly) -> tuple:
        return _above(ws, p, s * delta)

    f3sq, us = f3**2, u**s
    columns = [above(f3sq), above(f3)]
    sol = solve_contents(above(-f1), columns + [above(-us)])
    if sol is None:
        return None
    if not sol[2]:
        # gamma is the last unknown, so as a pivot it is 0 in every
        # solution; as a free unknown it may be fixed to 1, the other free
        # unknowns staying 0.
        sol = solve_contents(above(us - f1), columns)
        if sol is None:
            return None
    a, c = sol[0], sol[1]
    return a, c, f1 + f3sq.scale(a) + f3.scale(c)
