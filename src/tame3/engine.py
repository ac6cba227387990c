"""Automorphism-level orchestration: composition, reduction loops, tame
factorization, traces, and the verdict a trace gives on its map.

Composition convention: ``compose_endo(F, G)`` is the ring-homomorphism
composite sending x_i to G(x_i) evaluated at F's components.  Factor lists
are kept in application order (first entry innermost), so
``recompose([c1, c2, c3]) == c3 . c2 . c1``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .algebra import (
    DegreeValue,
    Poly,
    WeightSystem,
    det,
    lex_weight,
    poly_to_text,
)
from .search import (
    DEFAULT_LIMITS,
    ElementaryStep,
    SearchLimits,
    SUWitness,
    find_elementary_reduction,
    find_su_reduction,
    unpermute_triple,
)
from .forms import algebraically_independent

Triple = tuple[Poly, Poly, Poly]

N = 3
_DEGREE_CLAMP = 28  # random_tame resamples above this total degree


def identity_endo(n: int = N) -> Triple:
    """The variables x_1, ..., x_n: one shared triple per arity, so the
    powers they remember outlive each composition that starts from it."""
    return _identity(n)


@lru_cache(maxsize=None)  # one entry per arity
def _identity(n: int) -> Triple:
    return tuple(Poly.variable(i, n) for i in range(n))


def compose_endo(F: Sequence[Poly], G: Sequence[Poly]) -> Triple:
    """F then G: component i is G(x_i) evaluated at F's components."""
    Fc = list(F)
    return tuple(g.compose(Fc) for g in G)


def verify_automorphism(F: Sequence[Poly], G: Sequence[Poly]) -> bool:
    """Whether G is F's inverse, by one composition.  If G evaluated at F
    is the identity, the endomorphism x_i -> F_i of k[x1, x2, x3] is
    surjective, so injective (the kernels of its powers form an ascending
    chain in a Noetherian ring), and the one-sided inverse is two-sided."""
    return compose_endo(F, G) == identity_endo(F[0].n)


@dataclass
class Endo3:
    """Ordered polynomial triple with an optional claimed inverse, which
    ``inverse_verified`` checks where a verdict reads it."""

    components: Triple
    inverse: Optional[Triple] = None

    def __post_init__(self):
        if len(self.components) != N:
            raise ValueError("need exactly three components")


# ---------------------------------------------------------------------------
# Tame factors
# ---------------------------------------------------------------------------


@dataclass
class TameFactor:
    """Affine or elementary factor of a tame map.

    An affine factor is its integer rows: ``rows[i] = (nums, den)`` is
    component i, (nums[0] + sum_j nums[j + 1] * x_j) / den, with den > 0 and
    gcd(den, *nums) == 1.  That form is canonical, so ``==`` is exact;
    ``matrix`` and ``translation`` are read-only Fraction views of it, built
    once per factor.  An elementary factor adds ``phi``, which omits
    x_index, to component ``index``.
    """

    kind: str  # "affine" | "elementary"
    rows: Optional[tuple] = None  # affine: per component (nums, den)
    index: Optional[int] = None  # 1-based, for elementary
    phi: Optional[Poly] = None  # omits x_index

    def __post_init__(self):
        if self.kind == "affine":
            if len(self.rows) != N or any(len(nums) != N + 1 for nums, _ in self.rows):
                raise ValueError("affine factor needs a 3x3 matrix and 3 translations")
            self.rows = tuple(_primitive(nums, den) for nums, den in self.rows)
            # scaling a row by its denominator does not change whether det A is 0
            if det([nums[1:] for nums, _ in self.rows]) == 0:
                raise ValueError("affine factor must have invertible matrix")
        elif self.kind == "elementary":
            if not 1 <= self.index <= N:
                raise ValueError("elementary index out of range")
            if self.phi.n != N:
                raise ValueError("elementary polynomial must be in 3 variables")
            if any(m[self.index - 1] for m in self.phi.nums):
                raise ValueError("elementary polynomial must omit its own variable")
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")

    @staticmethod
    def affine(matrix, translation) -> "TameFactor":
        """x -> matrix x + translation, for int or Fraction entries."""
        rows = []
        for b, row in zip(translation, matrix, strict=True):
            entries = (b, *row)
            if not all(isinstance(c, (int, Fraction)) for c in entries):
                raise TypeError("affine entries must be exact rationals")
            den = math.lcm(*(c.denominator for c in entries))
            rows.append((tuple(c.numerator * (den // c.denominator) for c in entries), den))
        return TameFactor("affine", tuple(rows))

    @staticmethod
    def elementary(index: int, phi: Poly) -> "TameFactor":
        return TameFactor(kind="elementary", index=index, phi=phi)

    @cached_property
    def matrix(self) -> Optional[tuple]:
        if self.kind != "affine":
            return None
        return tuple(tuple(Fraction(c, den) for c in nums[1:]) for nums, den in self.rows)

    @cached_property
    def translation(self) -> Optional[tuple]:
        if self.kind != "affine":
            return None
        return tuple(Fraction(nums[0], den) for nums, den in self.rows)

    def apply(self, acc: Sequence[Poly]) -> Triple:
        """``compose_endo(acc, self.as_endo())``, computed directly.

        An elementary factor changes only component i, to
        acc[i] + phi(acc), one ``compose`` pass onto acc[i]; phi omits x_i,
        so no power of acc[i] is built.
        An affine factor is one integer combination of acc's contents per
        row (``_affine_apply``).
        """
        if self.kind == "affine":
            return _affine_apply(self.rows, acc)
        out = list(acc)
        i = self.index - 1
        out[i] = self.phi.compose(acc, acc[i])
        return tuple(out)

    def as_endo(self) -> Triple:
        return self.apply(identity_endo())

    def inverted(self) -> "TameFactor":
        if self.kind == "elementary":
            return TameFactor.elementary(self.index, -self.phi)
        return TameFactor("affine", _inverse_rows(self.rows))

    def to_json(self) -> dict:
        if self.kind == "affine":
            return {
                "kind": "affine",
                "matrix": [[str(c) for c in row] for row in self.matrix],
                "translation": [str(c) for c in self.translation],
            }
        return {"kind": "elementary", "index": self.index, "phi": poly_to_text(self.phi)}


_AFFINE_MONOS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _primitive(nums: Sequence[int], den: int) -> tuple[tuple, int]:
    """The row nums / den (den nonzero) with den > 0 and no common content."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(c // g for c in nums), den // g


def _inverse_rows(rows: Sequence[tuple]) -> tuple:
    """The integer rows (nums, den) of an invertible affine map's inverse,
    each over den = det R, which may be negative and is not made primitive.

    With A = diag(1/den_i) R for integer R and b_i = t_i / den_i:
    A^-1 = adj(R) diag(den) / det R and A^-1 b = adj(R) t / det R, and
    y = Ax + b  =>  x = A^-1 y - A^-1 b.
    """
    r = [nums[1:] for nums, _ in rows]
    adj = _adj3(r)
    d = sum(a * row[0] for a, row in zip(r[0], adj))  # det R along its first row
    t = [nums[0] for nums, _ in rows]
    return tuple(((-sum(a * c for a, c in zip(row, t)),
                   *(a * den for a, (_, den) in zip(row, rows))), d) for row in adj)


def _affine_apply(rows: Sequence[tuple], acc: Sequence[Poly]) -> Triple:
    """The affine rows (nums, den) applied to acc: row i gives
    (nums[0] + sum_j nums[j + 1] * acc[j]) / den, in one integer
    accumulator on the common denominator of the acc[j] that row uses.
    The largest of them seeds the accumulator and the others are scattered
    into it.  den may be negative."""
    n = acc[0].n
    one = (0,) * n
    order = sorted(range(len(acc)), key=lambda j: -len(acc[j].nums))
    out = []
    for nums, den in rows:
        row: dict = {}
        used = [j for j in order if nums[j + 1]]
        common = math.lcm(*[acc[j].den for j in used])
        for j in used:
            p = acc[j]
            k = nums[j + 1] * (common // p.den)
            if not row:
                row = {m: k * v for m, v in p.nums.items()}
            else:
                for m, v in p.nums.items():
                    row[m] = row.get(m, 0) + k * v
        if nums[0]:
            row[one] = row.get(one, 0) + nums[0] * common
        out.append(Poly.from_contents(n, row, den * common))
    return tuple(out)


def _adj3(m) -> tuple:
    """The adjugate of a 3x3 matrix, cofactor by cofactor:
    m * adj(m) == det(m) * I."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return ((e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d))


def recompose(factors: Sequence[TameFactor]) -> Triple:
    """Apply factors in list order (first entry acts first).

    Folded outermost-first, each factor applied in place to the running
    triple (``TameFactor.apply``): for factor lists produced by the
    reduction undo, the intermediates then retrace the trace triples
    instead of composing raw correction maps, whose degrees would multiply.
    """
    acc = identity_endo()
    for factor in reversed(factors):
        acc = factor.apply(acc)
    return acc


def invert_factors(factors: Sequence[TameFactor]) -> list[TameFactor]:
    return [f.inverted() for f in reversed(factors)]


# ---------------------------------------------------------------------------
# Reduction loop
# ---------------------------------------------------------------------------


def stuck_rigorous(reasons: Optional[dict]) -> bool:
    """Whether a stuck result's absences are all rigorous: every component
    has a rigorous elementary absence, and every structured-search absence
    is rigorous.  No recorded elementary absence means not rigorous."""
    elem = (reasons or {}).get("elementary")
    if not elem or not all(a.get("absent", {}).get("rigorous") for a in elem.values()):
        return False
    su = reasons.get("su", [])
    return all(a.get("absent", {}).get("rigorous", False) for a in su if "absent" in a)


@dataclass
class TraceStep:
    """One reduction attempt; the trace records the elementary and su ones,
    with the degree of the triple they produce."""

    kind: str  # at-floor | elementary | su | stuck
    elementary: Optional[ElementaryStep] = None
    su_witness: Optional[SUWitness] = None
    reduced: Optional[Triple] = None  # the triple an elementary or su step produces
    reasons: Optional[dict] = None  # stuck only
    degree_after: Optional[DegreeValue] = None

    def undo_factors(self) -> list[TameFactor]:
        """Factors taking the triple this step produced back to the one it
        started from, in application order.

        An elementary step is undone by one elementary inverse.  For an su
        step, with H = F_sigma: H . E1 . E2 . E3 = G_sigma, so
        F = G . P_sigma . E3^-1 . E2^-1 . E1^-1 . P_sigma^-1, which in
        application order reads [P_sigma^-1, E1^-1, E2^-1, E3^-1, P_sigma].
        """
        if self.kind == "elementary":
            st = self.elementary
            j, k = [x for x in range(N) if x != st.index - 1]
            return [TameFactor.elementary(st.index, -st.phi.on_variables(j, k, N))]
        w = self.su_witness
        e1_phi = Poly(N, {(0, 0, 2): w.a, (0, 0, 1): w.c})
        e2_phi = Poly(N, {(0, 0, 1): w.b})
        e3_phi = w.phi3.on_variables(0, 1, N)
        factors = [_perm_factor(unpermute_triple((1, 2, 3), w.sigma))]
        for idx, phi in ((1, e1_phi), (2, e2_phi), (3, e3_phi)):
            if not phi.is_zero:
                factors.append(TameFactor.elementary(idx, -phi))
        factors.append(_perm_factor(w.sigma))
        return factors

    def to_json(self) -> dict:
        if self.kind == "elementary":
            payload = self.elementary.to_json()
        else:
            payload = {
                "witness": self.su_witness.to_json(),
                "reduced": [poly_to_text(f) for f in self.reduced],
            }
        return {"kind": self.kind, "payload": payload,
                "degree_after": self.degree_after.to_json()}


@dataclass
class ReductionTrace:
    origin: Triple
    steps: list = field(default_factory=list)
    final: Optional[Triple] = None
    result: str = "floor"  # floor | stuck | budget
    stuck_reasons: Optional[dict] = None

    @property
    def ledger(self) -> list:
        """deg F after each step."""
        return [step.degree_after for step in self.steps]

    def recompose_origin(self) -> Triple:
        """Undo the steps from the final triple; must reproduce the origin."""
        current = self.final
        for step in reversed(self.steps):
            for factor in reversed(step.undo_factors()):
                current = factor.apply(current)
        return current

    def factors(self, ws: WeightSystem) -> list[TameFactor]:
        """A floor trace's factors in application order: the steps' undo
        factors, then ``triangularize_at_floor`` of the final triple."""
        factors = [factor for step in self.steps for factor in step.undo_factors()]
        factors.extend(triangularize_at_floor(ws, self.final))
        return factors

    def to_json(self, ws: WeightSystem) -> dict:
        return {
            "origin": [poly_to_text(f) for f in self.origin],
            "weight": ws.describe(),
            "steps": [s.to_json() for s in self.steps],
            "final": [poly_to_text(f) for f in self.final] if self.final else None,
            "result": self.result,
            "stuck": self.stuck_reasons,
        }


def _perm_factor(sigma: tuple) -> TameFactor:
    """The affine factor y_i = x_sigma[i]."""
    return TameFactor("affine", tuple(
        ((0, *(int(s - 1 == j) for j in range(N))), 1) for s in sigma))


def reduce_step(
    ws: WeightSystem,
    F: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
    prefer: str = "elementary",
    deg: Optional[DegreeValue] = None,
) -> TraceStep:
    """One reduction attempt: floor test, then the two search families.

    ``deg`` is ``ws.deg_endo(F)`` when the caller has it already.  Raises
    ValueError on a prefer other than "elementary" or "su", and when F is
    algebraically dependent at the floor or below it.
    """
    if prefer not in ("elementary", "su"):
        raise ValueError(f"prefer must be 'elementary' or 'su', got {prefer!r}")
    if deg is None:
        deg = ws.deg_endo(F)
    floor = ws.total
    if deg == floor:
        if not algebraically_independent(F):
            raise ValueError("components are algebraically dependent")
        return TraceStep("at-floor")
    if deg < floor:
        raise ValueError("degree below the floor; components cannot be independent")
    reasons: dict = {}

    def try_elementary():
        out = find_elementary_reduction(ws, F, limits, check_independent=False)
        if out.step is not None:
            return TraceStep("elementary", elementary=out.step, reduced=out.reduced)
        reasons["elementary"] = {str(i): a.to_json() for i, a in out.reasons.items()}
        return None

    def try_su():
        out = find_su_reduction(ws, F, limits, check_independent=False)
        if out.witness is not None:
            return TraceStep("su", su_witness=out.witness, reduced=out.reduced)
        reasons["su"] = out.reasons
        return None

    order = (try_elementary, try_su) if prefer == "elementary" else (try_su, try_elementary)
    for attempt in order:
        result = attempt()
        if result is not None:
            return result
    return TraceStep("stuck", reasons=reasons)


def reduce_to_floor(
    ws: WeightSystem,
    F: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
    prefer: str = "elementary",
    itercap: int = 10_000,
) -> ReductionTrace:
    """Iterate reduction steps until the floor, a stuck state, or the budget."""
    trace = ReductionTrace(origin=tuple(F))
    current = tuple(F)
    deg = ws.deg_endo(current)
    for _ in range(itercap):
        step = reduce_step(ws, current, limits, prefer, deg)
        if step.kind == "at-floor":
            trace.final = current
            trace.result = "floor"
            return trace
        if step.kind == "stuck":
            trace.final = current
            trace.result = "stuck"
            trace.stuck_reasons = step.reasons
            return trace
        current = step.reduced
        step.degree_after = deg = ws.deg_endo(current)
        trace.steps.append(step)
    trace.final = current
    trace.result = "budget"
    return trace


def su_number(trace: ReductionTrace) -> int:
    """Count of the non-elementary steps in one trace."""
    return sum(1 for s in trace.steps if s.kind == "su")


@dataclass
class ReductionVerdict:
    """A reduction trace read as a verdict on the map it started from.

    By the reduction theorem a tame map above the degree floor admits an
    elementary or an SU reduction, so a verified automorphism whose
    reduction is stuck with every absence rigorous is not tame.
    """

    ws: WeightSystem
    trace: ReductionTrace
    verified: bool

    def all_rigorous(self) -> bool:
        return (self.verified and self.trace.result == "stuck"
                and stuck_rigorous(self.trace.stuck_reasons))

    def to_json(self) -> dict:
        payload = self.trace.to_json(self.ws)
        payload["automorphism_status"] = "verified" if self.verified else "unverified"
        payload["su_steps"] = su_number(self.trace)
        if self.trace.result == "stuck":
            payload["verdict"] = (
                "stuck with rigorous obstructions; not tame at this weight "
                "(conditional on the tame reduction theorem)"
                if self.all_rigorous() else "no reduction found"
            )
        return payload


# ---------------------------------------------------------------------------
# Floor factorization
# ---------------------------------------------------------------------------


def triangularize_at_floor(ws: WeightSystem, F: Triple) -> list[TameFactor]:
    """Factor a floor-degree automorphism into elementary factors and one
    affine factor (application order: affine first).

    Strips translations, normalizes the linear part, and peels the
    remaining unit-triangular map variable by variable.  At the floor every
    nonlinear tail involves only variables strictly earlier in the
    (weight, index) order, which is what the peel needs; maps that happen
    to be triangular in that order are accepted above the floor too.
    """
    rows = tuple((tuple(f.nums.get(mono, 0) for mono in _AFFINE_MONOS), f.den) for f in F)
    try:
        affine = TameFactor("affine", rows)
    except ValueError:
        raise ValueError("internal inconsistency: singular linear part") from None
    # the inverse affine map applied to F: A^-1 (F - b), linear part the identity
    K = _affine_apply(_inverse_rows(affine.rows), F)

    def key(i):
        return (ws.weights[i], i)

    tails = []
    for i, k_comp in enumerate(K):
        # the tail K_i - x_i is K_i's contents less den * x_i
        nums = dict(k_comp.nums)
        if nums.pop(_AFFINE_MONOS[i + 1], 0) != k_comp.den or any(sum(m) <= 1 for m in nums):
            raise ValueError("internal inconsistency: linear residue after normalization")
        for mono in nums:
            for j, e in enumerate(mono):
                if e and not key(j) < key(i):
                    raise ValueError(
                        "not triangularizable: degree floor violated or tail "
                        "involves a later variable"
                    )
        tails.append(Poly.from_contents(N, nums, k_comp.den))
    factors: list[TameFactor] = [affine]
    for i in sorted(range(N), key=key):
        if not tails[i].is_zero:
            factors.append(TameFactor.elementary(i + 1, tails[i]))
    assert recompose(factors) == tuple(F)
    return factors


def factor_tame(
    ws: WeightSystem,
    F: Endo3,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> tuple[Optional[list[TameFactor]], ReductionTrace]:
    """Full tame factorization via the reduction loop plus the floor step.

    On success the factors recompose exactly to F; a stuck trace is passed
    through with no factors.
    """
    trace = reduce_to_floor(ws, F.components, limits)
    if trace.result != "floor":
        return None, trace
    return trace.factors(ws), trace


def inverse_verified(ws: WeightSystem, trace: ReductionTrace, G: Sequence[Poly]) -> bool:
    """Whether G is the inverse of the trace's origin: on a floor trace, the
    factors recompose to the origin and G is their inverses recomposed (so
    the search need not be trusted); on any other, one composition."""
    if trace.result != "floor":
        return verify_automorphism(trace.origin, G)
    factors = trace.factors(ws)
    return recompose(factors) == trace.origin and tuple(G) == recompose(invert_factors(factors))


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


def random_tame(
    seed: int,
    factor_count: int,
    coefficient_bound: int = 3,
    degree_bound: int = 3,
) -> tuple[Endo3, list[TameFactor]]:
    """Deterministic-from-seed tame automorphism with ground truth.

    Resamples until both the factor list and its inverse list pass
    ``_compose_clamped``, which keeps every prefix composition of total
    degree at most ``_DEGREE_CLAMP`` so downstream searches stay tractable.
    The clamp reads a prefix only just before an elementary factor, and
    only when a degree bound cannot decide the test; every map is built by
    left application (``recompose``), never by substituting a factor into
    the running map.  ``_compose_clamped`` proves that this decides the
    draws that checking every prefix would.  The ground-truth factor list
    and its exact, unchecked inverse ride along.
    """
    if factor_count < 0 or coefficient_bound <= 0 or degree_bound <= 0:
        raise ValueError("bounds must be positive")
    rng = random.Random(seed)
    for _ in range(256):
        factors = [_random_factor(rng, coefficient_bound, degree_bound)
                   for _ in range(factor_count)]
        comps = _compose_clamped(factors)
        if comps is None:
            continue
        inverse = _compose_clamped(invert_factors(factors))
        if inverse is None:
            continue
        return Endo3(comps, inverse), factors
    raise RuntimeError("could not sample a clamped tame composition")


def _compose_clamped(factors: Sequence[TameFactor]) -> Optional[Triple]:
    """``recompose(factors)``, or None when the degree clamp rejects it.

    The clamp: with P = ``recompose(factors[:k])``, an elementary factor k
    whose phi has deg phi * deg P > ``_DEGREE_CLAMP`` rejects the list, and
    so does any prefix P of degree above the clamp.  Appending factor k
    turns each component P_c into P_c(factor k's components), and two
    degree facts bound the result:

    - an affine factor A has an invertible matrix, so it keeps the total
      degree of every component: deg P_c(A) <= deg P_c, and evaluating
      P_c(A) at A^-1 gives back P_c, so the reverse inequality holds too;
    - an elementary factor E adds phi to x_i, so a monomial of degree d
      becomes a polynomial of degree at most d * max(1, deg phi), and
      deg P_c(E) <= deg P * max(1, deg phi).

    By induction from deg(identity) = 1, a prefix can exceed the clamp only
    through an elementary factor that fails the predictive test, so only
    that test is run.  Its top, deg P, is bounded by the degree of the last
    prefix built times max(1, deg phi) over the elementary factors since;
    the prefix itself is built only when that bound cannot pass the test.
    Every map is built by left application (``recompose``), which is exact
    and, composition being associative, equals the prefix composed factor
    by factor.  So the verdicts and maps are those of composing every
    prefix and checking it, with no factor substituted into a running map.
    """
    bound = 1
    for k, factor in enumerate(factors):
        if factor.kind != "elementary":
            continue
        d = factor.phi.total_degree()
        if d * bound > _DEGREE_CLAMP:
            bound = max(f.total_degree() for f in recompose(factors[:k]))
            if d * bound > _DEGREE_CLAMP:
                return None
        bound *= max(1, d)
    return recompose(factors)


def _random_factor(rng: random.Random, cbound: int, dbound: int) -> TameFactor:
    if rng.random() < 0.45:
        while True:
            matrix = [[rng.randint(-cbound, cbound) for _ in range(N)] for _ in range(N)]
            if det(matrix) != 0:
                break
        translation = [rng.randint(-cbound, cbound) for _ in range(N)]
        return TameFactor.affine(matrix, translation)
    index = rng.randint(1, N)
    others = [i for i in range(N) if i != index - 1]
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(1, dbound)
        e_first = rng.randint(0, deg)
        mono = [0] * N
        mono[others[0]] = e_first
        mono[others[1]] = deg - e_first
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-cbound, cbound)
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
    phi = Poly(N, terms)
    if phi.is_zero:
        phi = Poly.variable(others[0], N)
    return TameFactor.elementary(index, phi)


# ---------------------------------------------------------------------------
# The concrete non-tame automorphism
# ---------------------------------------------------------------------------


def nagata_endo() -> Endo3:
    """The classical candidate triple with its exact inverse attached."""
    x1, x2, x3 = (Poly.variable(i, N) for i in range(N))
    t = x1 * x3 + x2**2
    f1 = x1 - (t * x2).scale(2) - t**2 * x3
    f2 = x2 + t * x3
    f3 = x3
    g1 = x1 + (t * x2).scale(2) - t**2 * x3
    g2 = x2 - t * x3
    g3 = x3
    return Endo3((f1, f2, f3), (g1, g2, g3))


def nagata_weight() -> WeightSystem:
    return lex_weight(N)


def certify_nagata() -> ReductionVerdict:
    """The reduction loop on the classical triple at the rank-3 lex weight.

    The stuck trace checks the inverse by one composition (``inverse_verified``)
    and decides every absence by exact degree arithmetic, so the result is a
    rigorous stuck: not tame, conditional only on the reduction theorem.
    """
    ws = nagata_weight()
    F = nagata_endo()
    trace = reduce_to_floor(ws, F.components)
    return ReductionVerdict(ws, trace, inverse_verified(ws, trace, F.inverse))


def certificate_json(cert: ReductionVerdict) -> str:
    """Canonical byte-stable serialization."""
    return json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
