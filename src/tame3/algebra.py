"""Exact multivariate polynomial arithmetic with weighted gradings.

Coefficients are exact rationals, stored per polynomial as integers over one
common denominator; degrees live in a lexicographically ordered ``Z^r``
extended by a bottom element for the zero polynomial.  Everything here is
immutable by convention: operations return fresh values and never mutate
their inputs, so all types are safe to share across threads.  The only
writes after construction are a Poly's four remembered values, its weighted
degree, its powers, its leading form and its values at the probe points, and
a weight system's degree-vector cache, which the named systems share per
arity: every store puts a correct value in one slot or under one exponent,
probe index or monomial, so a store that two threads repeat does no harm.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence


# ---------------------------------------------------------------------------
# Degree values
# ---------------------------------------------------------------------------


class DegreeValue:
    """Element of lex-ordered Z^r, or Bottom (the degree of 0).

    Bottom compares below every vector and absorbs under addition; every
    order operator raises ValueError on vectors of different rank.
    """

    __slots__ = ("vec",)

    def __init__(self, vec: Optional[Sequence[int]]):
        self.vec = None if vec is None else tuple(int(c) for c in vec)

    @staticmethod
    def bottom() -> "DegreeValue":
        return _BOTTOM

    @staticmethod
    def of(*components: int) -> "DegreeValue":
        return DegreeValue(components)

    @property
    def is_bottom(self) -> bool:
        return self.vec is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreeValue):
            return NotImplemented
        return self.vec == other.vec

    def __lt__(self, other: "DegreeValue") -> bool:
        return _lt(self.vec, other.vec)

    def __le__(self, other: "DegreeValue") -> bool:
        return not _lt(other.vec, self.vec)

    def __gt__(self, other: "DegreeValue") -> bool:
        return _lt(other.vec, self.vec)

    def __ge__(self, other: "DegreeValue") -> bool:
        return not _lt(self.vec, other.vec)

    def __hash__(self) -> int:
        return hash(self.vec)

    def __add__(self, other: "DegreeValue") -> "DegreeValue":
        if self.vec is None or other.vec is None:
            return _BOTTOM
        return _degree(tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other: "DegreeValue") -> "DegreeValue":
        if self.vec is None or other.vec is None:
            return _BOTTOM
        return _degree(tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __rmul__(self, k: int) -> "DegreeValue":
        if self.vec is None:
            return _BOTTOM
        return _degree(tuple(k * c for c in self.vec))

    @property
    def first(self) -> int:
        """First component; used for the lex-leading search cutoffs."""
        if self.vec is None:
            raise ValueError("Bottom has no components")
        return self.vec[0]

    def is_positive(self) -> bool:
        return self.vec is not None and any(self.vec) and self.vec > (0,) * len(self.vec)

    def to_json(self):
        return None if self.vec is None else list(self.vec)

    def __repr__(self) -> str:
        if self.vec is None:
            return "DegreeValue(bottom)"
        return f"DegreeValue{self.vec}"


_BOTTOM = DegreeValue(None)


def _lt(a: Optional[tuple], b: Optional[tuple]) -> bool:
    """a < b on degree vectors, with None (Bottom) below every vector."""
    if a is None or b is None:
        return a is None and b is not None
    if len(a) != len(b):
        raise ValueError("comparing degree vectors of different rank")
    return a < b


def _degree(vec: tuple) -> DegreeValue:
    """The DegreeValue of an int tuple, without converting each component."""
    d = DegreeValue.__new__(DegreeValue)
    d.vec = vec
    return d


ZERO = Fraction(0)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c)!r}")


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class _Terms(Mapping):
    """Read-only monomial -> Fraction view of a Poly; each value is built
    when it is read."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Poly"):
        self._poly = poly

    def __getitem__(self, mono) -> Fraction:
        return Fraction(self._poly.nums[mono], self._poly.den)

    def __contains__(self, mono) -> bool:
        return mono in self._poly.nums

    def __iter__(self):
        return iter(self._poly.nums)

    def __len__(self) -> int:
        return len(self._poly.nums)


class Poly:
    """Sparse multivariate polynomial over Q, stored with integer content.

    ``nums`` maps exponent tuples of length ``n`` to nonzero ints and ``den``
    is one positive int: the coefficient of a monomial m is
    ``nums[m] / den``.  Every operation keeps the pair primitive
    (``gcd(den, *nums.values()) == 1``), so equal polynomials have identical
    fields; the zero polynomial is ``{}`` over 1.  ``terms`` is a read-only
    monomial -> Fraction view.

    A Poly is never mutated after it is built, so it remembers four
    values, none part of ``==`` or ``hash``: its weighted degree under the
    weight system it was last asked about (the ``_deg`` slot, set by
    ``WeightSystem.deg``), its leading form under the weight system it was
    last asked about (the ``_lead`` slot, set by ``WeightSystem.leading_form``),
    the powers ``**`` has built of it (the ``_powers`` slot, a dict from
    exponent k >= 2 to self**k) and its values and gradients at the probe
    points it was read at (the ``_probes`` slot, a dict from k to
    ``at_probe(k)``).
    """

    __slots__ = ("n", "nums", "den", "_deg", "_lead", "_powers", "_probes")

    def __init__(self, n: int, terms: Optional[Mapping] = None):
        self.n = n
        self._deg = None
        self._lead = None
        self._powers = None
        self._probes = None
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                c = _as_fraction(coeff)
                if c == 0:
                    continue
                if len(mono) != n:
                    raise ValueError(f"monomial {mono} has arity {len(mono)}, expected {n}")
                try:
                    mono = tuple(map(operator.index, mono))
                except TypeError:
                    raise ValueError(f"monomial {mono} has a non-integral exponent") from None
                if min(mono, default=0) < 0:
                    raise ValueError(f"monomial {mono} has a negative exponent")
                clean[mono] = c
        # Reduced fractions over their least common denominator are primitive.
        den = 1
        for c in clean.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        self.nums = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self.den = den

    # -- constructors --

    @staticmethod
    def zero(n: int) -> "Poly":
        return _poly(n, {}, 1)

    @staticmethod
    def from_contents(n: int, nums: Mapping, den: int = 1) -> "Poly":
        """The Poly sum of nums[m] x^m / den, for int values (zeros are
        dropped) and a nonzero int den; the common content is divided out."""
        if den < 0:
            den, nums = -den, {m: -c for m, c in nums.items()}
        elif not den:
            raise ZeroDivisionError("zero denominator")
        return _poly(n, {m: c for m, c in nums.items() if c}, den)

    @staticmethod
    def constant(c, n: int) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be exact rationals, got {type(c)!r}")
        return _poly(n, {(0,) * n: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(i: int, n: int) -> "Poly":
        """The variable x_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for {n} variables")
        mono = tuple(1 if j == i else 0 for j in range(n))
        return _poly(n, {mono: 1}, 1)

    # -- coefficients --

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    def coeff(self, mono: tuple) -> Fraction:
        """The coefficient of mono (zero when absent)."""
        return Fraction(self.nums.get(mono, 0), self.den)

    # -- predicates --

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_constant(self) -> bool:
        return all(not any(m) for m in self.nums)

    def constant_term(self) -> Fraction:
        return self.coeff((0,) * self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(self.nums.items())))

    def __bool__(self) -> bool:
        return bool(self.nums)

    # -- ring operations --

    def _check_arity(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def _add_scaled(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        self._check_arity(other)
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        nums = dict(self.nums) if sa == 1 else {m: c * sa for m, c in self.nums.items()}
        sb *= sign
        for m, c in other.nums.items():
            s = nums.get(m, 0) + c * sb
            if s:
                nums[m] = s
            else:
                del nums[m]
        return _poly(self.n, nums, self.den * sa)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add_scaled(other, -1)

    def __neg__(self) -> "Poly":
        return _poly(self.n, {m: -c for m, c in self.nums.items()}, self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_arity(other)
        B = list(other.nums.items())
        acc: dict = {}
        if self.n == 3:
            for (a0, a1, a2), c1 in self.nums.items():
                for (b0, b1, b2), c2 in B:
                    m = (a0 + b0, a1 + b1, a2 + b2)
                    v = acc.get(m)
                    acc[m] = c1 * c2 if v is None else v + c1 * c2
        else:
            for m1, c1 in self.nums.items():
                for m2, c2 in B:
                    m = tuple(a + b for a, b in zip(m1, m2))
                    v = acc.get(m)
                    acc[m] = c1 * c2 if v is None else v + c1 * c2
        return _poly(self.n, {m: v for m, v in acc.items() if v}, self.den * other.den)

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly.zero(self.n)
        k = c.numerator
        return _poly(self.n, {m: k * v for m, v in self.nums.items()}, self.den * c.denominator)

    def __pow__(self, k: int) -> "Poly":
        """self**k; each power is built once, by one multiplication of the
        power below it, and remembered for the life of self."""
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return Poly.constant(1, self.n)
        if k == 1:
            return self
        powers = self._powers
        if powers is None:
            powers = self._powers = {}
        # the exponents present are always 2..len(powers) + 1
        for e in range(len(powers) + 2, k + 1):
            powers[e] = (powers[e - 1] if e > 2 else self) * self
        return powers[k]

    def compose(self, subs: Sequence["Poly"], onto: Optional["Poly"] = None) -> "Poly":
        """Substitute subs[i] for x_{i+1}; exact full expansion, added onto
        the polynomial ``onto`` when one is given.

        Powers of each substituted polynomial come from ``**``, so they are
        built once for the life of that polynomial, and every term is
        scattered into one integer accumulator over a running common
        denominator, which ``onto`` seeds: q + p(subs) is one pass.
        """
        if len(subs) != self.n:
            raise ValueError(f"expected {self.n} substitutions, got {len(subs)}")
        m = subs[0].n if subs else self.n
        for s in subs:
            if s.n != m:
                raise ValueError("substitution polynomials must share arity")
        one = _poly(m, {(0,) * m: 1}, 1)
        # the running sum is acc / (self.den * den)
        acc: dict = {}
        den = 1
        if onto is not None:
            if onto.n != m:
                raise ValueError(f"arity mismatch: {onto.n} vs {m}")
            common = math.lcm(self.den, onto.den)
            den = common // self.den
            lift = common // onto.den
            acc = dict(onto.nums) if lift == 1 else {mm: c * lift for mm, c in onto.nums.items()}
        for mono, coeff in sorted(self.nums.items()):
            prod = one
            for i, e in enumerate(mono):
                if e:
                    prod = subs[i] ** e if prod is one else prod * subs[i] ** e
            if den % prod.den:
                lift = prod.den // math.gcd(den, prod.den)
                den *= lift
                acc = {mm: c * lift for mm, c in acc.items()}
            k = coeff * (den // prod.den)
            for mm, c in prod.nums.items():
                acc[mm] = acc.get(mm, 0) + k * c
        return _poly(m, {mm: c for mm, c in acc.items() if c}, self.den * den)

    def at_probe(self, k: int) -> tuple[int, tuple]:
        """(den * f, den * grad f) at ``probe_points(n)[k]``: the value and
        gradient of the integer contents, in one pass over the terms and
        remembered for the life of self.  A term's value v = c * x^m there
        adds m_i * v / point[i] to entry i, and point[i] divides v when
        m_i > 0, since no probe coordinate is zero."""
        probes = self._probes
        if probes is None:
            probes = self._probes = {}
        hit = probes.get(k)
        if hit is None:
            point = probe_points(self.n)[k]
            value, grad = 0, [0] * self.n
            for mono, c in self.nums.items():
                v = c * math.prod(map(pow, point, mono))
                value += v
                for i, e in enumerate(mono):
                    if e:
                        grad[i] += e * v // point[i]
            hit = probes[k] = (value, tuple(grad))
        return hit

    def total_degree(self) -> int:
        """Max exponent sum; -1 for the zero polynomial."""
        return max(map(sum, self.nums), default=-1)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)!r})"


def _poly(n: int, nums: dict, den: int) -> Poly:
    """The Poly nums / den, for nums without zero values and den > 0; the
    content common to den and nums is divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
    out = Poly.__new__(Poly)
    out.n = n
    out.nums = nums
    out.den = den
    out._deg = None
    out._lead = None
    out._powers = None
    out._probes = None
    return out


# Small integer points off the coordinate hyperplanes, at which a polynomial
# identity is tried on integer contents before anything is expanded: a
# mismatch at any of them refutes the identity exactly.
_PROBE_COORDS = ((1, 1, 1), (1, -1, 2), (2, 3, -1), (-3, 1, 4), (5, -2, 3), (-1, 4, -5))


@lru_cache(maxsize=None)  # one entry per arity
def probe_points(n: int) -> tuple[tuple, ...]:
    """The probe points in n variables, each cycled to the arity."""
    return tuple(tuple(c[i % len(c)] for i in range(n)) for c in _PROBE_COORDS)


def power_sum(p: Poly, coeffs: dict) -> Poly:
    """sum of coeffs[m] * p^m (zero for empty coeffs)."""
    return Poly(1, {(m,): c for m, c in coeffs.items()}).compose([p])


# ---------------------------------------------------------------------------
# Weight systems and weighted degrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSystem:
    """n strictly positive weight vectors in lex-ordered Z^r."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(tuple(int(c) for c in w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise ValueError("empty weight system")
        r = len(ws[0])
        for w in ws:
            if len(w) != r:
                raise ValueError("weight vectors must share rank")
            if not w > (0,) * r:
                raise ValueError(f"weight {w} is not lex-positive")
        object.__setattr__(self, "_vec_cache", {})
        # the sum of the variable weights, the degree floor for automorphisms,
        # and the least variable weight, the least degree of a nonconstant
        # polynomial
        object.__setattr__(self, "total", DegreeValue(tuple(map(sum, zip(*ws)))))
        object.__setattr__(self, "min_weight", DegreeValue(min(ws)))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def r(self) -> int:
        return len(self.weights[0])

    def rank(self) -> int:
        """Rank of the integer lattice spanned by the weight vectors."""
        system = Elimination()
        for w in self.weights:
            system.add((1, [(k, c) for k, c in enumerate(w) if c]))
        return system.rank

    def monomial_vec(self, mono: Sequence[int]) -> tuple:
        """The weighted degree of mono as a plain int tuple (lex-ordered)."""
        if len(mono) != self.n:
            raise ValueError(f"monomial arity {len(mono)} != weight count {self.n}")
        cache = self._vec_cache
        mono = tuple(mono)
        hit = cache.get(mono)
        if hit is not None:
            return hit
        acc = [0] * self.r
        for e, w in zip(mono, self.weights):
            if e:
                for k, c in enumerate(w):
                    acc[k] += e * c
        vec = tuple(acc)
        if len(cache) < 200_000:
            cache[mono] = vec
        return vec

    def term_vecs(self, monos) -> list[tuple]:
        """The degree vectors of the monomials in ``monos`` (the keys of a
        Poly's ``nums``), in order: one cache lookup each when every one is
        cached, else through ``monomial_vec``, which checks arity."""
        try:
            return list(map(self._vec_cache.__getitem__, monos))
        except KeyError:
            return list(map(self.monomial_vec, monos))

    def deg(self, f: Poly) -> DegreeValue:
        """Weighted degree of f; Bottom iff f = 0.

        The maximum is taken over int tuples, and the answer is remembered
        on f under this system's weights, so asking again is one lookup."""
        w = self.weights
        memo = f._deg
        if memo is not None and (memo[0] is w or memo[0] == w):
            return memo[1]
        if f.n != len(w):
            raise ValueError(f"polynomial arity {f.n} != weight count {len(w)}")
        nums = f.nums
        if not nums:
            d = _BOTTOM
        else:
            d = _degree(max(self.term_vecs(nums)))
        f._deg = (w, d)
        return d

    def leading_form(self, f: Poly) -> Poly:
        """Sum of the terms of top weighted degree; rejects f = 0.

        The form is remembered on f under this system's weights, as ``deg``
        remembers the degree, so asking again returns the same Poly, with
        every power already built of it.  A form that is all of f is f
        itself, remembered as None so that f never refers to itself."""
        w = self.weights
        memo = f._lead
        if memo is not None and (memo[0] is w or memo[0] == w):
            return f if memo[1] is None else memo[1]
        if f.is_zero:
            raise ValueError("the zero polynomial has no leading form")
        d = self.deg(f)
        nums = {m: c for (m, c), v in zip(f.nums.items(), self.term_vecs(f.nums))
                if v == d.vec}
        if len(nums) == len(f.nums):
            f._lead = (w, None)
            return f
        out = _poly(f.n, nums, f.den)
        out._deg = (w, d)
        out._lead = (w, None)
        f._lead = (w, out)
        return out

    def is_homogeneous(self, f: Poly) -> bool:
        if f.is_zero:
            return True
        return len(set(map(self.monomial_vec, f.nums))) == 1

    def deg_endo(self, components: Sequence[Poly]) -> DegreeValue:
        """The sum of the components' degrees; Bottom if one is zero."""
        vecs = [self.deg(f).vec for f in components]
        if None in vecs:
            return _BOTTOM
        return _degree(tuple(map(sum, zip(*vecs))) if vecs else (0,) * self.r)

    def describe(self) -> dict:
        return {"r": self.r, "vectors": [list(w) for w in self.weights]}


@lru_cache(maxsize=None)  # one shared system per arity
def total_weight(n: int) -> WeightSystem:
    """w = (1,...,1) on Z: weighted degree equals total degree.  Each arity
    gets one shared instance, so its degree-vector cache stays warm."""
    return WeightSystem(tuple((1,) for _ in range(n)))


@lru_cache(maxsize=None)  # one shared system per arity
def lex_weight(n: int) -> WeightSystem:
    """w = (e_1,...,e_n) on lex Z^n (maximal rank); one shared instance per arity."""
    return WeightSystem(tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))


# ---------------------------------------------------------------------------
# Integer-lattice helpers on degree values
# ---------------------------------------------------------------------------


def _first_minor(a: Sequence[int], b: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """(i, j, det) of the first nonzero 2x2 minor of the rows a, b, else None."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            det = a[i] * b[j] - a[j] * b[i]
            if det:
                return i, j, det
    return None


def z_independent(d1: DegreeValue, d2: DegreeValue) -> bool:
    """True iff no nonzero integer pair (m1, m2) has m1*d1 == m2*d2.

    Decided by 2x2 minors: the vectors are dependent over Z exactly when
    they are parallel over Q (or one is zero).
    """
    if d1.is_bottom or d2.is_bottom:
        raise ValueError("z_independent requires vector degrees")
    return _first_minor(d1.vec, d2.vec) is not None


def parallel_multipliers(base: Sequence[int], *vecs: Sequence[int]) -> tuple:
    """Integers m with v == m * e for v in (base, *vecs), where e is the
    lex-positive primitive direction of the nonzero vector base; None for a
    vector off that line.  base's own multiplier comes first."""
    g = 0
    for c in base:
        g = math.gcd(g, abs(c))
    if not g:
        raise ValueError("the zero vector has no direction")
    e = tuple(c // g for c in base)
    if e < (0,) * len(e):
        e = tuple(-c for c in e)
    k = next(i for i, d in enumerate(e) if d)
    out = []
    for vec in (base, *vecs):
        m = vec[k] // e[k]
        out.append(m if all(v == m * d for v, d in zip(vec, e)) else None)
    return tuple(out)


def all_semigroup_pairs(
    d: DegreeValue, d1: DegreeValue, d2: DegreeValue
) -> list[tuple[int, int]]:
    """Every (p, q) >= 0 with p*d1 + q*d2 == d, in ascending p (finite for
    positive d1, d2); ValueError past 4000 candidate values of p.

    Solved exactly: Cramer's rule on the first nonzero 2x2 minor when d1, d2
    span a plane (at most one solution), else a one-dimensional coin problem
    along their common primitive direction.
    """
    if d.is_bottom or d1.is_bottom or d2.is_bottom:
        raise ValueError("requires vector degrees")
    a, b, t = d1.vec, d2.vec, d.vec
    minor = _first_minor(a, b)
    if minor is not None:
        i, j, det = minor
        p, p_rem = divmod(t[i] * b[j] - t[j] * b[i], det)
        q, q_rem = divmod(a[i] * t[j] - a[j] * t[i], det)
        if p_rem or q_rem or p < 0 or q < 0:
            return []
        if any(p * x + q * y != z for x, y, z in zip(a, b, t)):
            return []
        return [(p, q)]
    ma, mb, mt = parallel_multipliers(a, b, t)
    if mb is None or mt is None or ma <= 0 or mb <= 0 or mt < 0:
        return []
    if mt // ma > 4000:
        raise ValueError(f"semigroup enumeration exceeds guard ({mt // ma} > 4000)")
    return [(p, (mt - p * ma) // mb) for p in range(mt // ma + 1) if (mt - p * ma) % mb == 0]


def cancellation_window(
    d: DegreeValue, d1: DegreeValue, d2: DegreeValue, wedge: DegreeValue, p: int, q: int
) -> Optional[list[tuple[int, int]]]:
    """The pairs (i, j) with i*d1 + j*d2 > d that a representation phi over
    f, g with deg phi(f, g) == d can use, by the generalized SU inequality;
    None when it bounds nothing: floor.first <= 0, or f, g dependent.

    Here deg f = d1 and deg g = d2 are positive with q*d1 == p*d2 for
    coprime p, q (the leading forms are power-proportional), and wedge =
    deg(df ^ dg).  Let I and J be phi's largest f- and g-exponents.  On
    Phi = sum_j (sum_i c_ij f^i) y^j at g, Kuroda's inequality (arXiv
    0801.0117) gives degS phi <= d + m*K, with K = d1 + d2 - wedge and m
    the multiplicity of g^w in Phi's leading part.  That part is a
    polynomial in y^p and (f^w)^q times a monomial, and g^w is a simple
    root of y^p - a*(f^w)^q, so the integer m is at most J/p and at most
    I/q.  With J*d2 and I*d1 at most degS phi, this gives J*floor <= p*d and
    I*floor <= q*d for the cancellation floor q*d1 + wedge - d1 - d2.  So
    when floor.first > 0, every pair lies in the window: i <= Imax,
    j <= Jmax and d < i*d1 + j*d2 <= d + min(Jmax // p, Imax // q)*K.  The
    pairs are listed by level i + j, then by i.
    """
    if wedge.is_bottom:  # dependent f, g: the inequality does not apply
        return None
    floor = q * d1 + wedge - d1 - d2
    if floor.first <= 0:
        return None
    imax, jmax = q * d.first // floor.first, p * d.first // floor.first
    top = (d + min(jmax // p, imax // q) * (d1 + d2 - wedge)).vec
    pairs = []
    for i in range(imax + 1):
        for j in range(jmax + 1):
            dd = tuple(i * a + j * b for a, b in zip(d1.vec, d2.vec))
            if dd > top:  # i*d1 + j*d2 grows with j
                break
            if dd > d.vec:
                pairs.append((i, j))
    return sorted(pairs, key=lambda pair: (pair[0] + pair[1], pair[0]))


def level_box(
    d: DegreeValue, d1: DegreeValue, d2: DegreeValue, top: int, levels: int
) -> tuple[list[tuple[int, int]], int]:
    """The pairs (i, j) with i, j <= top and i*d1 + j*d2 > d, with first
    component at most d.first + 4*max(d1.first, d2.first), from the first
    `levels` nonempty levels i + j; and the number of levels they fill.

    The box a widened search solves over where ``cancellation_window``
    bounds nothing; its pairs are listed as the window's, by level, then
    by i.
    """
    first_cap = d.first + 4 * max(d1.first, d2.first)
    pairs: list[tuple[int, int]] = []
    filled = 0
    for level in range(2 * top + 1):
        if filled == levels:
            break
        width = len(pairs)
        for i in range(max(0, level - top), min(level, top) + 1):
            dd = tuple(i * a + (level - i) * b for a, b in zip(d1.vec, d2.vec))
            if dd > d.vec and dd[0] <= first_cap:
                pairs.append((i, level - i))
        filled += len(pairs) > width
    return pairs, filled


def half(d: DegreeValue) -> Optional[DegreeValue]:
    """d/2 when every component is even, else None; no rational degrees."""
    if d.is_bottom:
        raise ValueError("half requires a vector degree")
    if any(c % 2 for c in d.vec):
        return None
    return DegreeValue(tuple(c // 2 for c in d.vec))


def exists_multiple_exceeding(base: DegreeValue, bound: DegreeValue) -> bool:
    """Whether l*base > bound for some positive integer l (base lex-positive)."""
    if base.is_bottom or bound.is_bottom:
        raise ValueError("requires vector degrees")
    if not base.is_positive():
        raise ValueError("base must be positive")
    a = next(i for i, c in enumerate(base.vec) if c)
    for k in range(a):
        if bound.vec[k]:
            return bound.vec[k] < 0
    return True  # l*base[a] eventually exceeds bound[a]


@dataclass(frozen=True)
class ScaledPair:
    """Coprime positive (p, q) witnessing a power-proportionality of forms."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0 or math.gcd(self.p, self.q) != 1:
            raise ValueError(f"({self.p}, {self.q}) is not a coprime positive pair")


# ---------------------------------------------------------------------------
# Text grammar: parsing and canonical printing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[\^*+-]))"
)


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_poly(text: str, n: int) -> Poly:
    """Parse the flat polynomial grammar: terms of rationals and x-powers.

    Terms are joined by ``+``/``-``; a term is an optional rational
    coefficient and ``*``-separated powers ``xk^e`` (the ``*`` between the
    coefficient and the first power may be omitted).  Whitespace is
    insignificant.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        for kind in ("number", "var", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start()))
                break
    if not tokens:
        raise PolyParseError("empty polynomial", 0)

    terms: dict[tuple, Fraction] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
            first = False
        if i >= len(tokens):
            raise PolyParseError("dangling sign", tokens[-1][2])
        if not first and sign == 1 and tokens[i - 1][1] not in "+-":
            raise PolyParseError("missing operator between terms", tokens[i][2])
        coeff = Fraction(sign)
        mono = [0] * n
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, val, at = tokens[i]
            if kind == "number" and expect_factor:
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise PolyParseError("zero denominator", at) from None
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "var" and expect_factor:
                idx = int(val[1:]) - 1
                if not 0 <= idx < n:
                    raise PolyParseError(f"variable {val} out of range (n={n})", at)
                exp = 1
                i += 1
                if i < len(tokens) and tokens[i] == ("op", "^", tokens[i][2]):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "number" or "/" in tokens[i][1]:
                        raise PolyParseError("expected integer exponent after ^", at)
                    exp = int(tokens[i][1])
                    i += 1
                mono[idx] += exp
                saw_factor = True
                expect_factor = False
            elif kind == "op" and val == "*" and not expect_factor:
                expect_factor = True
                i += 1
            elif kind == "var" and not expect_factor:
                # juxtaposition after a coefficient: allow "2x1" style input
                expect_factor = True
            else:
                break
        if not saw_factor:
            raise PolyParseError("empty term", tokens[i][2] if i < len(tokens) else len(text))
        if expect_factor and saw_factor and i < len(tokens):
            raise PolyParseError("dangling '*'", tokens[i][2])
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + coeff
        first = False
    return Poly(n, terms)


def poly_to_text(f: Poly) -> str:
    """Canonical printer: terms in descending lex monomial order."""
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for mono in sorted(f.nums, reverse=True):
        c = f.coeff(mono)
        powers = []
        for i, e in enumerate(mono):
            if e == 1:
                powers.append(f"x{i + 1}")
            elif e > 1:
                powers.append(f"x{i + 1}^{e}")
        mag = abs(c)
        if not powers:
            body = str(mag)
        elif mag == 1:
            body = "*".join(powers)
        else:
            body = "*".join([str(mag)] + powers)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Exact linear algebra over Q (used by the membership searches)
# ---------------------------------------------------------------------------


class Elimination:
    """Fraction-free elimination of a sparse linear system, column by column.

    The system asks for x with sum_k x_k * column_k == target.  The target
    and each column are ``(den, contents)``, as for ``solve_contents``:
    ``contents`` maps (or lists pairs from) a row key, any hashable and
    totally ordered key, to a nonzero int, over a positive int ``den``.

    Each added column is reduced against the pivots so far.  When something
    is left, the column is independent of the columns before it, and the
    remainder becomes a pivot on its largest key: it is stored primitive with
    a positive lead, beside the integer combination of the original columns
    it equals, so every step is an int operation.  A pivot's keys are at most
    its own key, so one pass over the pivots in descending key order cancels
    them all.  The pivot columns are the columns independent of the columns
    before them, and ``solution`` is the target's unique representation on
    them, with 0 for every other column; row elimination with free unknowns
    set to 0 gives the same answer.  Each ``contents`` reduces the target
    against every pivot, so it answers for the columns added so far.
    """

    __slots__ = ("_target", "_dens", "_pivots", "_keys")

    def __init__(self, target=(1, ())):
        den, contents = target
        self._target = (den, dict(contents))
        self._dens: list[int] = []
        self._pivots: dict = {}  # key -> (vec, combo)
        self._keys: list = []  # pivot keys, ascending

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, column) -> None:
        """Append the next column."""
        den, contents = column
        k = len(self._dens)
        self._dens.append(den)
        vec, combo = self._reduce(dict(contents), {k: 1})
        if not vec:
            return
        lead = max(vec)
        g = math.gcd(*vec.values(), *combo.values())
        if vec[lead] < 0:
            g = -g
        if g != 1:
            vec = {k: v // g for k, v in vec.items()}
            combo = {k: v // g for k, v in combo.items()}
        self._pivots[lead] = (vec, combo)
        bisect.insort(self._keys, lead)

    def contents(self) -> Optional[tuple[int, dict]]:
        """x over the columns added so far as integer contents, (den,
        {k: int}) with x_k = nums[k] / den (absent k: 0) and den nonzero,
        or None when the target is not in their span."""
        den, contents = self._target
        # vec == combo[-1] * target + sum_k combo[k] * column_k, on contents
        vec, combo = self._reduce(dict(contents), {-1: 1})  # a copy: _reduce edits it
        if vec:
            return None
        # on contents, x_k * column_k / den_k sums to target / den
        dens = self._dens
        return -combo[-1] * den, {k: c * dens[k] for k, c in combo.items() if k >= 0}

    def solution(self) -> Optional[list[Fraction]]:
        """``contents`` as one Fraction per column."""
        out = self.contents()
        if out is None:
            return None
        den, nums = out
        return [Fraction(nums.get(k, 0), den) for k in range(len(self._dens))]

    def _reduce(self, vec: dict, combo: dict) -> tuple[dict, dict]:
        """Cancel every pivot from vec, in descending key order; combo follows."""
        pivots = self._pivots
        for key in reversed(self._keys):
            factor = vec.get(key)
            if factor is None:
                continue
            pvec, pcombo = pivots[key]
            # vec <- a*vec - b*pvec, a/b = lead/factor in lowest terms
            p = pvec[key]
            g = math.gcd(p, factor)
            a, b = p // g, factor // g
            if a != 1:
                vec = {k: a * v for k, v in vec.items()}
                combo = {k: a * v for k, v in combo.items()}
            for part, prow in ((vec, pvec), (combo, pcombo)):
                for k, v in prow.items():
                    nv = part.get(k, 0) - b * v
                    if nv:
                        part[k] = nv
                    else:
                        del part[k]
        return vec, combo


def solve_sparse_int(rows, ncols: int) -> Optional[list[Fraction]]:
    """Exact solve of a sparse integer system; free unknowns get 0.

    ``rows`` is an iterable of ``(coeffs, rhs)``: ``coeffs`` maps unknown
    index to a nonzero int and ``rhs`` is an int.  The rows are read once
    into columns keyed by row number, which one ``Elimination`` solves.
    """
    columns: list[dict] = [{} for _ in range(ncols)]
    target = {}
    for r, (coeffs, rhs) in enumerate(rows):
        for k, c in coeffs.items():
            columns[k][r] = c
        if rhs:
            target[r] = rhs
    system = Elimination((1, target))
    for column in columns:
        system.add((1, column))
    return system.solution()


def solve_contents(target, columns) -> Optional[list[Fraction]]:
    """Exact x with sum_k x_k * columns[k] == target, or None; free unknowns
    get 0.

    Each argument is ``(den, contents)`` with ``contents`` an iterable of
    ``(monomial, int)`` pairs, standing for the sum of c * x^m / den,
    solved by one ``Elimination`` with one row per monomial.
    """
    system = Elimination(target)
    for column in columns:
        system.add(column)
    return system.solution()


def sqrt_up_to_scalar(p: Poly) -> Optional[tuple[Fraction, Poly]]:
    """(c, u) with p = c * u^2 and u having leading coefficient 1, or None;
    u is peeled term by term from the lex-leading monomial of p / c."""
    if p.is_zero:
        return (ZERO, Poly.zero(p.n))
    lead = max(p.nums)
    if any(e % 2 for e in lead):
        return None
    c = p.coeff(lead)
    p = p.scale(1 / c)
    root = tuple(e // 2 for e in lead)
    u = Poly(p.n, {root: 1})
    # Peel: each step determines the next-highest term of the root.
    for _ in range(2 * len(p.nums) + 2):
        r = p - u * u
        if r.is_zero:
            return (c, u)
        mr = max(r.nums)
        # the next term t satisfies 2 * (leading term of u) * t = leading of r
        half_mono = tuple(a - b for a, b in zip(mr, root))
        if any(e < 0 for e in half_mono) or half_mono >= root:
            return None
        u = u + Poly(p.n, {half_mono: r.coeff(mr) / 2})
    return None


def proportionality(h1: Poly, h2: Poly) -> Optional[Fraction]:
    """Scalar t with h1 == t*h2, or None.  Zero inputs rejected."""
    if h1.is_zero or h2.is_zero:
        raise ValueError("proportionality requires nonzero polynomials")
    if h1.nums.keys() != h2.nums.keys():
        return None
    items = iter(h1.nums.items())
    m0, a0 = next(items)
    b0 = h2.nums[m0]
    for m, a in items:
        if a * b0 != a0 * h2.nums[m]:
            return None
    return Fraction(a0 * h2.den, b0 * h1.den)
