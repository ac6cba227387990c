"""Exterior differential forms over the polynomial ring.

A form is stored the way a Poly is, as integer contents over one positive
denominator, with each term keyed in logarithmic coordinates: c * x^a dx_I
(I strictly increasing, 0-based) is c * x^M * prod_{i in I} dx_i / x_i for
M = a + e_I, and is stored under (M, I).  So a differential scales contents
by exponents, a wedge adds keys and multiplies contents, and a form's
weighted degree is the max of deg x^M over its keys, because
deg(x^(M - e_I) dx_I) = deg x^M.  Grades above the variable count collapse
to the zero form rather than erroring, which keeps the product total.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .algebra import DegreeValue, Poly, WeightSystem, poly_to_text, probe_points


class DiffForm:
    """A grade-l form on n variables over Q: the sum of contents[(M, I)] /
    denom * x^(M - e_I) dx_I, for nonzero int contents and one positive int
    denom, kept primitive so that equal forms have identical fields (zero is
    ``{}`` over 1).  ``coeffs`` is a read-only {I: Poly} view, built when it
    is read.  Like a Poly, a form is never mutated, so it can be shared.
    """

    __slots__ = ("n", "grade", "contents", "denom")

    def __init__(self, n: int, grade: int, coeffs: Optional[Mapping] = None):
        if grade < 1:
            raise ValueError("grade must be >= 1")
        coeffs = {tuple(idx): poly for idx, poly in (coeffs or {}).items()}
        for idx, poly in coeffs.items():
            if len(idx) != grade or any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} not strictly increasing of length {grade}")
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            if poly.n != n:
                raise ValueError(f"coefficient of {idx} has arity {poly.n}, expected {n}")
        # primitive contents stay primitive over their least common denominator
        self.n, self.grade, self.denom = n, grade, math.lcm(*(p.den for p in coeffs.values()))
        self.contents = {(_shift(m, idx, 1), idx): c * (self.denom // poly.den)
                         for idx, poly in coeffs.items() for m, c in poly.nums.items()}

    @staticmethod
    def zero(n: int, grade: int) -> "DiffForm":
        return _form(n, grade, {}, 1)

    @property
    def coeffs(self) -> Mapping:
        nums: dict = {}
        for (m, idx), c in self.contents.items():
            nums.setdefault(idx, {})[_shift(m, idx, -1)] = c
        return MappingProxyType({idx: Poly.from_contents(self.n, part, self.denom)
                                 for idx, part in nums.items()})

    @property
    def is_zero(self) -> bool:
        return not self.contents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return ((self.n, self.grade, self.denom, self.contents)
                == (other.n, other.grade, other.denom, other.contents))

    def __repr__(self) -> str:
        return f"DiffForm({form_to_text(self)!r})"


def _shift(m: tuple, idx: tuple, step: int) -> tuple:
    """The exponent tuple m + step * e_idx."""
    return tuple(e + step if i in idx else e for i, e in enumerate(m))


def _form(n: int, grade: int, contents: dict, denom: int) -> DiffForm:
    """The form contents / denom, for contents without zero values and
    denom > 0; the content common to denom and contents is divided out."""
    if denom != 1:
        g = math.gcd(denom, *contents.values())
        if g != 1:
            denom //= g
            contents = {k: c // g for k, c in contents.items()}
    out = DiffForm.__new__(DiffForm)
    out.n, out.grade, out.contents, out.denom = n, grade, contents, denom
    return out


def differential(f: Poly) -> DiffForm:
    """df = sum of partial derivatives against dx_i: the term c * x^m gives
    m_i * c under the key (m, (i,))."""
    contents = {(m, (i,)): c * e for m, c in f.nums.items() for i, e in enumerate(m) if e}
    return _form(f.n, 1, contents, f.den)


@lru_cache(maxsize=None)  # one entry per pair of index tuples: at most 4^n
def _merge_indices(a: tuple, b: tuple) -> Optional[tuple[tuple, int]]:
    """Sorted union of two sorted index tuples with its shuffle sign,
    (-1)^#{(x, y) in a x b: x > y}; None when an index repeats."""
    if set(a) & set(b):
        return None
    return tuple(sorted(a + b)), (-1) ** sum(x > y for x in a for y in b)


def wedge(w1: DiffForm, w2: DiffForm) -> DiffForm:
    """Bilinear graded-anticommutative product with exact signs: one pass
    over term pairs, adding keys and multiplying contents."""
    if w1.n != w2.n:
        raise ValueError("arity mismatch in wedge")
    n = w1.n
    grade = w1.grade + w2.grade
    if grade > n:
        return DiffForm.zero(n, min(grade, n))
    terms2 = list(w2.contents.items())
    acc: dict = {}
    for (m1, i1), c1 in w1.contents.items():
        for (m2, i2), c2 in terms2:
            merged = _merge_indices(i1, i2)
            if merged is not None:
                idx, sign = merged
                k = (tuple(map(add, m1, m2)), idx)
                acc[k] = acc.get(k, 0) + sign * c1 * c2
    return _form(n, grade, {k: v for k, v in acc.items() if v}, w1.denom * w2.denom)


def wedge_all(forms: Sequence[DiffForm]) -> DiffForm:
    if not forms:
        raise ValueError("empty wedge")
    acc = forms[0]
    for w in forms[1:]:
        acc = wedge(acc, w)
    return acc


def deg_form(ws: WeightSystem, omega: DiffForm) -> DegreeValue:
    """Weighted degree of a form: the max of deg x^M over its keys (M, I),
    since deg(x^(M - e_I) dx_I) = deg x^M."""
    if omega.is_zero:
        return DegreeValue.bottom()
    if omega.n != ws.n:
        raise ValueError(f"form arity {omega.n} != weight count {ws.n}")
    return DegreeValue(max(ws.term_vecs([m for m, _ in omega.contents])))


def wedge_degree(ws: WeightSystem, p: Poly, q: Poly) -> DegreeValue:
    """deg(dp ^ dq), the wedge term of the SU6 bound and the cancellation floor."""
    return deg_form(ws, wedge(differential(p), differential(q)))


def differentials_wedge(fs: Sequence[Poly]) -> DiffForm:
    return wedge_all([differential(f) for f in fs])


def _det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small square integer matrix: closed form up to
    3 x 3, Laplace along the first row above that."""
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def _has_nonzero_minor(rows: Sequence[Sequence[int]]) -> bool:
    """Whether some k x k minor of the k x n integer matrix ``rows`` is
    nonzero."""
    k, n = len(rows), len(rows[0])
    if k == n:
        return _det(rows) != 0
    return any(_det([[row[j] for j in cols] for row in rows])
               for cols in combinations(range(n), k))


@lru_cache(maxsize=None)  # one entry per arity
def _units(n: int) -> tuple[tuple, ...]:
    """The exponent tuples of x_1, ..., x_n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def algebraically_independent(fs: Sequence[Poly]) -> bool:
    """Jacobian criterion: nonzero df_1 ^ ... ^ df_k iff the family is
    independent.

    The wedge's coefficients are the k x k minors of the Jacobian, so one
    nonzero minor at one integer point proves independence.  The Jacobian
    is tried on the integer contents first: at the origin, where it is the
    contents of the linear terms (so a map with constant nonzero Jacobian,
    such as any automorphism, is decided by coefficient lookups), then at
    each of the ``probe_points``, where each row is the gradient that
    ``Poly.at_probe`` remembers.  The full wedge is expanded only when every
    minor vanishes at all of them.  Either way the verdict is exact.
    """
    if not 1 <= len(fs) <= fs[0].n:
        return False
    if any(f.is_zero for f in fs):
        return False
    if _has_nonzero_minor([[f.nums.get(u, 0) for u in _units(f.n)] for f in fs]):
        return True
    for k in range(len(probe_points(fs[0].n))):
        if _has_nonzero_minor([f.at_probe(k)[1] for f in fs]):
            return True
    return not differentials_wedge(fs).is_zero


def jacobian_det(fs: Sequence[Poly]) -> Poly:
    """Determinant of the full Jacobian, via the top wedge."""
    n = fs[0].n
    if len(fs) != n:
        raise ValueError("jacobian_det needs n polynomials")
    top = differentials_wedge(fs)
    if top.is_zero:
        return Poly.zero(n)
    return top.coeffs[tuple(range(n))]


def max_complement_attained_twice(ws: WeightSystem, etas: Sequence[DiffForm]) -> bool:
    """Whether the maximum of deg(eta_i) + deg(complement wedge) over the
    family is attained at two or more indices; a checkable predicate, not a
    constructive search for the indices."""
    if len(etas) < 2:
        raise ValueError("need at least two forms")
    values = []
    for i in range(len(etas)):
        tilde = wedge_all([etas[j] for j in range(len(etas)) if j != i])
        values.append(deg_form(ws, etas[i]) + deg_form(ws, tilde))
    top = max(values)
    return sum(1 for v in values if v == top) >= 2


def form_to_text(omega: DiffForm) -> str:
    """Debug printer: `poly * dx_{i1}^...^dx_{il}` terms joined by ` + `."""
    if omega.is_zero:
        return "0"
    parts = []
    for idx in sorted(omega.coeffs):
        dxs = "^".join(f"dx{i + 1}" for i in idx)
        parts.append(f"({poly_to_text(omega.coeffs[idx])}) * {dxs}")
    return " + ".join(parts)
