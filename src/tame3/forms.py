"""Exterior differential forms over the polynomial ring.

A grade-l form stores polynomial coefficients on strictly increasing index
tuples (0-based internally).  Wedge products keep exact sign bookkeeping;
grades above the variable count collapse to the zero form rather than
erroring, which keeps the product total.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .algebra import DegreeValue, Poly, WeightSystem, poly_to_text


class DiffForm:
    __slots__ = ("n", "grade", "coeffs")

    def __init__(self, n: int, grade: int, coeffs: Optional[dict] = None):
        if grade < 1:
            raise ValueError("grade must be >= 1")
        self.n = n
        self.grade = grade
        clean: dict = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != grade or any(b <= a for a, b in zip(idx, idx[1:])):
                    raise ValueError(f"index tuple {idx} not strictly increasing of length {grade}")
                if any(i < 0 or i >= n for i in idx):
                    raise ValueError(f"index tuple {idx} out of range")
                if not poly.is_zero:
                    clean[idx] = poly
        self.coeffs = clean

    @staticmethod
    def zero(n: int, grade: int) -> "DiffForm":
        return DiffForm(n, grade)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.n, self.grade, self.coeffs) == (other.n, other.grade, other.coeffs)

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.grade != other.grade or self.n != other.n:
            raise ValueError("grade/arity mismatch in form addition")
        coeffs = dict(self.coeffs)
        for idx, poly in other.coeffs.items():
            s = coeffs.get(idx)
            s = poly if s is None else s + poly
            if s.is_zero:
                coeffs.pop(idx, None)
            else:
                coeffs[idx] = s
        return DiffForm(self.n, self.grade, coeffs)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.n, self.grade, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale_poly(self, f: Poly) -> "DiffForm":
        return DiffForm(self.n, self.grade, {i: f * p for i, p in self.coeffs.items()})

    def __repr__(self) -> str:
        return f"DiffForm({form_to_text(self)!r})"


def differential(f: Poly) -> DiffForm:
    """df = sum of partial derivatives against dx_i."""
    coeffs = {}
    for i in range(f.n):
        d = f.diff(i)
        if not d.is_zero:
            coeffs[(i,)] = d
    return DiffForm(f.n, 1, coeffs)


def _merge_indices(a: tuple, b: tuple) -> Optional[tuple[tuple, int]]:
    """Sorted union with parity sign; None when an index repeats."""
    merged = list(a)
    sign = 1
    for x in b:
        pos = len(merged)
        for k, y in enumerate(merged):
            if x == y:
                return None
            if x < y:
                pos = k
                break
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, x)
    return tuple(merged), sign


def wedge(w1: DiffForm, w2: DiffForm) -> DiffForm:
    """Bilinear graded-anticommutative product with exact signs."""
    if w1.n != w2.n:
        raise ValueError("arity mismatch in wedge")
    n = w1.n
    grade = w1.grade + w2.grade
    if grade > n:
        return DiffForm.zero(n, min(grade, n))
    coeffs: dict = {}
    for i1, p1 in w1.coeffs.items():
        for i2, p2 in w2.coeffs.items():
            merged = _merge_indices(i1, i2)
            if merged is None:
                continue
            idx, sign = merged
            contrib = (p1 * p2).scale(sign)
            s = coeffs.get(idx)
            s = contrib if s is None else s + contrib
            if s.is_zero:
                coeffs.pop(idx, None)
            else:
                coeffs[idx] = s
    return DiffForm(n, grade, coeffs)


def wedge_all(forms: Sequence[DiffForm]) -> DiffForm:
    if not forms:
        raise ValueError("empty wedge")
    acc = forms[0]
    for w in forms[1:]:
        acc = wedge(acc, w)
    return acc


def deg_form(ws: WeightSystem, omega: DiffForm) -> DegreeValue:
    """Weighted degree of a form: max over tuples of deg(coeff * x_{i1}...x_{il})."""
    if omega.is_zero:
        return DegreeValue.bottom()
    best: Optional[DegreeValue] = None
    for idx, poly in omega.coeffs.items():
        shift = DegreeValue((0,) * ws.r)
        for i in idx:
            shift = shift + DegreeValue(ws.weights[i])
        d = ws.deg(poly) + shift
        if best is None or d > best:
            best = d
    return best


def wedge_degree(ws: WeightSystem, p: Poly, q: Poly) -> DegreeValue:
    """deg(dp ^ dq), the wedge term of the SU6 bound and the cancellation floor."""
    return deg_form(ws, wedge(differential(p), differential(q)))


def differentials_wedge(fs: Sequence[Poly]) -> DiffForm:
    return wedge_all([differential(f) for f in fs])


# Integer points at which the Jacobian is tried before any full expansion:
# the origin first (a map with constant nonzero Jacobian, such as any
# automorphism, is decided there), then small points off the coordinate
# hyperplanes, cycled to the arity.
_PROBE_COORDS = ((1, 1, 1), (1, -1, 2), (2, 3, -1), (-3, 1, 4), (5, -2, 3), (-1, 4, -5))


def _jacobian_at(f: Poly, point: Sequence[int]) -> list[int]:
    """The gradient of f's integer contents at an integer point: den * grad f."""
    grad = [0] * f.n
    for mono, c in f.nums.items():
        for i, e in enumerate(mono):
            if e:
                term = c * e
                for j, (p, ej) in enumerate(zip(point, mono)):
                    term *= p ** (ej - (j == i))
                grad[i] += term
    return grad


def _det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small square integer matrix (Laplace)."""
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def algebraically_independent(fs: Sequence[Poly]) -> bool:
    """Jacobian criterion: nonzero df_1 ^ ... ^ df_k iff the family is
    independent.

    The wedge's coefficients are the k x k minors of the Jacobian, so one
    nonzero minor at one integer point proves independence; the points of
    ``_PROBE_COORDS`` (and the origin) are tried on the integer contents
    first, and the full wedge is expanded only when every minor vanishes at
    all of them.  Either way the verdict is exact.
    """
    if not 1 <= len(fs) <= fs[0].n:
        return False
    if any(f.is_zero for f in fs):
        return False
    n, k = fs[0].n, len(fs)
    points = [(0,) * n] + [tuple(c[i % len(c)] for i in range(n)) for c in _PROBE_COORDS]
    minors = list(combinations(range(n), k))
    for point in points:
        jac = [_jacobian_at(f, point) for f in fs]
        if any(_det([[row[j] for j in cols] for row in jac]) for cols in minors):
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
