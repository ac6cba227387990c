"""Polynomials in one variable over the ring, analyzed at a substitution point.

The degree functional here measures a polynomial Phi = sum phi_i y^i through
the degrees of phi_i * g^i rather than through the value Phi(g); the gap
between the two is what the inequality oracle quantifies.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import DegreeValue, Poly, WeightSystem, add_product
from .forms import deg_form, differential, differentials_wedge, wedge


class AuxPoly:
    """Nonzero map i -> coefficient polynomial (of y^i); zero coeffs dropped.

    Every y-exponent is a nonnegative int (read with ``operator.index``)
    and every coefficient has arity n; anything else raises ValueError."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        self.coeffs = {}
        for i, p in coeffs.items():
            try:
                i = operator.index(i)
            except TypeError:
                raise ValueError(f"y-exponent {i!r} is not an integer") from None
            if i < 0:
                raise ValueError("negative y-exponent")
            if p.n != n:
                raise ValueError(f"coefficient of y^{i} has arity {p.n}, expected {n}")
            if not p.is_zero:
                self.coeffs[i] = p

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, g: Poly, k: int = 0) -> Poly:
        """Phi^(k)(g), the k-th y-derivative at y = g, exact: the sum over
        i >= k of i!/(i-k)! * phi_i * g^(i-k), each product scattered term
        pair by term pair into one integer accumulator over the common
        denominator, with its falling factorial in the multiplier."""
        if g.n != self.n:
            raise ValueError(f"arity mismatch: {self.n} vs {g.n}")
        parts = [(math.perm(i, k), p, g ** (i - k)) for i, p in self.coeffs.items() if i >= k]
        den = math.lcm(*(p.den * q.den for _, p, q in parts))
        acc: dict = {}
        for c, p, q in parts:
            add_product(acc, p, q, c * (den // (p.den * q.den)))
        return Poly.from_contents(self.n, acc, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuxPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs


def _aux_vecs(ws: WeightSystem, phi: AuxPoly, g: Poly) -> list[tuple[int, tuple]]:
    """(i, deg phi_i + i * deg g) for every stored i, degrees as int tuples."""
    dg = ws.deg(g).vec
    return [(i, tuple([a + i * b for a, b in zip(ws.deg(p).vec, dg)]))
            for i, p in phi.coeffs.items()]


def aux_degree(ws: WeightSystem, phi: AuxPoly, g: Poly) -> DegreeValue:
    """Max over i of deg(phi_i * g^i)."""
    if phi.is_zero or g.is_zero:
        raise ValueError("aux_degree requires nonzero inputs")
    return DegreeValue(max(v for _, v in _aux_vecs(ws, phi, g)))


def aux_leading(ws: WeightSystem, phi: AuxPoly, g: Poly) -> AuxPoly:
    """Coefficients achieving the max, replaced by their leading forms."""
    if phi.is_zero or g.is_zero:
        raise ValueError("aux_leading requires nonzero inputs")
    vecs = _aux_vecs(ws, phi, g)
    top = max(v for _, v in vecs)
    return AuxPoly(phi.n, {i: ws.leading_form(phi.coeffs[i]) for i, v in vecs if v == top})


def aux_multiplicity(ws: WeightSystem, phi: AuxPoly, g: Poly,
                     deg: Optional[DegreeValue] = None) -> int:
    """Minimal k with aux_degree(Phi^(k)) == deg(Phi^(k)(g)).

    ``deg`` is deg(Phi(g)) when the caller has it already.  The auxiliary
    degree of Phi^(k) is the max over i >= k of deg phi_i + (i - k) deg g,
    read off Phi's own coefficients.  Terminates at k <= y-degree of Phi:
    the top derivative is y-free.
    """
    if phi.is_zero or g.is_zero:
        raise ValueError("aux_multiplicity requires nonzero inputs")
    dg = ws.deg(g).vec
    vecs = _aux_vecs(ws, phi, g)
    for k in range(max(phi.coeffs) + 1):
        value = deg if k == 0 and deg is not None else ws.deg(phi.evaluate(g, k))
        top = max(v for i, v in vecs if i >= k)
        if value.vec == tuple([a - k * b for a, b in zip(top, dg)]):
            return k
    raise AssertionError("multiplicity loop passed the y-degree")


def multiplicity_by_roots(ws: WeightSystem, phi: AuxPoly, g: Poly) -> int:
    """Independent oracle: order of g^w as a root of the leading part.

    Counts how many y-derivatives of Phi^{w,g} vanish at g^w before the
    first nonzero value.
    """
    if phi.is_zero or g.is_zero:
        raise ValueError("requires nonzero inputs")
    lead = aux_leading(ws, phi, g)
    gw = ws.leading_form(g)
    for k in range(max(lead.coeffs) + 1):
        if not lead.evaluate(gw, k).is_zero:
            return k
    raise AssertionError("leading part vanished identically at every order")


class BiPoly:
    """Finite Q-combination of products f^i g^j over an ordered generator pair.

    The combination is one ``Poly`` in two variables, the exponent of x1
    counting f and of x2 counting g, so it is integer contents over one
    denominator, like every exact layer: substituting the pair is
    ``Poly.compose``, negating is ``-poly``, and ``coeffs`` is the
    read-only (i, j) -> Fraction view that JSON and the condition checkers
    read.
    """

    __slots__ = ("gens", "poly")

    def __init__(self, gens: tuple[Poly, Poly], poly: Poly):
        self.gens = gens
        self.poly = poly

    @property
    def coeffs(self) -> Mapping:
        return self.poly.terms

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def at(self, pair: Sequence[Poly], onto: Optional[Poly] = None) -> Poly:
        """The representation with pair substituted for its generators,
        added onto ``onto`` when one is given (one pass, as in
        ``Poly.compose``)."""
        return self.poly.compose(pair, onto)

    def value(self) -> Poly:
        return self.at(self.gens)

    def on_variables(self, j: int, k: int, n: int) -> Poly:
        """``at`` on (x_{j+1}, x_{k+1}) of n variables, j != k: each pair
        (i, l) becomes the monomial with exponent i at j and l at k."""
        nums = {}
        for (a, b), c in self.poly.nums.items():
            mono = [0] * n
            mono[j], mono[k] = a, b
            nums[tuple(mono)] = c
        return Poly.from_contents(n, nums, self.poly.den)

    def negate(self) -> "BiPoly":
        return BiPoly(self.gens, -self.poly)

    def to_json(self) -> dict:
        coeffs = self.coeffs
        return {"pairs": [{"i": i, "j": j, "c": str(coeffs[i, j])} for i, j in sorted(coeffs)]}

    def __repr__(self) -> str:
        return f"BiPoly({sorted(self.coeffs.items())!r})"


def degS(ws: WeightSystem, phi: BiPoly) -> DegreeValue:
    """Representation-level degree: max of deg f^i g^j over stored pairs."""
    if phi.is_zero:
        raise ValueError("degS of the empty representation")
    f, g = phi.gens
    df, dg = ws.deg(f), ws.deg(g)
    return max(i * df + j * dg for (i, j) in phi.coeffs)


@dataclass
class InequalityReport:
    """Both sides of the degree inequality, with the vacuity escape.

    ``holds`` is True/False for a genuine comparison and the string
    ``"vacuous-false-precondition"`` when the right side contains Bottom
    (vanishing wedge), where the comparison is not meaningful.
    """

    lhs: DegreeValue
    aux_deg: DegreeValue
    multiplicity: int
    wedge_term: DegreeValue
    rhs: DegreeValue
    holds: object

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs.to_json(),
            "aux_degree": self.aux_deg.to_json(),
            "multiplicity": self.multiplicity,
            "wedge_term": self.wedge_term.to_json(),
            "rhs": self.rhs.to_json(),
            "holds": self.holds,
        }


def su_inequality_report(
    ws: WeightSystem, fs: Sequence[Poly], phi: AuxPoly, g: Poly
) -> InequalityReport:
    """Evaluate deg Phi(g) >= deg^g Phi + m * (deg w^dg - deg w - deg g).

    fs must be algebraically independent; coefficients of phi are asserted by
    the caller to lie in the algebra they generate.
    """
    if phi.is_zero or g.is_zero:
        raise ValueError("inequality oracle requires nonzero Phi and g")
    if not 1 <= len(fs) <= g.n:
        raise ValueError("need between 1 and n generators")
    omega = differentials_wedge(fs)
    if omega.is_zero:
        raise ValueError("generators are algebraically dependent")
    lhs = ws.deg(phi.evaluate(g))
    m = aux_multiplicity(ws, phi, g, lhs)
    dphi = aux_degree(ws, phi, g)
    w_dg = deg_form(ws, wedge(omega, differential(g)))
    w_deg = deg_form(ws, omega)
    if m == 0:
        rhs = dphi
        correction = DegreeValue.of(*([0] * ws.r))
    elif w_dg.is_bottom:
        return InequalityReport(lhs, dphi, m, w_dg, DegreeValue.bottom(),
                                "vacuous-false-precondition")
    else:
        correction = w_dg - w_deg - ws.deg(g)
        rhs = dphi + m * correction
    return InequalityReport(lhs, dphi, m, w_dg, rhs, bool(lhs >= rhs))


def coprime_claims(p: int, q: int) -> tuple[bool, bool, bool]:
    """The three arithmetic facts used downstream, checked literally.

    For coprime 2 <= p < q: (i) pq-p-q > 0; (ii) pq-p-q <= q only when p = 2
    and q >= 3 odd; (iii) pq-p-q <= p only when (p, q) = (2, 3).
    """
    v = p * q - p - q
    claim_i = v > 0
    claim_ii = (v > q) or (p == 2 and q >= 3 and q % 2 == 1)
    claim_iii = (v > p) or (p, q) == (2, 3)
    return claim_i, claim_ii, claim_iii
