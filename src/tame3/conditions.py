"""Declarative checkers for the reduction conditions and their consequences.

Each checker evaluates its named conditions literally against a pair of
triples and reports one flag per condition plus a diagnostic payload.  The
JSON field names (SU1..SU6, SU1'..SU3', P1..P12, typeI..typeIV) are the
standard labels for these conditions and are kept stable for machine-read
certificates.

Universally quantified properties (P4, P9, P10) cannot be decided over all
of k[S_i]; they are checked over the finite witness families the theory
actually exercises, and the payload records the quantifier as "sampled".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    DegreeValue,
    Poly,
    WeightSystem,
    half,
    power_sum,
    proportionality,
    solve_contents,
    total_weight,
)
from .forms import algebraically_independent, differential, wedge, wedge_degree
from .search import (
    DEFAULT_LIMITS,
    BiPoly,
    SearchLimits,
    exact_membership,
    find_scaled_pair,
    homogeneous_membership,
    leading_membership_search,
    membership_in_single,
    peel,
    permute_triple,
    PERMUTATIONS_3,
    su6_bound,
)

Triple = tuple[Poly, Poly, Poly]


@dataclass
class ConditionReport:
    conditions: dict = field(default_factory=dict)
    overall: bool = True

    def set(self, name: str, holds: bool, **payload) -> None:
        self.conditions[name] = {"holds": bool(holds), **payload}
        self.overall = self.overall and bool(holds)

    def __getitem__(self, name: str) -> dict:
        return self.conditions[name]

    def to_json(self) -> dict:
        return {**self.conditions, "overall": self.overall}


def _decompose(target: Poly, atoms: Sequence[Poly]):
    """Exact coefficients c with target == sum c_k atom_k, or None; all
    zeros for a zero target."""
    if target.is_zero:
        return [Fraction(0)] * len(atoms)
    return solve_contents((target.den, target.nums.items()),
                          [(a.den, a.nums.items()) for a in atoms])


def _odd_power_relation(
    ws: WeightSystem, g1: Poly, g2: Poly
) -> Optional[int]:
    """Odd s >= 3 with (g1^w)^2 proportional to (g2^w)^s; g1, g2 nonzero."""
    pair = find_scaled_pair(ws, ws.leading_form(g2), ws.leading_form(g1))
    if pair is None or pair.p != 2 or pair.q < 3:
        return None
    return pair.q


def _membership_flag(outcome) -> tuple[bool, dict]:
    if outcome.found is not None:
        return True, {"witness_pairs": sorted(outcome.found.coeffs)}
    ab = outcome.absence
    return False, {"absence": ab.to_json() if ab else None}


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------


def _require_independent(F: Triple, G: Triple) -> None:
    for name, triple in (("F", F), ("G", G)):
        if not algebraically_independent(triple):
            raise ValueError(f"{name} has algebraically dependent components")


def _set_su4_to_su6(ws: WeightSystem, rep: ConditionReport, F: Triple, G: Triple,
                    **su5_payload) -> None:
    """The last three conditions, which the strict and the weakened block
    share; only the strict block records the SU5 degrees."""
    f3 = F[2]
    g1, g2, g3 = G
    su4_deg = ws.deg(f3) <= ws.deg(g1)
    su4_mem = homogeneous_membership(
        ws, ws.leading_form(f3), ws.leading_form(g1), ws.leading_form(g2)
    )
    rep.set("SU4", su4_deg and su4_mem is None,
            degree_ok=su4_deg, leading_in_pair=su4_mem is not None)

    rep.set("SU5", ws.deg(g3) < ws.deg(f3), **su5_payload)

    bound = su6_bound(ws, g1, g2)
    rep.set("SU6", ws.deg(g3) < bound, bound=bound.to_json())


def check_su_conditions(
    ws: WeightSystem,
    F: Triple,
    G: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> ConditionReport:
    """The six-block condition on an ordered pair of independent triples."""
    _require_independent(F, G)
    f1, f2, f3 = F
    g1, g2, g3 = G
    rep = ConditionReport()

    # SU1: g1 = f1 + a f3^2 + c f3; g2 = f2 + b f3; g3 - f3 in k[g1, g2].
    sol1 = _decompose(g1 - f1, [f3**2, f3])
    sol2 = _decompose(g2 - f2, [f3])
    member3, payload3 = _membership_flag(exact_membership(ws, g3 - f3, (g1, g2), limits))
    rep.set(
        "SU1",
        sol1 is not None and sol2 is not None and member3,
        a=str(sol1[0]) if sol1 else None,
        c=str(sol1[1]) if sol1 else None,
        b=str(sol2[0]) if sol2 else None,
        third_component=payload3,
    )

    rep.set("SU2", ws.deg(f1) <= ws.deg(g1) and ws.deg(f2) == ws.deg(g2),
            deg_f=[ws.deg(f1).to_json(), ws.deg(f2).to_json()],
            deg_g=[ws.deg(g1).to_json(), ws.deg(g2).to_json()])

    s = _odd_power_relation(ws, g1, g2)
    rep.set("SU3", s is not None, s=s)

    _set_su4_to_su6(ws, rep, F, G,
                    deg_g3=ws.deg(g3).to_json(), deg_f3=ws.deg(f3).to_json())
    return rep


def check_quasi_su(
    ws: WeightSystem,
    F: Triple,
    G: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> ConditionReport:
    """Weakened first three conditions plus the shared last three."""
    _require_independent(F, G)
    f1, f2, f3 = F
    g1, g2, g3 = G
    rep = ConditionReport()

    m1, p1 = (True, {"zero_shift": True}) if (g1 - f1).is_zero else _membership_flag(
        exact_membership(ws, g1 - f1, (f2, f3), limits)
    )
    m2 = membership_in_single(ws, g2 - f2, f3) is not None
    m3, p3 = (True, {"zero_shift": True}) if (g3 - f3).is_zero else _membership_flag(
        exact_membership(ws, g3 - f3, (g1, g2), limits)
    )
    rep.set("SU1'", m1 and m2 and m3, first=p1, second_in_third_gen=m2, third=p3)

    rep.set("SU2'", ws.deg(f1) <= ws.deg(g1) and ws.deg(f2) <= ws.deg(g2))

    su3p = ws.deg(g2) < ws.deg(g1) and membership_in_single(
        ws, ws.leading_form(g1), ws.leading_form(g2)
    ) is None
    rep.set("SU3'", su3p)

    _set_su4_to_su6(ws, rep, F, G)
    return rep


# ---------------------------------------------------------------------------
# Derived properties P1-P12
# ---------------------------------------------------------------------------


def _shift_atoms(f2: Poly, f3: Poly, s: int) -> list[Poly]:
    """[f3^2, f3, f2^0, ..., f2^((s-1)/2)]: the atoms of the first shift
    g1 - f1 = a*f3^2 + c*f3 + psi(f2) of a weak pair with odd exponent s."""
    return [f3**2, f3] + [f2**m for m in range((s - 1) // 2 + 1)]


def _p11_decomposition(F: Triple, G: Triple, s: int):
    """(a, b, c, d, psi-coeffs) for the canonical shift shapes, or None."""
    f1, f2, f3 = F
    g1, g2, _ = G
    sol1 = _decompose(g1 - f1, _shift_atoms(f2, f3, s))
    if sol1 is None:
        return None
    psi_coeffs = {m: e for m, e in enumerate(sol1[2:]) if e}
    sol2 = _decompose(g2 - f2, [f3, Poly.constant(1, f3.n)])
    if sol2 is None:
        return None
    return sol1[0], sol2[0], sol1[1], sol2[1], psi_coeffs


def _p4_exponents(d2: DegreeValue, d3: DegreeValue, cap: DegreeValue, count: int):
    """The pairs (i, j) != (0, 0) below count with i*d2 + j*d3 <= cap, by
    i then j.  Degrees are positive, so i*d2 + j*d3 grows with j and the
    first pair above cap ends its row."""
    for i in range(count):
        if i * d2 > cap:
            return
        for j in range(count):
            if i * d2 + j * d3 > cap:
                break
            if i or j:
                yield i, j


def verify_properties(
    ws: WeightSystem,
    F: Triple,
    G: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> ConditionReport:
    """P1-P12 for a pair already passing the weakened condition block."""
    quasi = check_quasi_su(ws, F, G, limits)
    if not quasi.overall:
        raise ValueError("pair does not satisfy the weakened condition block")
    f1, f2, f3 = F
    g1, g2, g3 = G
    rep = ConditionReport()
    d1, d2, d3 = (ws.deg(f) for f in F)

    s = _odd_power_relation(ws, g1, g2)
    delta = half(ws.deg(g2)) if s is not None else None
    rep.set("P1", s is not None and delta is not None, s=s,
            delta=delta.to_json() if delta else None)
    if s is None or delta is None:
        for name in [f"P{k}" for k in range(2, 13)]:
            rep.set(name, False, skipped="no odd power relation")
        return rep

    w12 = wedge_degree(ws, g1, g2)
    rep.set("P2", d3 >= (s - 2) * delta + w12)

    rep.set("P3", d2 == ws.deg(g2))

    decomp = _p11_decomposition(F, G, s)

    # P4 (sampled): products of the last two components within the degree cap
    # must decompose into the quadratic-linear-tail shape.
    family4 = [f2**i * f3**j for i, j in _p4_exponents(d2, d3, s * delta, limits.max_candidates)]
    if not (g1 - f1).is_zero:
        family4.append(g1 - f1)
    atoms4 = _shift_atoms(f2, f3, s)
    p4_ok = all(_decompose(phi, atoms4) is not None for phi in family4)
    rep.set("P4", p4_ok, quantifier="sampled", family_size=len(family4))

    if d1 < ws.deg(g1):
        p5 = (
            s == 3
            and proportionality(ws.leading_form(g1), ws.leading_form(f3) ** 2)
            is not None
            and 2 * d3 == 3 * delta
            and 2 * d1 >= 5 * delta + 2 * w12
        )
        rep.set("P5", p5, active=True)
    else:
        rep.set("P5", True, active=False)

    rep.set("P6", ws.deg_endo(G) < ws.deg_endo(F))

    rep.set(
        "P7",
        d2 < d1 and d3 <= d1 and all(delta < d <= s * delta for d in (d1, d2, d3)),
    )

    # P8: pairwise leading-form algebra exclusions, with the one allowed case.
    p8_pairs_ok = True
    for (i, j) in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 1)):
        if membership_in_single(
            ws, ws.leading_form(F[i - 1]), ws.leading_form(F[j - 1])
        ) is not None:
            p8_pairs_ok = False
    p8_latter = True
    if membership_in_single(ws, ws.leading_form(f1), ws.leading_form(f3)) is not None:
        p8_latter = (
            s == 3
            and proportionality(ws.leading_form(f1), ws.leading_form(f3) ** 2)
            is not None
            and 2 * d3 == 3 * delta
        )
    rep.set("P8", p8_pairs_ok and p8_latter)

    # P9 (sampled): small elements of k[f1, f3] under the degree cap are
    # affine in f3.
    family9 = [phi for phi in (f3, f1) if ws.deg(phi) <= d2]
    if not (g2 - f2).is_zero:
        family9.append(g2 - f2)
    atoms9 = [f3, Poly.constant(1, f3.n)]
    p9_ok = all(_decompose(phi, atoms9) is not None for phi in family9)
    rep.set("P9", p9_ok, quantifier="sampled", family_size=len(family9))

    # P10 (sampled): hypothesis witnessed by (a, b, c) != 0 from the
    # canonical decomposition.
    if decomp is None:
        rep.set("P10", False, note="no canonical decomposition")
    else:
        a, b, c, dconst, psi_coeffs = decomp
        if (a, b, c) == (0, 0, 0):
            rep.set("P10", True, active=False,
                    note="generating pairs coincide; hypothesis void")
        else:
            family10: list[Poly] = [f1]
            m = 0
            while 2 * m * delta <= d1 and m <= limits.max_candidates:
                family10.append(f2**m)
                m += 1
            ok = True
            for phi in family10:
                if ws.deg(phi) > d1:
                    continue
                atoms10 = [f1] + [
                    f2**m
                    for m in range((s - 1) // 2 + 1)
                    if 2 * m * delta <= min((s - 1) * delta, ws.deg(phi))
                ]
                sol = _decompose(phi, atoms10)
                if sol is None or (ws.deg(phi) < d1 and sol[0] != 0):
                    ok = False
            rep.set("P10", ok, quantifier="sampled", family_size=len(family10))

    if decomp is None:
        rep.set("P11", False, note="no decomposition in the canonical shape")
        rep.set("P12", False, note="scalars unavailable")
        return rep
    a, b, c, dconst, psi_coeffs = decomp
    psi = power_sum(f2, psi_coeffs)
    p11 = True
    if not psi.is_zero and not ws.deg(psi) <= (s - 1) * delta:
        p11 = False
    if (a != 0 or b != 0) and not d3 <= d2:
        p11 = False
    if d3 <= d2 and s != 3:
        p11 = False
    rep.set("P11", p11, a=str(a), b=str(b), c=str(c), d=str(dconst),
            psi={str(k): str(v) for k, v in psi_coeffs.items()},
            uniqueness="checked only against supplied pairs")

    w13 = wedge_degree(ws, f1, f3)
    w23 = wedge_degree(ws, f2, f3)
    wf12 = wedge_degree(ws, f1, f2)
    if a != 0:
        first_ok = wf12 == d3 + w23
    elif b != 0:
        first_ok = wf12 == w13
    elif c != 0:
        first_ok = wf12 == w23
    else:
        first_ok = wf12 == w12
    rep.set(
        "P12",
        first_ok and w13 == (s - 2) * delta + w23 and w23 >= s * delta + w12,
        first=first_ok,
    )
    return rep


# ---------------------------------------------------------------------------
# Constructive normalization
# ---------------------------------------------------------------------------


@dataclass
class Normalization:
    e1: Triple
    e2: Triple
    normalized: Triple
    params: dict


def normalize_to_su(
    ws: WeightSystem,
    F: Triple,
    G: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> Normalization:
    """Strip the tail and the constant from the first two shifts.

    Produces G' differing from G by two elementary moves, with the first
    move degree-preserving, such that (F, G') satisfies the strict condition
    block; raises if the input pair does not satisfy the weakened one.
    """
    quasi = check_quasi_su(ws, F, G, limits)
    if not quasi.overall:
        raise ValueError("pair does not satisfy the weakened condition block")
    s = _odd_power_relation(ws, G[0], G[1])
    delta = half(ws.deg(G[1]))
    if s is None or delta is None:
        raise ValueError("no odd power relation on the reduced pair")
    decomp = _p11_decomposition(F, G, s)
    if decomp is None:
        raise ValueError("shifts do not decompose in the canonical shape")
    a, b, c, dconst, psi_coeffs = decomp
    n = F[0].n
    y1, y2, y3 = (Poly.variable(i, n) for i in range(n))
    e1 = (y1 - power_sum(y2 - Poly.constant(dconst, n), psi_coeffs), y2, y3)
    e2 = (y1, y2 - Poly.constant(dconst, n), y3)
    g1p = G[0] - power_sum(G[1] - Poly.constant(dconst, n), psi_coeffs)
    g2p = G[1] - Poly.constant(dconst, n)
    normalized = (g1p, g2p, G[2])
    if ws.deg(g1p) != ws.deg(G[0]):
        raise AssertionError("first normalization move changed the degree")
    strict = check_su_conditions(ws, F, normalized, limits)
    if not strict.overall:
        raise AssertionError("normalized pair fails the strict condition block")
    return Normalization(e1, e2, normalized, {
        "a": a, "b": b, "c": c, "d": dconst,
        "psi": dict(psi_coeffs), "s": s, "delta": delta,
    })


# ---------------------------------------------------------------------------
# Type detectors (total degree only)
# ---------------------------------------------------------------------------


TYPE_NAMES = ("I", "II", "III", "IV")


@dataclass
class TypeWitness:
    type: str
    l: int
    sigma: tuple
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    gamma: Optional[Fraction] = None
    mu: Optional[Fraction] = None
    sigma_scalar: Optional[Fraction] = None
    g: Optional[BiPoly] = None
    derived: Optional[Triple] = None

    def to_json(self) -> dict:
        return {
            "type": self.type,
            "l": self.l,
            "sigma": list(self.sigma),
            "alpha": None if self.alpha is None else str(self.alpha),
            "beta": None if self.beta is None else str(self.beta),
            "gamma": None if self.gamma is None else str(self.gamma),
            "mu": None if self.mu is None else str(self.mu),
            "sigma_scalar": None if self.sigma_scalar is None else str(self.sigma_scalar),
            "g": None if self.g is None else self.g.to_json(),
        }


def _leading_dependence_scalars(ws, fixed_form: Poly, base_form: Poly,
                                shift_form: Optional[Poly]) -> list[Fraction]:
    """Scalars t making fixed_form and (base_form - t*shift_form)
    algebraically dependent; the wedge condition is linear in t."""
    w0 = wedge(differential(fixed_form), differential(base_form))
    if shift_form is None:
        return [Fraction(0)] if w0.is_zero else []
    w1 = wedge(differential(fixed_form), differential(shift_form))
    if w1.is_zero:
        return [Fraction(0), Fraction(1)] if w0.is_zero else []
    if w0.is_zero:
        return [Fraction(0)]
    # w0 = t * w1 iff their integer terms share keys and are proportional;
    # t is read off one term of each
    key, c1 = next(iter(w1.contents.items()))
    c0 = w0.contents.get(key)
    if w0.contents.keys() == w1.contents.keys() and all(
            w0.contents[k] * c1 == c0 * c for k, c in w1.contents.items()):
        return [Fraction(c0 * w1.denom, c1 * w0.denom)]
    return []


def detect_type(
    F: Triple,
    which: str,
    limits: SearchLimits = DEFAULT_LIMITS,
    ws: Optional[WeightSystem] = None,
) -> Optional[TypeWitness]:
    """Detect one of the four multi-step reduction patterns at total degree.

    Only the rank-one all-ones weight is meaningful here; other weights are
    rejected loudly.
    """
    if which not in TYPE_NAMES:
        raise ValueError(f"unknown type {which!r}")
    if ws is None:
        ws = total_weight(3)
    elif ws.weights != ((1,), (1,), (1,)):
        raise ValueError("type detection is defined for the all-ones weight only")
    degs = tuple(f.total_degree() for f in F)
    for sigma in PERMUTATIONS_3:
        witness = _detect_on_permuted(ws, permute_triple(F, sigma),
                                      permute_triple(degs, sigma), sigma, which, limits)
        if witness is not None:
            return witness
    return None


def _detect_on_permuted(ws, H: Triple, degs: tuple, sigma: tuple, which: str, limits):
    # A zero component (total degree -1) fails every degree gate below.
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
            return _detect_type_i(ws, H, sigma, l, s, limits)
        if s != 3:
            return None
        return _detect_type_ii(ws, H, sigma, l, limits)
    # Types III and IV share one degree gate.  The branch deg h2 = 3l with
    # 2l < 2 deg h3 < 3l gives neither type: its only scalar is 0, which
    # type III refuses, and type IV accepts only a peeled residual of degree
    # 3l/2, above deg h3.  With 2 deg h3 = 3l it lies inside this gate.
    if not (2 * v3 == 3 * l and 5 * l < 2 * v2 <= 6 * l):
        return None
    return _detect_type_iii_iv(ws, H, sigma, l, which, limits)


def _peel_candidates(ws, h3, l: int, top: int, candidates, make_accept, limits):
    """First candidate pair over which h3 peels to an accepted third component.

    ``candidates`` yields (key, g1, g2) lazily; a pair qualifies when
    deg g1 = 2l and deg g2 = top.  Its leading forms are then dependent
    without a test: each detector keeps only the scalars that make two
    leading forms dependent, and at these degrees the leading forms of g1
    and g2 are those two forms.  ``make_accept(key, g1, g2, w12)`` gives
    the peel's accept predicate, or None to skip the pair.  Returns
    (key, g, (g1, g2, g3)) with h3 + g(g1, g2) = g3, or None.
    """
    for key, g1, g2 in candidates:
        if g1.total_degree() != 2 * l or g2.total_degree() != top:
            continue
        w12 = wedge_degree(ws, g1, g2)
        accept = make_accept(key, g1, g2, w12)
        if accept is None:
            continue
        phi, g3 = peel(ws, h3, (g1, g2), limits, accept, 48)
        if phi is not None:
            return key, phi.negate(), (g1, g2, g3)
    return None


def _lower_third(ws, h3, top: int):
    """Types I and II accept a nonzero remainder below h3 whose wedge with
    g1 stays under top + deg(dg1 ^ dg2), after at least one peel."""

    def make_accept(_key, g1, _g2, w12):
        bound = DegreeValue.of(top) + w12

        def accept(res: Poly, peeled: Poly) -> bool:
            if res.is_zero:
                return False
            if not ws.deg(res) < ws.deg(h3):
                return False
            return wedge_degree(ws, g1, res) < bound and bool(peeled)

        return accept

    return make_accept


def _detect_type_i(ws, H, sigma, l: int, s: int, limits):
    h1, h2, h3 = H
    v3 = h3.total_degree()
    if not 2 * l < v3 <= s * l:
        return None
    if homogeneous_membership(
        ws, ws.leading_form(h3), ws.leading_form(h1), ws.leading_form(h2)
    ) is not None:
        return None
    h1w, h2w, h3w = (ws.leading_form(h) for h in H)
    if v3 == s * l:
        alphas = [t for t in _leading_dependence_scalars(ws, h1w, h2w, h3w) if t != 0]
    else:
        alphas = [Fraction(1)] if _leading_dependence_scalars(ws, h1w, h2w, None) else []
    candidates = ((alpha, h1, h2 - h3.scale(alpha)) for alpha in alphas)
    found = _peel_candidates(ws, h3, l, s * l, candidates, _lower_third(ws, h3, s * l),
                             limits)
    if found is None:
        return None
    alpha, g, derived = found
    return TypeWitness(type="I", l=l, sigma=sigma, alpha=alpha, g=g, derived=derived)


def _detect_type_ii(ws, H, sigma, l: int, limits):
    h1, h2, h3 = H
    v3 = h3.total_degree()
    if not 3 * l < 2 * v3 <= 4 * l:
        return None
    h1w, h2w, h3w = (ws.leading_form(h) for h in H)
    if proportionality(h1w, h3w) is not None:
        return None
    if v3 == 2 * l:
        alphas = _leading_dependence_scalars(ws, h2w, h1w, h3w)
    else:
        alphas = [Fraction(0)] if _leading_dependence_scalars(ws, h2w, h1w, None) else []
    candidates = (
        ((alpha, beta), h1 - h3.scale(alpha), h2 - h3.scale(beta))
        for alpha in alphas
        for beta in ([Fraction(0), Fraction(1)] if alpha != 0 else [Fraction(1)])
    )
    found = _peel_candidates(ws, h3, l, 3 * l, candidates, _lower_third(ws, h3, 3 * l),
                             limits)
    if found is None:
        return None
    (alpha, beta), g, derived = found
    return TypeWitness(type="II", l=l, sigma=sigma, alpha=alpha, beta=beta, g=g,
                       derived=derived)


def _detect_type_iii_iv(ws, H, sigma, l: int, which: str, limits):
    h1, h2, h3 = H
    h1w, h2w = ws.leading_form(h1), ws.leading_form(h2)
    h3sq = h3**2
    if h2.total_degree() == 3 * l:
        alphas = _leading_dependence_scalars(ws, h1w, h2w, ws.leading_form(h3sq))
    else:
        # degree of h2 is below 3l, so the quadratic term supplies the top
        dependent = not algebraically_independent([h1w, ws.leading_form(h3sq)])
        alphas = [Fraction(-1)] if dependent else []

    def make_accept(alpha, g1, g2, w12):
        wedge_bound = DegreeValue.of(3 * l) + w12
        if which == "III":
            if alpha == 0:
                return None
            deg_bound = DegreeValue.of(l) + w12

            def accept(res: Poly, peeled: Poly) -> bool:
                if res.is_zero:
                    return False
                d = ws.deg(res)
                return (2 * d.vec[0] <= 3 * l and d < deg_bound
                        and wedge_degree(ws, g1, res) < wedge_bound and bool(peeled))

            return accept

        def accept(res: Poly, peeled: Poly) -> bool:
            if res.is_zero or res.is_constant:
                return False
            d = ws.deg(res)
            if not (2 * d.vec[0] <= 3 * l
                    and wedge_degree(ws, g1, res) < wedge_bound):
                return False
            if 2 * d.vec[0] != 3 * l:
                return False
            t = proportionality(ws.leading_form(g2), ws.leading_form(res**2))
            if t is None:
                return False
            return (g2 - (res**2).scale(t)).total_degree() <= 2 * l and bool(peeled)

        return accept

    candidates = ((alpha, h1, h2 - h3sq.scale(alpha)) for alpha in alphas)
    found = _peel_candidates(ws, h3, l, 3 * l, candidates, make_accept, limits)
    if found is None:
        return None
    alpha, g, derived = found
    g1, g2, g3 = derived
    mu = None
    if which == "IV":
        mu = proportionality(ws.leading_form(g2), ws.leading_form(g3**2))
    return TypeWitness(type=which, l=l, sigma=sigma, alpha=alpha, beta=Fraction(0),
                       gamma=Fraction(0), mu=mu, sigma_scalar=Fraction(1), g=g,
                       derived=derived)


# ---------------------------------------------------------------------------
# Consequences used as test predicates
# ---------------------------------------------------------------------------


def su_pair_uniqueness(
    ws: WeightSystem,
    F: Triple,
    G1: Triple,
    G2: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> dict:
    """Two strict reductions of one triple agree in the first two
    components, and their third components differ by an element of the
    algebra of the second."""
    for G in (G1, G2):
        if not check_su_conditions(ws, F, G, limits).overall:
            raise ValueError("both pairs must satisfy the strict condition block")
    first_equal = G1[0] == G2[0]
    second_equal = G1[1] == G2[1]
    member = membership_in_single(ws, G1[2] - G2[2], G1[1]) is not None
    return {
        "first_equal": first_equal,
        "second_equal": second_equal,
        "third_difference_in_second": member,
        "holds": first_equal and second_equal and member,
    }


def check_not_er(
    ws: WeightSystem,
    F: Triple,
    G: Triple,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> dict:
    """Non-membership of each leading form in the graded algebra of the
    other two components, under the stated hypotheses."""
    if not check_su_conditions(ws, F, G, limits).overall:
        raise ValueError("pair must satisfy the strict condition block")
    f1, f2, f3 = F
    g1, g2, g3 = G
    out: dict = {"holds": True}
    hyp1 = proportionality(ws.leading_form(f1), ws.leading_form(f3) ** 2) is None
    hyp3 = (f1, f2) != (g1, g2)
    for i, hyp in ((1, hyp1), (2, True), (3, hyp3)):
        if not hyp:
            out[f"i{i}"] = {"skipped": "hypothesis void"}
            continue
        j, k = [x for x in (1, 2, 3) if x != i]
        res = leading_membership_search(ws, F[i - 1], (F[j - 1], F[k - 1]), limits)
        if res.found is not None:
            out[f"i{i}"] = {"non_membership": False}
            out["holds"] = False
        else:
            out[f"i{i}"] = {"non_membership": True,
                            "rigorous": res.absence.rigorous,
                            "reason": res.absence.reason}
    return out
