"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines inline).
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from tame3.algebra import DegreeValue, Poly, lex_weight, total_weight
from tame3.conditions import check_su_conditions, check_quasi_su, detect_type, \
    normalize_to_su, verify_properties
from tame3.engine import (
    certificate_json,
    certify_nagata,
    compose_endo,
    factor_tame,
    identity_endo,
    nagata_endo,
    random_tame,
    recompose,
)
from tame3.forms import (
    deg_form,
    differential,
    differentials_wedge,
    max_complement_attained_twice,
    wedge,
)
from tame3.search import find_su_reduction, permute_triple
from tame3.univariate import AuxPoly, aux_multiplicity, coprime_claims, \
    multiplicity_by_roots, su_inequality_report

D = DegreeValue.of

CORPUS_SEEDS = range(1, 201)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return [random_tame(seed, (seed % 5) + 1, coefficient_bound=3, degree_bound=3)
            for seed in CORPUS_SEEDS]


def test_criterion_01_nagata_degree_table():
    t0 = time.time()
    ws = lex_weight(3)
    F = nagata_endo()
    degs = [ws.deg(f) for f in F.components]
    ok = (
        degs == [D(2, 0, 3), D(1, 0, 2), D(0, 0, 1)]
        and ws.deg_endo(F.components) == D(3, 0, 6)
        and ws.total == D(1, 1, 1)
    )
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, f"exact table, {elapsed:.3f}s")


def test_criterion_02_nagata_inverse():
    t0 = time.time()
    x1, x2, x3 = (Poly.variable(i, 3) for i in range(3))
    t = x1 * x3 + x2 * x2
    derived_inverse = (x1 + (t * x2).scale(2) - (t * t) * x3, x2 - t * x3, x3)
    F = nagata_endo()
    ok = (
        F.inverse == derived_inverse
        and compose_endo(F.components, derived_inverse) == identity_endo()
        and compose_endo(derived_inverse, F.components) == identity_endo()
    )
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 1.0, f"two-sided identity, {elapsed:.3f}s")


def test_criterion_03_nagata_certificate(assert_rigorous_stuck):
    t0 = time.time()
    cert = certify_nagata()
    blob_a = certificate_json(cert)
    blob_b = certificate_json(certify_nagata())
    assert_rigorous_stuck(json.loads(blob_a))
    ok = cert.all_rigorous() and blob_a == blob_b
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 1.0, f"rigorous stuck on a verified map, byte-stable, "
                                     f"{elapsed:.3f}s")


def test_criterion_04_tame_roundtrip(corpus):
    from tame3.search import SearchLimits, DEFAULT_LIMITS

    t0 = time.time()
    weights = (total_weight(3), lex_weight(3))
    escalated = SearchLimits(
        max_bidegree=2 * DEFAULT_LIMITS.max_bidegree,
        max_cancellation_rounds=2 * DEFAULT_LIMITS.max_cancellation_rounds,
        max_product_terms=4 * DEFAULT_LIMITS.max_product_terms,
    )
    failures = []
    for (endo, _), seed in zip(corpus, CORPUS_SEEDS):
        for ws in weights:
            factors, trace = factor_tame(ws, endo)
            if trace.result != "floor":
                # inconclusive stuck gets one bound-escalation retry
                factors, trace = factor_tame(ws, endo, escalated)
            if trace.result != "floor" or factors is None:
                failures.append((seed, trace.result))
                continue
            if recompose(factors) != endo.components:
                failures.append((seed, "recomposition"))
            degs = [ws.deg_endo(trace.origin)] + trace.ledger
            if not all(b < a for a, b in zip(degs, degs[1:])):
                failures.append((seed, "ledger"))
            if not degs[0] >= ws.total:
                failures.append((seed, "floor bound"))
    elapsed = time.time() - t0
    _report(4, not failures and elapsed < 120.0,
            f"200 seeds x 2 weights, {elapsed:.1f}s, failures={failures[:3]}")


def _random_instances(count):
    """Deterministic (ws, fs, Phi, g) instances: coefficients genuinely in
    the generated algebra, g transcendental over it (nonzero wedge), every
    fourth instance with built-in positive multiplicity."""
    rng = random.Random(2024)
    weights = [total_weight(3), lex_weight(3)]
    made = 0
    while made < count:
        ws = weights[made % 2]
        multiplicity_case = made % 4 == 3
        n_gens = rng.choice([1, 2, 2])
        fs = []
        for _ in range(n_gens):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(1, 3)
                a = rng.randint(0, deg)
                # generators for the multiplicity family avoid the third
                # variable so adding it keeps g transcendental
                b = deg - a if multiplicity_case else rng.randint(0, deg - a)
                terms[(a, b, deg - a - b)] = rng.randint(-2, 2)
            p = Poly(3, terms)
            if p.is_zero or p.is_constant:
                p = Poly.variable(rng.randint(0, 1 if multiplicity_case else 2), 3)
            fs.append(p)
        if differentials_wedge(fs).is_zero:
            continue

        def algebra_element():
            acc = Poly.constant(rng.randint(-2, 2), 3)
            for _ in range(rng.randint(1, 2)):
                term = Poly.constant(rng.choice([1, -1, 2]), 3)
                for f in fs:
                    term = term * f ** rng.randint(0, 1)
                acc = acc + term
            return acc

        if multiplicity_case:
            u = algebra_element()
            if u.is_zero:
                continue
            k = rng.randint(1, 2)
            coeffs = {}
            for i in range(k + 1):
                coeffs[i] = (u ** (k - i)).scale(
                    Fraction((-1) ** (k - i) * math.comb(k, i))
                )
            coeffs[0] = coeffs.get(0, Poly.zero(3)) + Poly.constant(
                rng.randint(1, 3), 3
            )
            phi = AuxPoly(3, coeffs)
            x3 = Poly.variable(2, 3)
            g = u + rng.choice([x3, x3.scale(2), x3 * x3])
        else:
            coeffs = {}
            for i in range(rng.randint(1, 3)):
                c = algebra_element()
                if not c.is_zero:
                    coeffs[rng.randint(0, 2)] = c
            if not coeffs:
                continue
            phi = AuxPoly(3, coeffs)
            terms = {}
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(1, 3)
                a = rng.randint(0, deg)
                b = rng.randint(0, deg - a)
                terms[(a, b, deg - a - b)] = rng.randint(-2, 2)
            g = Poly(3, terms)
        if phi.is_zero or g.is_zero or g.is_constant:
            continue
        if phi.evaluate(g).is_zero:
            continue
        omega = differentials_wedge(fs)
        if wedge(omega, differential(g)).is_zero:
            continue
        made += 1
        yield ws, fs, phi, g


@pytest.fixture(scope="module")
def inequality_suite():
    return list(_random_instances(520))


def test_criterion_05_inequality_suite(inequality_suite):
    violations = 0
    genuine = 0
    for ws, fs, phi, g in inequality_suite:
        report = su_inequality_report(ws, fs, phi, g)
        if report.holds is True:
            genuine += 1
        else:
            violations += 1
    ok = violations == 0 and genuine >= 500
    _report(5, ok, f"{len(inequality_suite)} instances, {genuine} hold, "
                   f"{violations} violations")


def test_criterion_06_multiplicity_equivalence(inequality_suite):
    mismatches = 0
    positive = 0
    for ws, fs, phi, g in inequality_suite:
        a = aux_multiplicity(ws, phi, g)
        b = multiplicity_by_roots(ws, phi, g)
        mismatches += a != b
        positive += a >= 1
    ok = mismatches == 0 and positive >= 60
    _report(6, ok, f"{len(inequality_suite)} instances, {positive} with "
                   f"multiplicity >= 1, {mismatches} mismatches")


def test_criterion_07_max_attained_twice():
    rng = random.Random(77)
    ws_pool = [total_weight(3), lex_weight(3)]
    violations = 0
    for trial in range(200):
        ws = ws_pool[trial % 2]
        l = rng.choice([3, 4])
        etas = []
        for _ in range(l):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                a = rng.randint(0, deg)
                b = rng.randint(0, deg - a)
                terms[(a, b, deg - a - b)] = rng.randint(-2, 2)
            p = Poly(3, terms)
            if p.is_zero or p.is_constant:
                p = Poly.variable(rng.randint(0, 2), 3)
            etas.append(differential(p))
        if not max_complement_attained_twice(ws, etas):
            violations += 1
    _report(7, violations == 0, f"200 tuples, {violations} violations")


def test_criterion_08_wedge_equality_characterization():
    rng = random.Random(88)
    ws_pool = [total_weight(3), lex_weight(3)]
    violations = 0
    checked = 0
    both_seen = set()
    while checked < 200:
        ws = ws_pool[checked % 2]
        l = rng.choice([2, 3])
        fs = []
        for _ in range(l):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                a = rng.randint(0, deg)
                b = rng.randint(0, deg - a)
                terms[(a, b, deg - a - b)] = rng.randint(-2, 2)
            p = Poly(3, terms)
            if p.is_zero or p.is_constant:
                p = Poly.variable(rng.randint(0, 2), 3)
            fs.append(p)
        total = differentials_wedge(fs)
        if total.is_zero:
            continue
        checked += 1
        bound = ws.deg(fs[0])
        for f in fs[1:]:
            bound = bound + ws.deg(f)
        equal = deg_form(ws, total) == bound
        indep = not differentials_wedge([ws.leading_form(f) for f in fs]).is_zero
        both_seen.add(equal)
        if equal != indep:
            violations += 1
    ok = violations == 0 and both_seen == {True, False}
    _report(8, ok, f"200 tuples, {violations} violations, cases={sorted(both_seen)}")


@pytest.fixture(scope="module")
def quasi_pairs(su_pair_family):
    """Every pair passing the weakened block anywhere in the suite."""
    pairs = []
    for ws, F, G in su_pair_family:
        assert check_quasi_su(ws, F, G).overall
        pairs.append((ws, F, G))
        out = find_su_reduction(ws, F)
        assert out.witness is not None
        sigma = out.witness.sigma
        Fs = permute_triple(F, sigma)
        Gs = permute_triple(out.reduced, sigma)
        assert check_quasi_su(ws, Fs, Gs).overall
        pairs.append((ws, Fs, Gs))
        # permuted variant exercises the non-identity scan
        F_perm = permute_triple(F, (2, 3, 1))
        out2 = find_su_reduction(ws, F_perm)
        if out2.witness is not None:
            tau = out2.witness.sigma
            pairs.append((ws, permute_triple(F_perm, tau),
                          permute_triple(out2.reduced, tau)))
    return pairs


def test_criterion_09_properties_on_all_quasi_pairs(quasi_pairs):
    failures = []
    for k, (ws, F, G) in enumerate(quasi_pairs):
        rep = verify_properties(ws, F, G)
        if not rep.overall:
            failures.append((k, [n for n, v in rep.conditions.items()
                                 if not v["holds"]]))
    _report(9, not failures,
            f"{len(quasi_pairs)} quasi pairs, all P1-P12 flags, failures={failures}")


def test_criterion_10_constructive_normalization(quasi_pairs):
    failures = []
    for k, (ws, F, G) in enumerate(quasi_pairs):
        norm = normalize_to_su(ws, F, G)
        strict = check_su_conditions(ws, F, norm.normalized)
        if not strict.overall:
            failures.append((k, "strict block"))
        # the first move changes only the first component, so preserving its
        # degree is exactly preserving the degree of the whole triple
        if ws.deg(norm.normalized[0]) != ws.deg(G[0]):
            failures.append((k, "degree of first move"))
        if norm.normalized[1:] != (G[1] - Poly.constant(norm.params["d"], 3), G[2]):
            failures.append((k, "move shape"))
    _report(10, not failures, f"{len(quasi_pairs)} pairs normalized, failures={failures}")


def test_criterion_11_no_type_iv_on_corpus(corpus):
    hits = []
    for (endo, _), seed in zip(corpus, CORPUS_SEEDS):
        if detect_type(endo.components, "IV") is not None:
            hits.append(seed)
    _report(11, not hits, f"200 tame maps scanned, type-IV hits={hits}")


def test_criterion_12_type_exclusivity(corpus, su_pair_family):
    violations = []
    for (endo, _), seed in zip(corpus, CORPUS_SEEDS):
        found = [k for k in ("I", "II", "III", "IV")
                 if detect_type(endo.components, k) is not None]
        if len(found) > 1:
            violations.append((seed, found))
    # the constructed reducible triple detects exactly one type
    ws, F, G = su_pair_family[1]
    F_tau = permute_triple(F, (2, 1, 3))
    fixture_found = [k for k in ("I", "II", "III", "IV")
                     if detect_type(F_tau, k) is not None]
    ok = not violations and fixture_found == ["I"]
    _report(12, ok, f"corpus + fixture, fixture types={fixture_found}, "
                    f"violations={violations}")


def test_criterion_13_integer_claims():
    bad = []
    for p in range(2, 51):
        for q in range(p + 1, 51):
            if math.gcd(p, q) != 1:
                continue
            if not all(coprime_claims(p, q)):
                bad.append((p, q))
    _report(13, not bad, f"exhaustive p,q <= 50, failures={bad}")
