"""Command-line surface.

Exit codes: 0 success/pass, 1 check failed, 2 stuck / no reduction found,
3 input error.  All output is a pure function of (inputs, seed, limits);
JSON mode emits canonical, byte-stable documents.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

from .algebra import (
    ASCII_SPACE,
    PolyParseError,
    WeightSystem,
    lex_weight,
    parse_poly,
    poly_to_text,
    total_weight,
)
from .conditions import (
    TYPE_NAMES,
    check_quasi_su,
    check_su_conditions,
    detect_type,
    verify_properties,
)
from .engine import (
    Endo3,
    ReductionVerdict,
    certify_nagata,
    factor_tame,
    inverse_verified,
    nagata_endo,
    random_tame,
    reduce_to_floor,
)
from .forms import algebraically_independent
from .search import DEFAULT_LIMITS, SearchLimits
from .univariate import AuxPoly, su_inequality_report

N = 3


class InputError(Exception):
    pass


_SIGNED = re.compile(r"-?[0-9]+")
_UNSIGNED = re.compile(r"[0-9]+")


def integer(text: str, number=_SIGNED) -> int:
    """The int that ``number`` (ASCII digits, with a leading '-' for
    ``_SIGNED``) matches in text, between ASCII whitespace; ValueError for
    anything else, such as a digit or a space of another script, which
    int() reads.  Also the type of the ``gen`` options, so argparse names
    it in a usage error ("invalid integer value")."""
    if not number.fullmatch(text.strip(ASCII_SPACE)):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_weight(spec: str) -> WeightSystem:
    if spec == "total":
        return total_weight(N)
    if spec == "nagata-lex":
        return lex_weight(N)
    try:
        vectors = []
        for part in spec.split(";"):
            vectors.append(tuple(integer(c) for c in part.split(",")))
        ws = WeightSystem(tuple(vectors))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad weight spec {spec!r}: {exc}") from exc
    if ws.n != N:
        raise InputError(f"bad weight spec {spec!r}: expected {N} vectors, got {ws.n}")
    return ws


_LIMIT_KEYS = {
    "bidegree": "max_bidegree",
    "rounds": "max_cancellation_rounds",
    "candidates": "max_candidates",
    "product-terms": "max_product_terms",
}


def _parse_limits() -> SearchLimits:
    """DEFAULT_LIMITS with the fields that the ``TAME3_LIMITS`` keys set."""
    values = {}
    env = os.environ.get("TAME3_LIMITS", "")
    for chunk in filter(None, (c.strip(ASCII_SPACE) for c in env.split(","))):
        if "=" not in chunk:
            raise InputError(f"bad TAME3_LIMITS entry {chunk!r}")
        key, _, val = chunk.partition("=")
        if key.strip(ASCII_SPACE) not in _LIMIT_KEYS:
            raise InputError(f"unknown TAME3_LIMITS key {key!r}")
        try:
            values[_LIMIT_KEYS[key.strip(ASCII_SPACE)]] = integer(val, _UNSIGNED)
        except ValueError as exc:
            raise InputError(f"bad TAME3_LIMITS entry {chunk!r}") from exc
    try:
        return dataclasses.replace(DEFAULT_LIMITS, **values)
    except ValueError as exc:
        raise InputError(f"bad search limits: {exc}") from exc


def _read_lines(path: str) -> list[str]:
    r"""The lines of a file, or of stdin for "-".  Only "\n" ends a line
    (text mode reads "\r\n" and "\r" as "\n"): str.splitlines() would also
    end one at \v, \f and at separators such as U+2028."""
    try:
        if path == "-":
            return sys.stdin.read().split("\n")
        with open(path) as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_triple(lines: list[str], where: str) -> tuple:
    polys = []
    for k, line in enumerate(lines):
        if not line.strip(ASCII_SPACE):
            continue
        try:
            polys.append(parse_poly(line, N))
        except PolyParseError as exc:
            raise InputError(f"{where}, line {k + 1}: {exc}") from exc
    if len(polys) != 3:
        raise InputError(f"{where}: expected 3 polynomials, found {len(polys)}")
    return tuple(polys)


def _split_blocks(lines: list[str]) -> list[list[str]]:
    """Nonempty runs of nonblank lines."""
    blocks: list[list[str]] = [[]]
    for line in lines:
        if line.strip(ASCII_SPACE):
            blocks[-1].append(line)
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def _parse_pair(lines: list[str], where: str) -> tuple:
    blocks = _split_blocks(lines)
    if len(blocks) != 2:
        raise InputError(f"{where}: expected two triples separated by a blank line")
    return (_parse_triple(blocks[0], where), _parse_triple(blocks[1], where))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def cmd_deg(args) -> int:
    ws = _parse_weight(args.weight)
    triple = _parse_triple(_read_lines(args.file), args.file)
    degs = [ws.deg(f) for f in triple]
    leads = [poly_to_text(ws.leading_form(f)) if not f.is_zero else "0" for f in triple]
    payload = {
        "weight": ws.describe(),
        "components": [poly_to_text(f) for f in triple],
        "degrees": [d.to_json() for d in degs],
        "leading_forms": leads,
        "deg_F": ws.deg_endo(triple).to_json(),
        "floor": ws.total.to_json(),
        "rank": ws.rank(),
    }
    lines = [f"f{i + 1}: deg={degs[i].to_json()}  leading={leads[i]}" for i in range(3)]
    lines.append(f"deg F = {ws.deg_endo(triple).to_json()}")
    lines.append(f"|w| = {ws.total.to_json()}  rank w = {ws.rank()}")
    _emit(args, payload, lines)
    return 0


def _load_endo(args) -> Endo3:
    triple = _parse_triple(_read_lines(args.file), args.file)
    if not algebraically_independent(triple):
        raise InputError(f"{args.file}: components are algebraically dependent")
    inverse = None
    if args.inverse:
        inverse = _parse_triple(_read_lines(args.inverse), args.inverse)
    return Endo3(triple, inverse)


def _inverse_checked(args, ws: WeightSystem, endo: Endo3, trace) -> bool:
    """Whether an inverse was supplied; one that fails its check is exit 3."""
    if endo.inverse is not None and not inverse_verified(ws, trace, endo.inverse):
        raise InputError(f"{args.inverse}: not the inverse of {args.file}")
    return endo.inverse is not None


def _emit_verdict(args, verdict: ReductionVerdict) -> None:
    trace = verdict.trace
    payload = verdict.to_json()
    lines = [f"result: {trace.result}", f"steps: {len(trace.steps)}"]
    if "verdict" in payload:
        lines.append(f"verdict: {payload['verdict']}")
    _emit(args, payload, lines)


def cmd_reduce(args) -> int:
    ws = _parse_weight(args.weight)
    limits = _parse_limits()
    endo = _load_endo(args)
    trace = reduce_to_floor(ws, endo.components, limits, prefer=args.prefer)
    verified = _inverse_checked(args, ws, endo, trace)
    _emit_verdict(args, ReductionVerdict(ws, trace, verified))
    return 2 if trace.result == "stuck" else 0


def cmd_factor(args) -> int:
    ws = _parse_weight(args.weight)
    limits = _parse_limits()
    endo = _load_endo(args)
    factors, trace = factor_tame(ws, endo, limits)
    _inverse_checked(args, ws, endo, trace)
    if factors is None:
        payload = trace.to_json(ws)
        payload["factors"] = None
        _emit(args, payload, ["no factorization: " + trace.result])
        return 2
    payload = trace.to_json(ws)
    payload["factors"] = [f.to_json() for f in factors]
    lines = [f"{len(factors)} factors (application order):"]
    for f in factors:
        lines.append("  " + json.dumps(f.to_json(), sort_keys=True))
    _emit(args, payload, lines)
    return 0


def cmd_certify_nagata(args) -> int:
    verdict = certify_nagata()
    _emit_verdict(args, verdict)
    return 0 if verdict.all_rigorous() else 1


def cmd_check(args) -> int:
    ws = _parse_weight(args.weight)
    limits = _parse_limits()
    F, G = _parse_pair(_read_lines(args.file), args.file)
    which = args.which
    checkers = {
        "su": check_su_conditions,
        "quasi": check_quasi_su,
        "properties": verify_properties,
    }
    kind = which[len("type:"):] if which.startswith("type:") else None
    if which not in checkers and kind not in TYPE_NAMES:
        raise InputError(f"unknown check {which!r}")
    try:
        if kind is None:
            rep = checkers[which](ws, F, G, limits)
            payload, ok = rep.to_json(), rep.overall
        else:
            # the checkers reject a dependent F themselves; detect_type does not
            if not algebraically_independent(F):
                raise ValueError("F has algebraically dependent components")
            witness = detect_type(F, kind, limits, ws)
            payload = {f"type{kind}": witness.to_json() if witness else None}
            ok = witness is not None
    except ValueError as exc:
        raise InputError(f"{args.file}: {exc}") from exc
    lines = [json.dumps(payload, sort_keys=True, indent=1)]
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_check_inequality(args) -> int:
    ws = _parse_weight(args.weight)
    blocks = _split_blocks(_read_lines(args.file))
    if len(blocks) != 3:
        raise InputError("expected three blocks: generators, coefficients, g")
    try:
        fs = [parse_poly(line, N) for line in blocks[0]]
        coeffs = {}
        for line in blocks[1]:
            idx, _, body = line.partition(":")
            k = integer(idx, _UNSIGNED)
            if k in coeffs:
                raise InputError(f"coefficient index {k} given twice")
            coeffs[k] = parse_poly(body, N)
        if len(blocks[2]) != 1:
            raise InputError(f"g block: expected 1 polynomial, found {len(blocks[2])}")
        g = parse_poly(blocks[2][0], N)
        phi = AuxPoly(N, coeffs)
    except (PolyParseError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    try:
        report = su_inequality_report(ws, fs, phi, g)
    except ValueError as exc:
        raise InputError(f"{args.file}: {exc}") from exc
    payload = report.to_json()
    _emit(args, payload, [json.dumps(payload, sort_keys=True)])
    return 0 if report.holds is True else 1


def cmd_gen(args) -> int:
    for flag, value, least in (("--count", args.count, 0), ("--factors", args.factors, 0),
                               ("--coeff-bound", args.coeff_bound, 1),
                               ("--degree-bound", args.degree_bound, 1)):
        if value < least:
            raise InputError(f"{flag} must be at least {least}, got {value}")
    out = []
    for k in range(args.count):
        seed = args.seed + k
        try:
            endo, factors = random_tame(seed, args.factors, args.coeff_bound,
                                        args.degree_bound)
        except RuntimeError as exc:
            raise InputError(f"seed {seed}, {args.factors} factors: {exc}") from exc
        out.append({
            "seed": seed,
            "components": [poly_to_text(f) for f in endo.components],
            "inverse": [poly_to_text(f) for f in endo.inverse],
            "factors": [f.to_json() for f in factors],
        })
    payload = {"count": args.count, "seed": args.seed, "corpus": out}
    text = [json.dumps(payload, sort_keys=True, indent=1)]
    _emit(args, payload, text)
    return 0


def cmd_nagata_fixture(args) -> int:
    endo = nagata_endo()
    for f in endo.components:
        print(poly_to_text(f))
    if args.inverse:
        print()
        for f in endo.inverse:
            print(poly_to_text(f))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are input errors: usage and one
    message line on stderr, exit 3 (argparse's own 2 means stuck here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process; each parse_args fills a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tame3",
        description="Exact weighted-degree reduction tools for three-variable "
                    "polynomial maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_weight=True):
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        if with_weight:
            p.add_argument("--weight", default="total",
                           help="total | nagata-lex | 'a,b,c;d,e,f;g,h,i'")

    p = sub.add_parser("deg", help="weighted degree table of a triple")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_deg)

    p = sub.add_parser("reduce", help="iterate reductions to the degree floor")
    p.add_argument("file")
    p.add_argument("--inverse", default=None)
    p.add_argument("--prefer", choices=("elementary", "su"), default="elementary",
                   help="which search family to try first at each step")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("factor", help="full tame factorization")
    p.add_argument("file")
    p.add_argument("--inverse", default=None)
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("certify-nagata", help="rigorous non-tameness certificate")
    common(p, with_weight=False)
    p.set_defaults(func=cmd_certify_nagata)

    p = sub.add_parser("check", help="condition checkers on a pair of triples")
    p.add_argument("file")
    p.add_argument("which", help="su | quasi | properties | type:I..IV")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("check-inequality", help="degree inequality oracle")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check_inequality)

    p = sub.add_parser("gen", help="deterministic tame corpus")
    p.add_argument("--seed", type=integer, default=1)
    p.add_argument("--count", type=integer, default=1)
    p.add_argument("--factors", type=integer, default=4)
    p.add_argument("--coeff-bound", type=integer, default=3)
    p.add_argument("--degree-bound", type=integer, default=3)
    common(p, with_weight=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("nagata", help="print the classical triple (fixture)")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(func=cmd_nagata_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
