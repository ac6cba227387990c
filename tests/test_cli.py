import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tame3 import cli, engine
from tame3.algebra import Poly, poly_to_text
from tame3.engine import nagata_endo, random_tame, reduce_step
from tame3.search import SearchLimits

PKG_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env_extra=None, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tame3.cli", *args],
        capture_output=True, text=True, env=env, input=stdin,
    )


@pytest.fixture(scope="module")
def nagata_file(tmp_path_factory):
    out = run_cli(["nagata"])
    path = tmp_path_factory.mktemp("cli") / "nagata.txt"
    path.write_text(out.stdout)
    return str(path)


@pytest.fixture(scope="module")
def nagata_inverse_file(tmp_path_factory):
    out = run_cli(["nagata", "--inverse"])
    blocks = out.stdout.strip().split("\n\n")
    path = tmp_path_factory.mktemp("cli") / "nagata_inv.txt"
    path.write_text(blocks[1] + "\n")
    return str(path)


def test_deg_nagata_table(nagata_file):
    out = run_cli(["deg", nagata_file, "--weight", "nagata-lex", "--json"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["degrees"] == [[2, 0, 3], [1, 0, 2], [0, 0, 1]]
    assert payload["deg_F"] == [3, 0, 6]
    assert payload["floor"] == [1, 1, 1]
    assert payload["rank"] == 3


def test_deg_identity_total(tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("x1\nx2\nx3\n")
    out = run_cli(["deg", str(path), "--json"])
    payload = json.loads(out.stdout)
    assert payload["degrees"] == [[1], [1], [1]]
    assert payload["deg_F"] == [3]


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x1 +\nx2\nx3\n")
    out = run_cli(["deg", str(path)])
    assert out.returncode == 3
    assert "error" in out.stderr


def test_reduce_nagata_stuck(nagata_file, nagata_inverse_file):
    out = run_cli([
        "reduce", nagata_file, "--weight", "nagata-lex",
        "--inverse", nagata_inverse_file, "--json",
    ])
    assert out.returncode == 2
    payload = json.loads(out.stdout)
    assert payload["result"] == "stuck"
    assert payload["automorphism_status"] == "verified"
    assert payload["verdict"].startswith("stuck with rigorous obstructions")


def test_reduce_unverified_downgrades(nagata_file):
    out = run_cli(["reduce", nagata_file, "--weight", "nagata-lex", "--json"])
    assert out.returncode == 2
    payload = json.loads(out.stdout)
    assert payload["verdict"] == "no reduction found"


def test_reduce_rejects_bad_inverse(nagata_file, tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("x1\nx2\nx3\n")
    out = run_cli(["reduce", nagata_file, "--inverse", str(path)])
    assert out.returncode == 3


def _write_triple(path, triple):
    path.write_text("".join(poly_to_text(f) + "\n" for f in triple))
    return str(path)


@pytest.fixture(scope="module")
def inverse_files(tmp_path_factory):
    """Map, inverse and the inverse with one coefficient changed, for corpus
    seed 13 (a floor map) and Nagata's map (stuck)."""
    out = tmp_path_factory.mktemp("inverses")
    files = {}
    for name, endo in (("floor", random_tame(13, 13 % 5 + 1)[0]), ("nagata", nagata_endo())):
        G = endo.inverse
        files[name] = tuple(_write_triple(out / f"{name}-{part}.txt", triple) for part, triple in (
            ("map", endo.components), ("inverse", G),
            ("changed", (G[0] + Poly.constant(1, 3), *G[1:]))))
    return files


@pytest.mark.parametrize("command", ["reduce", "factor"])
@pytest.mark.parametrize("name", ["floor", "nagata"])
def test_changed_inverse_exit_3(inverse_files, command, name):
    F, _, changed = inverse_files[name]
    weight = "nagata-lex" if name == "nagata" else "total"
    out = run_cli([command, F, "--inverse", changed, "--weight", weight, "--json"])
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"input error: {changed}: not the inverse of {F}"]


def test_floor_inverse_checked_without_composition(inverse_files, monkeypatch, capsys):
    # a floor trace checks its inverse through its factors: no composition
    F, G, _ = inverse_files["floor"]
    plain = {}
    for command in ("reduce", "factor"):
        assert cli.main([command, F, "--json"]) == 0
        plain[command] = json.loads(capsys.readouterr().out)
    assert plain["reduce"]["automorphism_status"] == "unverified"

    def no_composition(*_):
        raise AssertionError("compose_endo called")

    monkeypatch.setattr(engine, "compose_endo", no_composition)
    assert cli.main(["reduce", F, "--inverse", G, "--json"]) == 0
    assert '"automorphism_status":"verified"' in capsys.readouterr().out
    assert cli.main(["factor", F, "--inverse", G, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == plain["factor"]


def test_factor_roundtrip(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x1 + x2^2\nx2\nx3 - 2*x1 - 2*x2^2\n")
    out = run_cli(["factor", str(path), "--json"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["result"] == "floor"
    assert payload["factors"]


def test_certify_nagata_stable_and_green(assert_rigorous_stuck):
    a = run_cli(["certify-nagata", "--json"])
    b = run_cli(["certify-nagata", "--json"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert_rigorous_stuck(json.loads(a.stdout))


def test_certify_nagata_is_the_reduce_document(nagata_file, nagata_inverse_file):
    cert = run_cli(["certify-nagata", "--json"])
    reduce = run_cli(["reduce", nagata_file, "--inverse", nagata_inverse_file,
                      "--weight", "nagata-lex", "--json"])
    assert (cert.returncode, reduce.returncode) == (0, 2)
    assert cert.stdout == reduce.stdout


@pytest.mark.parametrize("weight", ["total", "nagata-lex"])
def test_reduce_nagata_rigorously_stuck(weight, nagata_file, nagata_inverse_file,
                                        assert_rigorous_stuck):
    out = run_cli(["reduce", nagata_file, "--inverse", nagata_inverse_file,
                   "--weight", weight, "--json"])
    assert out.returncode == 2
    assert_rigorous_stuck(json.loads(out.stdout))


def test_check_pair_su_fail_for_identity_pair(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("x1 + x2^2\nx2\nx3\n\nx1 + x2^2\nx2\nx3\n")
    out = run_cli(["check", str(path), "su", "--json"])
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    assert payload["SU5"]["holds"] is False


def test_check_type_scan(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("x1 + x2^2\nx2\nx3\n\nx1\nx2\nx3\n")
    out = run_cli(["check", str(path), "type:IV", "--json"])
    assert out.returncode == 1
    assert json.loads(out.stdout)["typeIV"] is None


@pytest.mark.parametrize("weight", ["total", "1;1;1"])
def test_check_type_runs_at_total_weight_spellings(tmp_path, weight):
    # type detection is defined at total weight; both spellings run the scan
    path = tmp_path / "pair.txt"
    path.write_text("x1 + x2^2\nx2\nx3\n\nx1\nx2\nx3\n")
    out = run_cli(["check", str(path), "type:IV", "--weight", weight, "--json"])
    assert out.returncode == 1 and out.stderr == ""
    assert json.loads(out.stdout)["typeIV"] is None


def test_check_inequality(tmp_path):
    path = tmp_path / "ineq.txt"
    path.write_text("x1\n\n0: x1\n1: 1\n\nx2\n")
    out = run_cli(["check-inequality", str(path), "--json"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["holds"] is True


_DEPENDENT = "generators are algebraically dependent"


@pytest.mark.parametrize("text,code,out,err", [
    ("x1\n\n0: x1\n1: 1\n\nx2\n", 0,
     '{"aux_degree":[1],"holds":true,"lhs":[1],"multiplicity":0,"rhs":[1],"wedge_term":[2]}\n',
     None),
    ("x1\nx2\nx3\n\n0: x1\n1: 1\n\nx2\n", 0,
     '{"aux_degree":[1],"holds":true,"lhs":[1],"multiplicity":0,"rhs":[1],"wedge_term":null}\n',
     None),
    ("x1\n\n0: -x1\n1: 1\n\nx1\n", 1,
     '{"aux_degree":[1],"holds":"vacuous-false-precondition","lhs":null,"multiplicity":1,'
     '"rhs":null,"wedge_term":null}\n', None),
    ("x1\n\n0: x1\n1: 1\n\n3\n", 0,
     '{"aux_degree":[1],"holds":true,"lhs":[1],"multiplicity":0,"rhs":[1],"wedge_term":null}\n',
     None),
    ("x1\nx1^2\n\n0: x1\n1: 1\n\nx2\n", 3, "", _DEPENDENT),
    ("2\n\n0: x1\n1: 1\n\nx2\n", 3, "", _DEPENDENT),
], ids=["readme", "three-generators", "vanishing-phi-at-g", "constant-g", "dependent-pair",
        "constant-generator"])
def test_check_inequality_json_bytes(tmp_path, capsys, text, code, out, err):
    # the inputs where w = df_1 ^ ... ^ df_k or w ^ dg is zero: a grade above
    # three, dg = 0, dependent or constant generators
    path = tmp_path / "ineq.txt"
    path.write_text(text)
    assert cli.main(["check-inequality", str(path), "--json"]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    if err is None:
        assert captured.err == ""
    else:
        assert captured.err == f"input error: {path}: {err}\n"


def test_gen_deterministic():
    a = run_cli(["gen", "--seed", "3", "--count", "2", "--factors", "3", "--json"])
    b = run_cli(["gen", "--seed", "3", "--count", "2", "--factors", "3", "--json"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert len(payload["corpus"]) == 2
    assert payload["corpus"][0]["factors"]


def test_limits_env_and_flag_precedence(monkeypatch, capsys, nagata_file):
    # TAME3_LIMITS sets each of the four fields; there is no limits flag
    monkeypatch.setenv("TAME3_LIMITS", "bidegree=4, rounds=2,candidates=5,product-terms=7")
    assert cli._parse_limits() == SearchLimits(4, 2, 5, 7)
    monkeypatch.setenv("TAME3_LIMITS", "rounds=3")
    assert cli._parse_limits() == SearchLimits(max_cancellation_rounds=3)
    out = run_cli(["reduce", nagata_file, "--weight", "nagata-lex", "--json"],
                  env_extra={"TAME3_LIMITS": "bidegree=4,rounds=2"})
    assert out.returncode == 2
    # a bogus key or value is an input error; deg ignores limits entirely
    for env, message in (("bogus=1", "unknown TAME3_LIMITS key 'bogus'"),
                         ("bidegree=abc", "bad TAME3_LIMITS entry 'bidegree=abc'")):
        monkeypatch.setenv("TAME3_LIMITS", env)
        assert cli.main(["reduce", nagata_file]) == 3
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert cli.main(["deg", nagata_file]) == 0
    out = run_cli(["reduce", nagata_file, "--limits-bidegree", "6"])
    assert out.returncode == 3
    assert out.stderr.startswith("usage: tame3")
    assert "unrecognized arguments: --limits-bidegree 6" in out.stderr
    assert "Traceback" not in out.stderr


def test_custom_weight_vector(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x1\nx2\nx3\n")
    out = run_cli(["deg", str(path), "--weight", "2,0;0,1;0,1", "--json"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["degrees"] == [[2, 0], [0, 1], [0, 1]]
    out = run_cli(["deg", str(path), "--weight", "0,0;0,1;0,1"])
    assert out.returncode == 3


def test_reduce_step_rejects_dependent_floor(wt, xyz):
    # (x1, x1, x3) sits at the degree floor but has a zero Jacobian
    x1, _, x3 = xyz
    with pytest.raises(ValueError, match="dependent"):
        reduce_step(wt, (x1, x1, x3))


def test_reduce_dependent_triple_is_input_error(tmp_path):
    path = tmp_path / "dep.txt"
    path.write_text("x1\nx1\nx3\n")
    out = run_cli(["reduce", str(path)])
    assert out.returncode == 3
    assert "result: floor" not in out.stdout
    assert "dependent" in out.stderr


@pytest.mark.parametrize("argv, text, env", [
    (["deg", "{f}", "--weight", "1,0;0,1"], "x1\nx2\nx3\n", None),
    (["reduce", "{f}"], "x1 + x2^2\nx2\nx3\n", {"TAME3_LIMITS": "bidegree=abc"}),
    (["reduce", "{f}"], "x1\n0\nx3\n", None),
    (["factor", "{f}"], "x1 + x2^2\nx1^2 + 2*x1*x2^2 + x2^4\nx3\n", None),
    (["check", "{f}", "su"], "x1\nx1\nx3\n\nx1\nx1\nx3\n", None),
    (["check", "{f}", "properties"], "x1\nx2\nx3\n\nx1\nx2\nx3\n", None),
    (["check", "{f}", "type:V"], "x1\nx2\nx3\n\nx1\nx2\nx3\n", None),
    (["check", "{f}", "type:I", "--weight", "nagata-lex"], "x1\nx2\nx3\n\nx1\nx2\nx3\n", None),
    (["check", "{f}", "type:IV"],
     "x1^4 + x2\nx1^6 + 2*x1^3*x3 + x3^2\nx1^3 + x3\n\nx1\nx2\nx3\n", None),
    (["check-inequality", "{f}"], "x1\n\n0: x1\n1: 1\n\n0\n", None),
    (["check-inequality", "{f}"], "x1\nx1\n\n0: x1\n1: 1\n\nx2\n", None),
    (["check-inequality", "{f}"], "x1\n\n-1: x1\n\nx2\n", None),
    (["check-inequality", "{f}"], "x1\n\n0: x1\n1: 1\n\nx2\nx3\n", None),
    (["check-inequality", "{f}"], "x1\n\n0: x1\n0: 1\n\nx2\n", None),
    (["gen", "--factors", "-1"], "", None),
    (["gen", "--coeff-bound", "0"], "", None),
    (["gen", "--degree-bound", "0"], "", None),
    (["gen", "--count", "-2"], "", None),
    (["reduce", "{f}"], "1/0*x1\nx2\nx3\n", None),
    (["reduce", "{f}", "--inverse", "{g}"], ("x1\nx2\nx3\n", "1/0*x1\nx2\nx3\n"), None),
    (["check-inequality", "{f}"], "x1\n\n0: 1/0*x1\n\nx2\n", None),
    (["deg", "{f}"], b"x1\n\xff\nx3\n", None),
    (["check", "{f}", "su"], b"x1\nx2\nx3\n\n\xff\nx2\nx3\n", None),
    (["check-inequality", "{f}"], b"x1\n\n0: \xff\n\nx2\n", None),
    (["reduce", "{f}", "--inverse", "{g}"], ("x1\nx2\nx3\n", b"x1\n\xff\nx3\n"), None),
    (["deg", "{f}"], "x\u0661 + \u0663*x2\nx2\nx3\n", None),
    (["deg", "{f}"], "x1\nx2\n\U0001d7d1/2*x3\n", None),
    (["deg", "{f}", "--weight", "\u0661,0;0,1;0,1"], "x1\nx2\nx3\n", None),
    (["reduce", "{f}"], "x1 + x2^2\nx2\nx3\n", {"TAME3_LIMITS": "bidegree=\u0661\u0664"}),
    (["check-inequality", "{f}"], "x1\n\n\u0660: x1\n1: 1\n\nx2\n", None),
    (["deg", "{f}"], "x1 +\u00a0x2\nx2\nx3\n", None),
    (["deg", "{f}"], "x1\u2028x2\u2028x3\n", None),
], ids=["weight-arity", "limits-value", "zero-component", "factor-dependent",
        "check-dependent", "properties-outside-block", "unknown-type", "type-at-lex-weight",
        "type-dependent",
        "inequality-zero-g", "inequality-dependent", "inequality-negative-exponent",
        "inequality-two-line-g", "inequality-repeated-index", "gen-negative-factors",
        "gen-zero-coeff-bound", "gen-zero-degree-bound", "gen-negative-count",
        "zero-denominator", "inverse-zero-denominator", "inequality-zero-denominator",
        "deg-not-utf8", "check-not-utf8", "inequality-not-utf8", "inverse-not-utf8",
        "arabic-indic-digits", "mathematical-bold-digit", "weight-arabic-indic-digit",
        "limits-arabic-indic-digits", "inequality-arabic-indic-index", "no-break-space",
        "line-separator"])
def test_bad_input_exit_3_without_traceback(tmp_path, argv, text, env):
    # a pair of texts fills {f} and {g} (a second input file); bytes are written as they are
    path, second = tmp_path / "in.txt", tmp_path / "second.txt"
    for p, t in zip((path, second), (text, "") if isinstance(text, (str, bytes)) else text):
        p.write_bytes(t if isinstance(t, bytes) else t.encode())
    out = run_cli([a.format(f=path, g=second) for a in argv], env_extra=env)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_ascii_cases_of_the_non_ascii_inputs_pass(tmp_path, monkeypatch):
    # the inputs of the four non-ASCII cases above, written in ASCII: each
    # is accepted, so it is the digit or the space that is refused
    path = tmp_path / "in.txt"
    path.write_text("x1 + x2\nx2\nx3\n")
    assert cli.main(["deg", str(path), "--weight", " 1, -2;0,1 ;0,1"]) == 0
    monkeypatch.setenv("TAME3_LIMITS", " bidegree = 14 ")
    assert cli._parse_limits() == SearchLimits(max_bidegree=14)
    path.write_text("x1\n\n0: x1\n1: 1\n\nx2\n")
    assert cli.main(["check-inequality", str(path)]) == 0


def test_gen_options_read_ascii_digits():
    # argparse reads the gen options with cli.integer, and names it on a refusal
    out = run_cli(["gen", "--seed", "\u0661"])
    assert out.returncode == 3 and "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1] == (
        "tame3 gen: error: argument --seed: invalid integer value: '\u0661'")
    assert run_cli(["gen", "--seed", " -1 "]).returncode == 0


def test_parser_is_built_once_and_parses_into_fresh_namespaces(capsys, nagata_file):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    lex = parser.parse_args(["deg", nagata_file, "--weight", "nagata-lex", "--json"])
    plain = parser.parse_args(["deg", nagata_file])
    fixture = parser.parse_args(["nagata"])
    assert lex is not plain and (lex.weight, lex.json) == ("nagata-lex", True)
    assert (plain.weight, plain.json) == ("total", False)
    assert fixture.func is cli.cmd_nagata_fixture and vars(fixture).keys() == {
        "command", "inverse", "func"}
    # subcommands run back to back in one process print what a fresh process does
    for argv in (["deg", nagata_file, "--weight", "nagata-lex", "--json"],
                 ["nagata", "--inverse"], ["deg", nagata_file]):
        fresh = run_cli(argv)
        assert cli.main(argv) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout


def test_undecodable_stdin_exit_3_naming_it(tmp_path):
    # strict decoding makes the read itself fail, as a file's read does
    path = tmp_path / "in.txt"
    path.write_bytes(b"x1\n\xff\nx3\n")
    env = dict(os.environ, PYTHONPATH=PKG_SRC, PYTHONIOENCODING="utf-8:strict")
    with path.open("rb") as fh:
        out = subprocess.run([sys.executable, "-m", "tame3.cli", "deg", "-"], stdin=fh,
                             capture_output=True, text=True, env=env)
    assert out.returncode == 3
    assert out.stderr.startswith("input error: -: ")
    assert len(out.stderr.strip().splitlines()) == 1


def test_gen_without_a_clamped_draw_exit_3(monkeypatch, capsys):
    # as `gen --factors 40` ends after 256 draws, but a clamp rejecting every draw is instant
    monkeypatch.setattr(engine, "_compose_clamped", lambda factors: None)
    assert cli.main(["gen", "--seed", "5", "--count", "2", "--factors", "40"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "input error: seed 5, 40 factors: could not sample a clamped tame composition"]


@pytest.mark.parametrize("argv", [
    ["reduce", "{f}", "--limits-bidegree", "abc"],
    ["gen", "--count", "x"],
    ["reduce", "{f}", "--prefer", "foo"],
    ["frobnicate"],
    ["reduce"],
], ids=["limits-flag-unknown", "gen-count-not-int", "unknown-choice", "unknown-subcommand",
        "missing-file"])
def test_usage_error_exit_3_without_traceback(tmp_path, argv):
    # argparse's own exit code 2 would read as "stuck"
    path = tmp_path / "in.txt"
    path.write_text("x1\nx2\nx3\n")
    out = run_cli([a.format(f=path) for a in argv])
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert out.stderr.strip().splitlines()[-1].startswith("tame3")
    assert "error:" in out.stderr


@pytest.mark.parametrize("argv", [["--help"], ["reduce", "--help"]])
def test_help_exits_0(argv):
    out = run_cli(argv)
    assert out.returncode == 0 and "usage:" in out.stdout
