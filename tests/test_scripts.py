"""Smoke runs of the experiments under scripts/, which call the engine API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certificate_demo_matches_cli():
    demo = _run("scripts/certificate_demo.py")
    assert demo.returncode == 0, demo.stderr
    assert "stuck | all reasons rigorous: True" in demo.stdout
    cli = _run("-m", "tame3.cli", "certify-nagata", "--json")
    assert cli.returncode == 0
    assert demo.stdout.splitlines()[-1] == cli.stdout.strip()


def test_su_number_experiment_runs():
    out = _run("scripts/su_number_experiment.py", "--seeds", "2")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["weight"] == "total"
    assert len(payload["results"]) == 2


def test_bench_pairs_summarizes_each_metric(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = _run("scripts/bench_pairs.py", "--parent", str(ROOT), "--change", str(ROOT),
                "--pairs", "1", "--scale", "0.02", "--seconds", "0.3",
                "--workload", "compose", "--workload", "compose --heldout-seed 1",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["workloads"]) == {"compose", "compose --heldout-seed 1"}
    bench_pairs = _load_script("bench_pairs")
    assert doc["tree_sha256"] == {"parent": bench_pairs.tree_digest(ROOT),
                                  "change": bench_pairs.tree_digest(ROOT)}
    for workload in doc["workloads"].values():
        assert workload["seeds"] == [11] and workload["digests_match"]
        assert [r["side"] for r in workload["runs"]] == ["parent", "change"]
        assert all(r["correct"] and r["failed"] == 0 for r in workload["runs"])
        assert set(workload["summary"]) == {m["name"] for m in spec["end_to_end"]}
        for stats in workload["summary"].values():
            assert stats["parent_q1"] <= stats["parent_median"] <= stats["parent_q3"]
            assert stats["change_wins"] in ("0/1", "1/1")
    assert doc["workloads"]["compose --heldout-seed 1"]["extra_args"] == "--heldout-seed 1"
    # after each workload, one stderr line per metric, from its summary
    for workload, result in doc["workloads"].items():
        for line in bench_pairs.summary_lines(workload, result["summary"]):
            assert line in proc.stderr.splitlines()
    for workload in doc["workloads"].values():
        for stats in workload["summary"].values():
            assert type(stats["claim_met"]) is bool and type(stats["within_bound"]) is bool

    # the two pipeline tests on made-up pairs: parent median 100, q3 - q1 2.5
    parent = [90, 95, 100, 100, 100, 100, 100, 100, 105, 110]

    def tests(change, better="higher", parent=parent):
        runs = [{"side": side, "seed": k, "metrics": {"m": v}}
                for side, values in (("parent", parent), ("change", change))
                for k, v in enumerate(values)]
        out = bench_pairs.summarize(runs, {"m": {"better": better, "bound": 0.25}})["m"]
        return out["claim_met"], out["within_bound"]

    # 9 of 10 pairs won and the median 3 better: met
    assert tests([v + 3 for v in parent[:9]] + [99]) == (True, True)
    # 8 of 10 won, or a median gain within the parent's spread: not met
    assert tests([v + 3 for v in parent[:8]] + [99, 100]) == (False, True)
    assert tests([v + 2 for v in parent]) == (False, True)
    assert tests([v - 3 for v in parent], better="lower") == (True, True)
    # the bound is a fraction of the parent median, met at its edge
    flat = [100] * 10
    assert tests([75] * 10, parent=flat) == (False, True)
    assert tests([74] * 10, parent=flat) == (False, False)
    assert tests([125] * 10, "lower", flat) == (False, True)
    assert tests([126] * 10, "lower", flat) == (False, False)


def test_bench_pairs_prints_one_line_per_metric():
    bench_pairs = _load_script("bench_pairs")
    # a zero parent median has no ratio
    runs = [{"side": side, "seed": k, "metrics": {"items_per_s": v, "item_p50_ms": 0.0}}
            for side, values in (("parent", [100, 110]), ("change", [120, 130]))
            for k, v in enumerate(values)]
    spec = {"items_per_s": {"better": "higher", "bound": 0.25},
            "item_p50_ms": {"better": "lower", "bound": 0.25}}
    assert bench_pairs.summary_lines("compose", bench_pairs.summarize(runs, spec)) == [
        "compose items_per_s: 105 -> 125, ratio 1.1905, wins 2/2, claim_met True, "
        "within_bound True",
        "compose item_p50_ms: 0 -> 0, ratio n/a, wins 0/2, claim_met False, "
        "within_bound True",
    ]


def test_bench_pairs_runs_each_side_from_source(tmp_path, monkeypatch):
    # every run gets its own empty bytecode cache and writes none, so a side
    # never reads bytecode left by the other side or an earlier run
    bench_pairs = _load_script("bench_pairs")
    envs = []

    def fake_run(cmd, cwd, capture_output, text, env):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        envs.append((dict(env), prefix.is_dir() and not any(prefix.iterdir())))
        report = {"report": {"digest": "d"}}
        result = {"attempted": 1, "correct": True, "failed": 0,
                  "metrics": {"items_per_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(report) + "\n"
                                           + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for _ in range(2):
        run = bench_pairs.run_once(tmp_path, ["compose"], 11, 0.1, 1.0)
        assert run["digest"] == "d" and run["metrics"] == {"items_per_s": 1.0}
    (first, first_empty), (second, second_empty) = envs
    assert first_empty and second_empty
    assert first["PYTHONDONTWRITEBYTECODE"] == second["PYTHONDONTWRITEBYTECODE"] == "1"
    assert first["PYTHONPYCACHEPREFIX"] != second["PYTHONPYCACHEPREFIX"]
    assert not Path(first["PYTHONPYCACHEPREFIX"]).exists()


def test_bench_pairs_tree_digest_sees_one_byte(tmp_path):
    bench_pairs = _load_script("bench_pairs")
    trees = []
    for name, body in (("a", b"x = 1\n"), ("b", b"x = 2\n"), ("c", b"x = 1\n")):
        root = tmp_path / name
        (root / "src" / "tame3").mkdir(parents=True)
        (root / "bench").mkdir()
        (root / "src" / "tame3" / "algebra.py").write_bytes(body)
        (root / "bench" / "run.py").write_bytes(b"pass\n")
        (root / "notes.txt").write_bytes(name.encode())  # outside the globs
        trees.append(bench_pairs.tree_digest(root))
    assert trees[0] != trees[1] and trees[0] == trees[2]
    # a file renamed with the same bytes is a different tree
    moved = tmp_path / "c" / "bench" / "run.py"
    moved.rename(moved.with_name("run2.py"))
    assert bench_pairs.tree_digest(tmp_path / "c") != trees[0]
