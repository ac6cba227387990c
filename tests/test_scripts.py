"""Smoke runs of the experiments under scripts/, which call the engine API."""

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
    for workload in doc["workloads"].values():
        assert workload["seeds"] == [11] and workload["digests_match"]
        assert [r["side"] for r in workload["runs"]] == ["parent", "change"]
        assert all(r["correct"] and r["failed"] == 0 for r in workload["runs"])
        assert set(workload["summary"]) == {m["name"] for m in spec["end_to_end"]}
        for stats in workload["summary"].values():
            assert stats["parent_q1"] <= stats["parent_median"] <= stats["parent_q3"]
            assert stats["change_wins"] in ("0/1", "1/1")
    assert doc["workloads"]["compose --heldout-seed 1"]["extra_args"] == "--heldout-seed 1"
