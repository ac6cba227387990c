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
