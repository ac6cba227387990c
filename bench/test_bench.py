"""Tests of the benchmark itself: every workload end to end at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from tame3 import algebra, engine, search  # noqa: E402
from reference import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seconds", "0", "--scale", "0.03"]


def _run(workload, trace, seed=3, cwd=ROOT, extra=()):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *TINY, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_twice(request):
    return request.param, [_result(_run(request.param, 1)) for _ in range(2)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    report, result = _result(_run(workload, 0))
    _check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = report["environment"]
    assert env["seed"] == 3 and env["workload"] == workload and env["nproc"] >= 1
    assert report["digest_stable"] and not report["errors"]


def test_layer_metrics_match_the_spec_and_counts_repeat(traced_twice):
    workload, runs = traced_twice
    for report, result in runs:
        _check_result(result, SPEC["per_layer"])
        assert report["traced_matches_untraced"] and report["wrappers_restored"]
    (_, first), (_, second) = runs
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead_ratio":
            assert first["metrics"][m["name"]]["value"] == \
                second["metrics"][m["name"]]["value"], m["name"]
    su_calls = first["metrics"]["search.find_su_reduction.calls"]["value"]
    assert (su_calls > 0) == (workload == "structure")


def test_seed_decides_the_inputs():
    digests = [_result(_run("roundtrip-total", 0, seed=s))[0]["digest"] for s in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]
    heldout = _result(_run("roundtrip-total", 0, seed=5, extra=("--heldout-seed", "1")))
    assert heldout[0]["digest"] != digests[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (algebra.Poly.__mul__, search.find_elementary_reduction)
    tracer = Tracer()
    x = algebra.Poly.variable(0, 3)
    with tracer.installed():
        assert engine.find_elementary_reduction is search.find_elementary_reduction
        assert engine.find_elementary_reduction is not originals[1]
        x * x  # outside a root span: not recorded
        with tracer.root():
            (x + x) * x
        summary = tracer.summary()
        spans = tracer.spans()
    assert (algebra.Poly.__mul__, engine.find_elementary_reduction) == originals
    assert tracer.restored()
    assert summary["algebra.Poly.mul"]["calls"] == 1
    assert summary["algebra.Poly.mul"]["term_pairs"] == 1
    assert summary["algebra.Poly.add"]["calls"] == 1
    root = spans[0]
    assert root[0] == "item" and root[1] == -1
    for name, parent, start, end in spans[1:]:
        assert parent == 0 and root[2] <= start <= end <= root[3]


def test_reference_seconds_use_the_samples_inside_a_stretch():
    speed = Speed()
    speed.times.extend([1.0, 2.0, 3.0, 4.0])
    speed.factors.extend([0.5, 1.0, 2.0, 4.0])
    assert speed.reference(1.5, 3.5, 10.0) == 10.0 * (1.0 + 2.0) / 2
    assert speed.reference(2.2, 2.4, 1.0) == (1.0 + 2.0) / 2  # no sample inside
    assert speed.reference(0.1, 0.2, 1.0) == 0.5               # before the first


def test_sampler_leaves_out_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speed()
    with speed.sampling():
        mark = speed.start()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        start, end, wall = speed.stop(mark)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.factors) >= 3 and speed.spent > 0
    assert wall == pytest.approx(end - start - speed.spent, abs=speed.spent)
    assert wall < end - start
