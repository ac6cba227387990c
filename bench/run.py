"""tame3 benchmark: seeded verdict workloads, end to end and layer by layer.

    python3 bench/run.py --workload roundtrip-total --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop in this process and thread: the next item
starts only when the previous one has its verdict.  Whole passes over the
workload's items repeat while another is expected to end within
``--seconds`` (at least one pass), cheap instances short of samples get
more for the rest of the time (``_sample``), and every item's verdict is
checked against its known answer.  Times are reported in reference
seconds, corrected for the machine's speed at the time (``reference.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` sets up and runs
one pass with every layer wrapped (see ``tracing.py``), then untraced passes
for the rest of the time, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the result object; the line
before it is a report with the environment, the sample counts and the
digest of the workload's canonical outputs.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import tame3  # noqa: E402
except ImportError:
    sys.exit(f"bench: the tame3 sources are missing under {ROOT / 'src'}")
if Path(tame3.__file__).resolve().parent != ROOT / "src" / "tame3":
    sys.exit(f"bench: imported tame3 from {tame3.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from reference import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _START
SETUP_REPEATS = 3
MIN_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "item_max_ms": "ms",
    "correct_share": "ratio",
    "first_try_share": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "calls": "count", "self_s": "s", "term_pairs": "count", "rows": "count",
    "solved_ratio": "ratio", "found_ratio": "ratio", "rounds_used": "count",
    "inconclusive": "count",
}


class Pass:
    """Runs items in order, keyed by their canonical index: time to the
    verdict (wall and reference seconds), whether the verdict is right and
    needed the retry, and the digest of the canonical outputs.  Starts no
    item after `deadline`.  Runs inside ``speed.sampling()``."""

    def __init__(self, items, speed: Speed, tracer: Tracer | None = None,
                 deadline: float = math.inf):
        self.seconds: dict[int, float] = {}
        self.ref: dict[int, float] = {}
        self.correct: dict[int, bool] = {}
        self.retried: dict[int, bool] = {}
        self.errors: list[str] = []
        canon: dict[int, str] = {}
        spans = {}
        for item in items:
            k = item.index
            if time.perf_counter() >= deadline:
                break
            self.correct[k] = self.retried[k] = False
            mark = speed.start()
            try:
                with tracer.root() if tracer else contextlib.nullcontext():
                    out = item.run()
                spans[k] = speed.stop(mark)
                self.correct[k], self.retried[k] = item.check(out)
                canon[k] = item.canon(out)
            except Exception as exc:  # a crash is a wrong verdict, not a lost run
                spans.setdefault(k, speed.stop(mark))
                self.errors.append(f"{item.group}[{k}]: {type(exc).__name__}: {exc}")
                canon[k] = f"error:{type(exc).__name__}"
        speed.sample()
        for k, (start, end, wall) in spans.items():
            self.seconds[k] = wall
            self.ref[k] = speed.reference(start, end, wall)
        self.item_s = sum(self.seconds.values())
        self.item_ref_s = sum(self.ref.values())
        digest = hashlib.sha256()
        for k in sorted(canon):
            digest.update(canon[k].encode())
            digest.update(b"\n")
        self.digest = digest.hexdigest()
        self.failed = list(self.correct.values()).count(False)
        self.retries = list(self.retried.values()).count(True)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": args.heldout_seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _quantile(sorted_values: list, q: float) -> float:
    """Nearest rank: the smallest value with at least q of the sample at or
    below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _build(args, workdir: Path):
    return workloads.build(args.workload, args.seed, args.heldout_seed, args.scale, workdir)


def _setup(args, workdir: Path, speed: Speed, tracer: Tracer | None = None):
    """Builds the inputs SETUP_REPEATS times (once when traced); returns
    the items, each build's time in reference seconds, and the import time
    in reference seconds at the speed sampled during the first build."""
    times = []
    import_s = None
    for _ in range(1 if tracer else SETUP_REPEATS):
        first = len(speed.factors)
        mark = speed.start()
        with tracer.root() if tracer else contextlib.nullcontext():
            items = _build(args, workdir)
        span = speed.stop(mark)
        speed.sample()
        times.append(speed.reference(*span))
        if import_s is None:
            import_s = IMPORT_S * statistics.median(speed.factors[first:])
    # set-up objects never become garbage; keep the collector off them
    gc.collect()
    gc.freeze()
    return items, times, import_s


def _sample(items, speed: Speed, seconds: float) -> tuple[list, list]:
    """Passes over all items while another one is expected to end within
    `seconds`, then, for the rest of `seconds`, rounds that give each cheap
    instance (best time under 1% of `seconds`) with fewer than MIN_SAMPLES
    samples one more.  At least one pass.

    Where a few heavy instances make passes long (`roundtrip-lex`), the many
    cheap ones that set the median and p95 would otherwise get only one or
    two samples; topping them up costs a fraction of a pass.
    """
    perf = time.perf_counter
    deadline = perf() + seconds
    per_item = [[] for _ in items]
    runs = []

    def run(p: Pass):
        runs.append(p)
        for k, t in p.seconds.items():
            per_item[k].append(t)

    run(Pass(items, speed))
    while perf() + runs[-1].item_s < deadline:
        run(Pass(items, speed))
    passes = len(runs)
    while perf() < deadline:
        short = [item for item in items if len(per_item[item.index]) < MIN_SAMPLES
                 and min(per_item[item.index]) < seconds / 100]
        if not short:
            break
        run(Pass(short, speed, deadline=deadline))
    return runs[:passes], runs[passes:]


def end_to_end(args, workdir: Path, speed: Speed) -> tuple[dict, dict]:
    items, setup_times, import_s = _setup(args, workdir, speed)
    passes, top_ups = _sample(items, speed, args.seconds)
    runs = passes + top_ups
    attempted = sum(len(p.correct) for p in runs)
    failed = sum(p.failed for p in runs)
    retried = sum(p.retries for p in runs)
    digests = {p.digest for p in passes}

    # An instance's time is the median of its runs, each in reference
    # seconds (see reference.py); the wall-clock figures go to the report.
    ref = [[] for _ in items]
    wall = [[] for _ in items]
    for p in runs:
        for k, t in p.ref.items():
            ref[k].append(t)
            wall[k].append(p.seconds[k])
    instance = sorted(statistics.median(ts) for ts in ref)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        **_latency(instance),
        "correct_share": (attempted - failed) / attempted,
        "first_try_share": (attempted - retried) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "instances": len(items),
        "groups": _group_sizes(items),
        "passes": len(passes),
        "top_up_runs": sum(len(p.seconds) for p in top_ups),
        "pass_item_s": [p.item_s for p in passes],
        "pass_item_ref_s": [p.item_ref_s for p in passes],
        "percentile_samples": len(instance),
        "import_s": IMPORT_S,
        "setup_runs_ref_s": setup_times,
        "wall": _latency(sorted(statistics.median(ts) for ts in wall)),
        "speed": speed.summary(),
        "digest": sorted(digests)[0],
        "digest_stable": len(digests) == 1,
        "errors": [e for p in runs for e in p.errors][:10],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def _latency(instance: list) -> dict:
    """Throughput and percentiles of sorted per-instance times (seconds)."""
    return {
        "items_per_s": len(instance) / sum(instance),
        "item_p50_ms": 1e3 * statistics.median(instance),
        "item_p95_ms": 1e3 * _quantile(instance, 0.95),
        "item_max_ms": 1e3 * instance[-1],
    }


def per_layer(args, workdir: Path, speed: Speed) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer.installed():
        items, _, _ = _setup(args, workdir, speed, tracer)
        started = time.perf_counter()
        traced = Pass(items, speed, tracer)
        summary = tracer.summary()
        spans = tracer.span_count
    restored = tracer.restored()

    untraced = []
    while not untraced or time.perf_counter() - started < args.seconds:
        untraced.append(Pass(items, speed))
    agree = all(p.correct == traced.correct and p.retried == traced.retried
                and p.digest == traced.digest for p in untraced)

    values = {}
    for layer, stats in summary.items():
        calls = stats["calls"]
        for stat, value in stats.items():
            if stat in ("found", "solved"):
                stat, value = f"{stat}_ratio", value / calls if calls else 0.0
            values[f"{layer}.{stat}"] = (value, LAYER_UNITS[stat])
    untraced_s = statistics.median(p.item_ref_s for p in untraced)
    values["trace.overhead_ratio"] = (traced.item_ref_s / untraced_s - 1, "ratio")
    values["trace.spans"] = (spans, "count")

    attempted = len(items) * (1 + len(untraced))
    failed = traced.failed + sum(p.failed for p in untraced)
    report = {
        "instances": len(items),
        "groups": _group_sizes(items),
        "untraced_passes": len(untraced),
        "traced_pass_ref_s": traced.item_ref_s,
        "untraced_pass_ref_s": untraced_s,
        "speed": speed.summary(),
        "digest": traced.digest,
        "traced_matches_untraced": agree,
        "wrappers_restored": restored,
        "errors": (traced.errors + [e for p in untraced for e in p.errors])[:10],
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    result = {"correct": failed == 0 and agree and restored, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def _group_sizes(items) -> dict:
    return dict(sorted(Counter(item.group for item in items).items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the per-instance sign changes and the item order")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=0,
                        help="redraws the corpus, SU pairs and inequality instances "
                             "(0: the acceptance-test inputs)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each instance family to build (tests use a "
                             "small one)")
    args = parser.parse_args(argv)
    if args.heldout_seed < 0 or not 0 < args.scale <= 1 or args.seconds < 0:
        parser.error("need --heldout-seed >= 0, 0 < --scale <= 1 and --seconds >= 0")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        measure = per_layer if args.trace else end_to_end
        speed = Speed()
        with speed.sampling():
            report, result = measure(args, Path(workdir), speed)
    report = {"environment": _environment(args), **report}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
