"""Alternating parent/change pairs of bench/run.py, summarized per metric.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seconds 20 --workload compose --workload "compose --heldout-seed 1" \
        --out BENCH_14.json

Each checkout directory runs its own ``bench/run.py`` with ``--trace 0``,
compiled from source on every run: each run gets a fresh, empty
``PYTHONPYCACHEPREFIX`` and ``PYTHONDONTWRITEBYTECODE=1``, so neither side
reads bytecode the other side or an earlier run left.  The output records
a sha256 of each side's ``src/tame3/*.py`` and ``bench/*.py``, which names
a side that is a file copy rather than a commit.
Pair k uses seed ``FIRST_SEED + k`` (11, 12, ...), runs both sides one
after the other on that seed, and alternates which side runs first (the
parent in even pairs).  A workload is a name, optionally followed by extra ``bench/run.py``
arguments; the default is every workload in the change's
``BENCHMARK.json``.  The output holds, per workload, every run's result
line and, per end-to-end metric, both sides' median and quartiles, the
ratio of the medians and how many pairs the change won (ties count for
neither side), and the two pipeline tests:

* ``claim_met``: the change won at least 9 in 10 of the pairs, and its
  median is better than the parent's by more than the parent's q3 - q1;
* ``within_bound``: the change median is worse than the parent's by at
  most the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
  parent median.

After each workload, stderr gets one line per end-to-end metric: both
medians, their ratio, the pairs the change won and the two tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 11
TREE_GLOBS = ("src/tame3/*.py", "bench/*.py")


def run_once(checkout: Path, workload: list[str], seed: int, seconds: float,
             scale: float) -> dict:
    """One bench/run.py run in `checkout`; its result line, plus the
    digest from the report line."""
    name, *extra = workload
    cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--scale", str(scale), *extra]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {shlex.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return {"seed": seed, "attempted": result["attempted"], "correct": result["correct"],
            "failed": result["failed"], "digest": report["digest"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Median, quartiles, pair wins and the two pipeline tests of every
    end-to-end metric; ``metrics`` maps a name to its ``BENCHMARK.json``
    entry."""
    by_seed = {side: {r["seed"]: r["metrics"] for r in runs if r["side"] == side}
               for side in SIDES}
    seeds = sorted(by_seed["parent"])
    summary = {}
    for name, spec in metrics.items():
        values = {side: [by_seed[side][s][name] for s in seeds] for side in SIDES}
        out = {}
        for side in SIDES:
            q1, median, q3 = _quartiles(values[side])
            out.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (out["change_median"] - out["parent_median"])
        out["change_over_parent"] = (out["change_median"] / out["parent_median"]
                                     if out["parent_median"] else None)
        out["change_wins"] = f"{wins}/{len(seeds)}"
        out["claim_met"] = (10 * wins >= 9 * len(seeds)
                            and gain > out["parent_q3"] - out["parent_q1"])
        out["within_bound"] = gain >= -spec["bound"] * abs(out["parent_median"])
        summary[name] = out
    return summary


def summary_lines(workload: str, summary: dict) -> list[str]:
    """One line per metric of ``summarize``'s output: parent median ->
    change median, their ratio, the pairs won and the two tests."""
    lines = []
    for name, s in summary.items():
        ratio = s["change_over_parent"]
        ratio = "n/a" if ratio is None else f"{ratio:.4f}"
        lines.append(f"{workload} {name}: {s['parent_median']:.6g} -> {s['change_median']:.6g}, "
                     f"ratio {ratio}, wins {s['change_wins']}, claim_met {s['claim_met']}, "
                     f"within_bound {s['within_bound']}")
    return lines


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def tree_digest(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every file that
    ``TREE_GLOBS`` matches in checkout, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for pattern in TREE_GLOBS for p in checkout.glob(pattern)):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append",
                        help="name and extra bench/run.py arguments; repeatable")
    parser.add_argument("--claimed", default=None, help="the metric the change claims")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need --pairs >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = [FIRST_SEED + k for k in range(args.pairs)]

    doc = {
        "what": "bench/run.py end-to-end metrics, parent commit beside this change",
        "parent_commit": _commit(args.parent),
        "change_commit": _commit(args.change),
        "tree_sha256": {side: tree_digest(path) for side, path in checkouts.items()},
        "command": (f"python3 bench/run.py --workload <w> --seed <s> --seconds "
                    f"{args.seconds:g} --trace 0 --scale {args.scale:g} [extra args]"),
        "method": "pairs of runs, one per seed, parent and change on the same seed and "
                  "settings; the side that runs first alternates; times are in "
                  "reference seconds (bench/reference.py)",
        "machine": f"Python {platform.python_version()}, {os.cpu_count()} vCPU",
        "claimed": args.claimed,
        "workloads": {},
    }
    for workload in workloads:
        words = shlex.split(workload)
        runs = []
        for k, seed in enumerate(seeds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], words, seed, args.seconds, args.scale)
                runs.append({"side": side, **run})
                print(f"{workload} seed {seed} {side}: "
                      f"{run['metrics']['items_per_s']:.1f} items/s", file=sys.stderr)
        digests = {(r["seed"], r["side"]): r["digest"] for r in runs}
        summary = summarize(runs, metrics)
        doc["workloads"][workload] = {
            "extra_args": shlex.join(words[1:]),
            "seeds": seeds,
            "digests_match": all(digests[s, "parent"] == digests[s, "change"]
                                 for s in seeds),
            "summary": summary,
            "runs": runs,
        }
        print("\n".join(summary_lines(workload, summary)), file=sys.stderr)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
