"""Run the benchmark over ten seeds, twice, and summarise it as a baseline file.

From the root of a checkout::

    python3 perfbench/baseline.py --label "commit abc1234" --out summary.json

It makes two sets of runs.  A set is one untraced run per seed 1-10 for
every workload, each a separate ``run.py`` process, one at a time; the
second set starts after the first has finished for all workloads.  Then it
makes one traced run per workload at the default seed.  Per set and
end-to-end metric it prints the median of the ten run medians, their
quartiles, minimum and maximum, and the spread (quartile distance as a share
of the median, to be compared with a third of the metric's bound in
``BENCHMARK.json``); then how much worse the second set's median is than the
first's, as a share of the first, to be compared with the bound itself.  It
writes the summary with the machine facts, the per-layer figures and the CSV
digests per seed.  A later change compares its own summary against the
recorded one.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = list(range(1, 11))
SETS = 2


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / median}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first`` (<0: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="", help="write the summary here as JSON")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {
        "label": args.label,
        "facts": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
        },
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {name: {"sets": []} for name in workloads.WORKLOADS},
    }
    for number in range(1, SETS + 1):
        for name, entry in summary["workloads"].items():
            runs = [_bench(name, seed, seconds, 0) for seed in SEEDS]
            result = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "failed_seeds": [s for s, r in zip(SEEDS, runs) if r["failed"]],
                "correct": all(r["correct"] for r in runs),
                "end_to_end": {},
            }
            print(f"set {number} {name}: failed {result['failed']}/{result['attempted']} "
                  f"runs, correct={result['correct']}; medians of {len(runs)} runs")
            for metric, spec_m in metrics.items():
                stats = spread([r["metrics"][metric]["value"] for r in runs])
                result["end_to_end"][metric] = stats
                flag = "ok" if stats["spread"] < spec_m["bound"] / 3 else "WIDE"
                print(f"  {metric:16s} {spec_m['unit']:4s} median {stats['median']:.6g}  "
                      f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  min {stats['min']:.6g}  "
                      f"max {stats['max']:.6g}  spread {stats['spread']:.4f} "
                      f"(bound/3 {spec_m['bound'] / 3:.4f}) {flag}", flush=True)
            entry["sets"].append(result)

    for name, entry in summary["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"][:2])
        entry["second_set_worse_by"] = {
            m: worsening(first[m]["median"], second[m]["median"], spec_m["better"])
            for m, spec_m in metrics.items()
        }
        print(f"{name}: second set worse than the first by")
        for metric, share in entry["second_set_worse_by"].items():
            bound = metrics[metric]["bound"]
            print(f"  {metric:16s} {share:+.4f} (bound {bound:.2f}) "
                  f"{'ok' if share <= bound else 'OVER'}")
        traced = _bench(name, workloads.DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
    store = run.load_json(os.path.join(run.WORK, "digests.json"))
    summary["digests"] = store.get(run.source_hash(), {})
    if args.out:
        run.save_json(args.out, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
