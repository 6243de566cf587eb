"""Benchmark for subortrim: time to verdict per workload, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload left-rational --seed 20260815 --seconds 30 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  Each sample is a fresh
child process (``perfbench/child.py``) that imports subortrim from the
checkout's ``src/``, runs the workload once with ``jobs=1`` and checks its
outputs; samples run one at a time.

* ``--trace 0`` starts samples while they are expected to end within
  ``--seconds`` (at least one) and reports the medians of ``wall_s``,
  ``setup_s``, ``peak_rss_mb`` and ``arrivals_per_s``.  The times are
  corrected to a reference vCPU speed by a probe inside each sample (see
  ``speed.py``); the medians of the measured times are printed as well.
* ``--trace 1`` starts untraced samples in the same way and then one traced
  sample, and reports the traced sample's per-layer metrics,
  ``trace.overhead_s`` (traced ``wall_s`` minus the median untraced
  ``wall_s``, with the untraced sample count printed) and ``trace.coverage``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run attempts one
operation: the workload at one seed, which every sample executes again on
the same inputs.  So ``attempted`` is 1, and ``failed`` is 1 when any sample
raised, failed a program verdict or a benchmark check, or produced a CSV
digest that differs from another sample of the same seed and the same
``src/`` sources in this checkout.  Counting samples instead would make
the count depend on how many fit in ``--seconds``.  The per-sample
``fail_rate`` (failed / attempted samples) is printed above the result.
``correct`` is false when an output is wrong: anything but a program verdict
that reports FAIL.  The lines before it print every metric with unit and
sample count, the seed, machine facts and ``csv_changed`` (digest differs
from the one recorded in ``perfbench/baseline.json`` for this seed).  A full
record of each run, with the spans of a traced sample, is written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 170.0  # a run must end well within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "arrivals_per_s": "1/s"}


def account(samples: list[dict], reference: str = "") -> tuple[int, bool, list[list[str]]]:
    """Failure accounting over the samples of one run.

    ``reference`` is a digest already recorded for this workload and seed;
    without one, the first sample's digest is the reference.  Returns the
    failed count, whether every output was correct, and each sample's
    reasons for failing.
    """
    digests = [s.get("digest", "") for s in samples]
    reference = reference or next((d for d in digests if d), "")
    failed, correct, reasons = 0, True, []
    for sample, digest in zip(samples, digests):
        problems = list(sample.get("problems", []))
        if digest and digest != reference:
            problems.append(f"CSV digest {digest[:12]} differs from {reference[:12]}")
        correct &= not problems
        why = problems + [f"verdict FAIL: {v}" for v in sample.get("verdict_failures", [])]
        failed += bool(why)
        reasons.append(why)
    return failed, correct, reasons


def source_hash(src: str = SRC) -> str:
    """sha256 over the package's Python sources: which code a CSV digest belongs to."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            h.update(os.path.relpath(path, src).encode("utf-8") + b"\0" + handle.read() + b"\0")
    return h.hexdigest()[:16]


def recorded_digest(store: dict, source: str, key: str) -> str:
    """Digest recorded in this checkout for ``key`` under the sources ``source``."""
    return store.get(source, {}).get(key, "")


def _run_child(args, trace: int, index: int, deadline: float) -> dict:
    out_dir = os.path.join(WORK, f"work-{os.getpid()}-{index}")
    os.makedirs(out_dir, exist_ok=True)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{index}"
    spans = os.path.join(WORK, "spans", args.workload + ".jsonl") if trace else ""
    if spans:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out_dir, "--trace", str(trace),
           "--run-id", run_id, "--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    if proc.returncode != 0:
        sample.setdefault("problems", []).append(f"child exited {proc.returncode}")
    return sample


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def save_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)


def _collect(args) -> list[dict]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    samples: list[dict] = []
    while True:
        before = time.monotonic()
        samples.append(_run_child(args, 0, len(samples), deadline))
        # Start another sample only if the mean sample time says it ends within
        # --seconds, so that a run takes about --seconds, not up to one sample
        # more; and leave room for one more sample, and for the traced one.
        now = time.monotonic()
        if (now - started) * (len(samples) + 1) / len(samples) > args.seconds:
            break
        if now + (2 + args.trace) * (now - before) > deadline:
            break
    if args.trace:
        samples.append(_run_child(args, 1, len(samples), deadline))
    return samples


def _end_to_end(workload, timed: list[dict]) -> dict[str, float]:
    values = {
        "wall_s": [s["wall_s"] for s in timed],
        "setup_s": [s["setup_s"] for s in timed],
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
        "arrivals_per_s": [workload.arrivals / s["wall_s"] for s in timed],
    }
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subortrim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subortrim", "cli.py")):
        print(f"perfbench: no subortrim sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    samples = _collect(args)
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        for s in samples:
            print("\n".join(s.get("problems", [])), file=sys.stderr)
        print("perfbench: no sample completed", file=sys.stderr)
        return 1

    # Digests recorded by earlier runs in this checkout are kept per version
    # of src/, so a digest must repeat across runs of one version only.
    key = workloads.digest_key(workload, args.seed)
    source = source_hash()
    store_path = os.path.join(WORK, "digests.json")
    store = load_json(store_path)
    digest = next((s["digest"] for s in samples if s.get("digest")), "")
    failed, correct, reasons = account(samples, recorded_digest(store, source, key) or digest)
    if correct and digest and not recorded_digest(store, source, key):
        store.setdefault(source, {})[key] = digest
        save_json(store_path, store)
    recorded = load_json(os.path.join(HERE, "baseline.json")).get("digests", {}).get(key)
    csv_changed = "unknown" if not (recorded and digest) else str(digest != recorded).lower()

    if args.trace:
        traced, untraced = samples[-1], [s["wall_s"] for s in samples[:-1] if "wall_s" in s]
        if "layers" not in traced or not untraced:
            print("perfbench: the traced or every untraced sample failed", file=sys.stderr)
            return 1
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(untraced)
        metrics["trace.selfcheck_misses"] = len(traced["selfcheck"])
        units = tracer.UNITS
        note = f"one traced sample; overhead against the median of {len(untraced)} untraced"
    else:
        metrics = _end_to_end(workload, timed)
        units = UNITS
        note = f"median of {len(timed)} samples"

    facts = {"nproc": len(os.sched_getaffinity(0)), **timed[0].get("versions", {})}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"  {note}:")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    print("  measured, before the speed correction: " + ", ".join(
        f"{name} {statistics.median(s['measured_' + name] for s in timed):.6g} s"
        for name in ("wall_s", "setup_s")))
    print(f"  fail_rate {failed}/{len(samples)}; csv {digest[:16]} changed={csv_changed}")
    for i, why in enumerate(reasons):
        for line in why:
            print(f"  sample {i} failed: {line.splitlines()[-1] if line else line}")
    for miss in samples[-1].get("selfcheck", []):
        print(f"  self-check miss: {miss}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "facts": facts, "source": source, "csv_digest": digest, "csv_changed": csv_changed,
              "fail_rate": failed / len(samples), "samples": samples, "metrics": metrics}
    save_json(os.path.join(WORK, "results", f"{args.workload}-{args.seed}-t{args.trace}-"
                       f"{os.getpid()}.json"), record)
    result = {
        "correct": correct,
        "attempted": 1,
        "failed": int(failed > 0),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
