"""One benchmark sample: a fresh process that runs one workload once.

``run.py`` starts this script.  It imports subortrim from the ``src``
directory of the same checkout, and refuses any other copy.  It times the
import of ``subortrim.cli`` plus building the workload's config
(``setup_s``), then the workload from its call until its
verdicts and outputs are produced and checked (``wall_s``), each corrected
to reference speed by a ``speed.SpeedProbe`` (the measured times are kept
as ``measured_setup_s`` and ``measured_wall_s``), and prints one JSON line
with those figures, the process's peak RSS and the check results.
With ``--trace 1`` it wraps the layers first and adds per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import speed
import tracer
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _sample(args) -> dict:
    setup_probe = speed.SpeedProbe(speed.python_kernel, speed.PYTHON_REFERENCE_S)
    setup_probe.start()
    started = perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import subortrim
    from subortrim import cli  # noqa: F401  (the import users pay on every CLI call)

    if not os.path.realpath(subortrim.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported subortrim from {subortrim.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    ini = workloads.prepare(workload, args.out)
    setup_s = perf_counter() - started
    setup_probe.stop()

    trace = tracer.Tracer(run_id=args.run_id) if args.trace else None
    if trace:
        trace.install()
    probe = speed.SpeedProbe(speed.numpy_kernel(), speed.NUMPY_REFERENCE_S)
    probe.start()
    start = perf_counter()
    outcome = workloads.run(workload, args.seed, args.out, ini)
    end = perf_counter()
    probe.stop()
    if trace:
        trace.uninstall()

    result = {
        "setup_s": setup_probe.corrected(setup_s),
        "wall_s": probe.corrected(end - start),
        "measured_setup_s": setup_s,
        "measured_wall_s": end - start,
        "kernel_ticks": [len(setup_probe.times), len(probe.times)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": outcome.digest,
        "problems": outcome.problems,
        "verdict_failures": outcome.verdict_failures,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        layers = tracer.layer_metrics(trace.spans)
        layers["cli.bytes_written"] = outcome.bytes_written
        layers["trace.coverage"] = tracer.coverage(trace.spans, start, end)
        result["layers"] = layers
        result["selfcheck"] = tracer.presence_misses(args.workload, layers, workload.arrivals)
        result["spans"] = len(trace.spans)
        if args.spans:
            trace.write(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for reports")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--spans", default="", help="file for the traced spans (JSON lines)")
    args = parser.parse_args()
    try:
        result = _sample(args)
    except Exception:  # the sample is reported as failed with its traceback
        result = {"problems": ["raised: " + traceback.format_exc(limit=8)]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
