"""Speed correction for samples timed on a shared host.

The 2-vCPU VM this benchmark was set up on runs the same code up to twice as
slow for seconds to minutes at a time, as other tenants load the host, and
its two vCPUs change speed independently (their one-second speeds are
uncorrelated).  The slow phases show neither as steal time nor in the
process's CPU time, which grows with its wall time, and a 30-second run
cannot average them away: five runs of one workload spread (quartile
distance over median) by up to 0.35 in measured wall time.

So each sample measures the speed of its own vCPU while it runs.  A timer
signal every ``PERIOD_S`` runs a fixed kernel twice between the program's
bytecodes and times the second pass; the first refills the caches that the
program has just filled with its own data.  The kernel is the same code on
every commit, since it lives in the benchmark.  An interval is then
reported at reference speed::

    corrected = (measured - time spent in the signal handler) * reference / mean kernel time

so a corrected time is in seconds on a vCPU that runs the kernel in its
reference time (about the host's fast phase), and a change that makes the
program do less work lowers it in proportion.  The measured times are kept
in each sample's record and printed by ``run.py``.  Corrected, ten runs of
each workload spread by 0.02-0.09 in wall time.

Two kernels, because numpy is not imported until set-up has run:
``python_kernel`` (interpreter arithmetic) times set-up, ``numpy_kernel``
(small-array numpy calls, the per-call work that fills most of the
workloads' Python time) times the workload.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import Callable

PERIOD_S = 0.02


#: Kernel times on a vCPU in the host's fast phase, in seconds.
PYTHON_REFERENCE_S = 0.00035
NUMPY_REFERENCE_S = 0.00025


def python_kernel() -> None:
    x = 0
    for i in range(5000):
        x += i * i


def numpy_kernel() -> Callable[[], None]:
    """The numpy kernel, with its arrays made outside the signal handler."""
    import numpy as np

    small = np.linspace(0.0, 1.0, 256)

    def kernel() -> None:
        for _ in range(60):
            np.sum(small * 2.0)

    return kernel


class SpeedProbe:
    """Times ``kernel`` every ``PERIOD_S`` from a timer signal while started."""

    def __init__(self, kernel: Callable[[], None], reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # The first pass refills the caches the program has just used for its
        # own data, so that the timed pass measures the vCPU, not the program.
        start = perf_counter()
        self.kernel()
        warm = perf_counter()
        self.kernel()
        end = perf_counter()
        self.times.append(end - warm)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, measured: float) -> float:
        """``measured`` seconds, less the signal handler's time, at reference speed."""
        if not self.times:
            raise RuntimeError(f"no kernel tick in {measured:.3f} s")
        return (measured - self.spent) * self.reference_s / statistics.fmean(self.times)
