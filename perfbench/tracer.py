"""Span tracer that measures subortrim's layers from outside the package.

Each layer is a group of public functions of one subortrim module.  The
tracer wraps every listed function and rebinds *every* reference to it in
the loaded ``subortrim.*`` modules, including names pulled in by
``from .levy import tail_inverse_log`` and the like, so calls made through
an imported alias are seen as well.  Spans (name, start, end, parent, work)
are kept in memory and written out once the workload has finished.

A layer's self time is the sum over its spans of the span's duration minus
the part of that interval covered by its child spans.  Calls and work are
counted when the layer is entered from outside itself, so a wrapper that
calls another function of the same layer (``tail_inverse`` ->
``tail_inverse_log``) counts once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    work: int


@dataclass(frozen=True)
class Layer:
    """One per-layer metric group: wrapped functions plus metric names."""

    time_metric: str
    calls_metric: str | None
    module: str
    functions: tuple[str, ...]
    work_metric: str | None = None
    work: Callable[[tuple, dict], int] | None = None

    @property
    def span_names(self) -> tuple[str, ...]:
        return tuple(f"{self.module}.{f}" for f in self.functions)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _inverse_elems(args: tuple, kwargs: dict) -> int:
    u = _arg(args, kwargs, 1, "u")
    return int(getattr(u, "size", 1))


def _arrivals_drawn(args: tuple, kwargs: dict) -> int:
    return int(_arg(args, kwargs, 1, "n_terms"))


def _coupled_terms(args: tuple, kwargs: dict) -> int:
    return int(_arg(args, kwargs, 0, "arr").arrivals.size)


LAYERS: tuple[Layer, ...] = (
    Layer("levy.inverse_s", "levy.inverse_calls", "levy",
          ("tail_inverse_log", "tail_inverse"), "levy.inverse_elems", _inverse_elems),
    Layer("levy.small_jump_mean_s", "levy.small_jump_mean_calls", "levy",
          ("log_small_jump_mean", "small_jump_mean")),
    Layer("levy.eval_s", "levy.eval_calls", "levy", ("tail_eval", "tail_eval_from_log")),
    Layer("pointproc.seed_s", "pointproc.seed_calls", "pointproc", ("derive_seed",)),
    Layer("pointproc.arrivals_s", "pointproc.arrivals_calls", "pointproc",
          ("sample_arrivals",), "pointproc.arrivals_drawn", _arrivals_drawn),
    Layer("pointproc.ladder_s", "pointproc.ladder_calls", "pointproc",
          ("ordered_jumps", "restrict_to")),
    Layer("pointproc.trim_s", "pointproc.trim_calls", "pointproc",
          ("trimmed_value", "z_statistic", "z_statistic_trimmed", "ratio_diagnostic")),
    Layer("limits.coupled_s", "limits.coupled_calls", "limits",
          ("trimmed_stable_power_sample", "cauchy_ordered_jump_sample"),
          "limits.coupled_terms", _coupled_terms),
    Layer("limits.cdf_s", "limits.cdf_calls", "limits",
          ("cauchy_rth_jump_cdf", "fidi_probability", "extremal_fidi_cdf", "second_jump_fidi")),
    Layer("stats.ks_s", "stats.ks_calls", "stats", ("ks_one_sample", "ks_two_sample")),
    Layer("stats.laplace_s", "stats.laplace_calls", "stats", ("empirical_laplace",)),
    Layer("experiments.self_s", None, "experiments", ("run_experiment",)),
    Layer("cli.self_s", None, "cli", ("parse_and_dispatch",)),
)

#: Unit of every per-layer metric a traced run reports.
UNITS: dict[str, str] = {
    **{layer.time_metric: "s" for layer in LAYERS},
    **{layer.calls_metric: "count" for layer in LAYERS if layer.calls_metric},
    **{layer.work_metric: "count" for layer in LAYERS if layer.work_metric},
    "cli.bytes_written": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.selfcheck_misses": "count",
}


class Tracer:
    """Records spans around the wrapped functions of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, work(args, kwargs) if work else 0)

        return traced

    def install(self) -> None:
        """Wrap each layer function and rebind every module-level alias of it."""
        owners = {layer.module: importlib.import_module(f"subortrim.{layer.module}")
                  for layer in LAYERS}
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "subortrim"]
        for layer in LAYERS:
            owner = owners[layer.module]
            for fname, span_name in zip(layer.functions, layer.span_names):
                original = getattr(owner, fname)
                wrapper = self.wrap(span_name, original, layer.work)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def rebound_names(self) -> set[str]:
        return {f"{m.__name__}.{attr}" for m, attr, _ in self._rebound}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                row = {"run": self.run_id, "id": i, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent, "work": s.work}
                out.write(json.dumps(row) + "\n")


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        (s.end - s.start)
        - _covered(s.start, s.end, [(spans[c].start, spans[c].end) for c in children[i]])
        for i, s in enumerate(spans)
    ]


def coverage(spans, start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans."""
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    return _covered(start, end, top) / (end - start)


def layer_metrics(spans) -> dict[str, float]:
    """Self time, entry calls and work per layer from a finished span list."""
    selfs = self_times(spans)
    owner = {name: layer for layer in LAYERS for name in layer.span_names}
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[layer.time_metric] = 0.0
        if layer.calls_metric:
            out[layer.calls_metric] = 0
        if layer.work_metric:
            out[layer.work_metric] = 0
    for s, own in zip(spans, selfs):
        layer = owner.get(s.name)
        if layer is None:
            continue
        out[layer.time_metric] += own
        entered = s.parent < 0 or owner.get(spans[s.parent].name) is not layer
        if entered and layer.calls_metric:
            out[layer.calls_metric] += 1
        if entered and layer.work_metric:
            out[layer.work_metric] += s.work
    return out


# Call-presence expectations from the workload table: True means the metric
# must be nonzero on that workload, False means it must be exactly zero.
# A missed rebinding or a call moved to another layer shows up here.
PRESENCE: dict[str, dict[str, bool]] = {
    "levy.inverse_calls": {"left-rational": True, "bottom-deep": False,
                           "fidi-mc": False, "laplace-scalar": True},
    "levy.small_jump_mean_calls": {"left-rational": True, "laplace-scalar": True},
    "levy.eval_calls": {"left-rational": True},
    "pointproc.seed_calls": {"left-rational": True, "bottom-deep": True,
                             "fidi-mc": True, "laplace-scalar": True},
    "pointproc.arrivals_calls": {"left-rational": True, "bottom-deep": True,
                                 "fidi-mc": True, "laplace-scalar": True},
    "pointproc.ladder_calls": {"left-rational": False, "bottom-deep": False,
                               "fidi-mc": False, "laplace-scalar": True},
    "pointproc.trim_calls": {"left-rational": False, "bottom-deep": False,
                             "fidi-mc": False, "laplace-scalar": True},
    "limits.coupled_calls": {"left-rational": True, "bottom-deep": True,
                             "fidi-mc": False, "laplace-scalar": False},
    "limits.cdf_calls": {"fidi-mc": True},
    "stats.ks_calls": {"left-rational": True},
    "stats.laplace_calls": {"laplace-scalar": True},
    "experiments.self_s": {"left-rational": True, "bottom-deep": True,
                           "fidi-mc": True, "laplace-scalar": False},
    "cli.bytes_written": {"left-rational": True, "bottom-deep": True,
                          "fidi-mc": True, "laplace-scalar": False},
}


def presence_misses(workload: str, metrics: dict[str, float], arrivals: int) -> list[str]:
    """Self-check of a traced run against ``PRESENCE`` and the arrival count."""
    misses = []
    for metric, table in PRESENCE.items():
        if workload in table and (metrics[metric] != 0) != table[workload]:
            want = "nonzero" if table[workload] else "0"
            misses.append(f"{metric} = {metrics[metric]:g} on {workload}, expected {want}")
    if metrics["pointproc.arrivals_drawn"] != arrivals:
        misses.append(
            f"pointproc.arrivals_drawn = {metrics['pointproc.arrivals_drawn']:g}, "
            f"workload states {arrivals}"
        )
    return misses
