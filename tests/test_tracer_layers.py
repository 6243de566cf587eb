"""The benchmark's tracer still finds every layer function it wraps.

``perfbench/tracer.py`` wraps subortrim functions by name (``LAYERS``) and
checks each workload's calls against ``PRESENCE``.  A renamed or deleted
function, or one that an edge stops calling, would break the benchmark
rather than the tier-1 suite, so these tests load the tracer from its file
(without changing it) and check both from here.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from subortrim import experiments
from subortrim.experiments import ExperimentConfig

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_layer_function_exists(tracer):
    missing = [
        f"subortrim.{layer.module}.{name}"
        for layer in tracer.LAYERS
        for name in layer.functions
        if not callable(getattr(importlib.import_module(f"subortrim.{layer.module}"), name, None))
    ]
    assert not missing


def test_edge_left_calls_what_the_left_rational_workload_expects(tracer):
    # The horizon sweep stays off the ladder and trim layers, and the
    # reference still draws each series and its coupled sample per row.
    cfg = ExperimentConfig(
        edge="left", tail="rational", alpha_grid=(0.5,), t_grid=(1e-2,), lambda_grid=(1.0,),
        r_grid=(0,), replicates=1000, seed_blocks=1,
    )
    trace = tracer.Tracer("tier-1")
    trace.install()
    try:
        experiments.run_experiment(cfg)  # the module's name, which the tracer rebinds
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics(trace.spans)
    expected = {
        metric: table["left-rational"]
        for metric, table in tracer.PRESENCE.items()
        if "left-rational" in table and not metric.startswith("cli.")
    }
    assert {m: metrics[m] != 0 for m in expected} == expected
    assert metrics["pointproc.arrivals_calls"] == 2 * cfg.replicates
    assert metrics["pointproc.arrivals_drawn"] == 2 * cfg.replicates * cfg.n_terms
