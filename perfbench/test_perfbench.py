"""Tests of the benchmark's own arithmetic: self times, layer counts, failure
accounting and the speed correction.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def _tree():
    # root [0, 10] holds A [1, 4] and B [5, 9]; B holds C [6, 7].
    return [
        Span("experiments.run_experiment", 0.0, 10.0, -1, 0),
        Span("levy.tail_inverse_log", 1.0, 4.0, 0, 0),
        Span("pointproc.sample_arrivals", 5.0, 9.0, 0, 1000),
        Span("pointproc.derive_seed", 6.0, 7.0, 2, 0),
    ]


def test_self_time_subtracts_only_direct_children():
    assert tracer.self_times(_tree()) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("cli.parse_and_dispatch", 0.0, 10.0, -1, 0),
        Span("levy.tail_eval", 1.0, 4.0, 0, 0),
        Span("levy.tail_eval", 3.0, 6.0, 0, 0),
        Span("levy.tail_eval", 8.0, 12.0, 0, 0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_sum_self_time_and_count_entries():
    spans = _tree() + [
        # tail_inverse calls tail_inverse_log: one entry into the layer, counted once.
        Span("levy.tail_inverse", 10.0, 15.0, -1, 7),
        Span("levy.tail_inverse_log", 11.0, 14.0, 4, 7),
    ]
    m = tracer.layer_metrics(spans)
    assert m["experiments.self_s"] == pytest.approx(3.0)
    assert m["levy.inverse_s"] == pytest.approx(3.0 + 5.0)
    assert m["levy.inverse_calls"] == 2
    assert m["levy.inverse_elems"] == 7
    assert m["pointproc.arrivals_s"] == pytest.approx(3.0)
    assert m["pointproc.arrivals_drawn"] == 1000
    assert m["pointproc.seed_calls"] == 1
    assert m["stats.ks_calls"] == 0


def test_coverage_is_the_share_under_top_level_spans():
    assert tracer.coverage(_tree(), 0.0, 20.0) == pytest.approx(0.5)


def test_presence_self_check_flags_moved_calls():
    m = tracer.layer_metrics(_tree())
    m["cli.bytes_written"] = 100
    misses = tracer.presence_misses("fidi-mc", m, arrivals=1000)
    assert any(x.startswith("levy.inverse_calls") for x in misses)
    assert not any("arrivals_drawn" in x for x in misses)
    assert any("arrivals_drawn" in x for x in tracer.presence_misses("fidi-mc", m, 5))


def test_install_rebinds_from_imported_names():
    from subortrim import experiments, levy, limits, pointproc

    original = levy.tail_inverse_log
    trace = tracer.Tracer("test")
    trace.install()
    try:
        names = trace.rebound_names()
        for name in (
            "subortrim.experiments.sample_arrivals",
            "subortrim.experiments.derive_seed",
            "subortrim.pointproc.tail_inverse_log",
            "subortrim.pointproc.log_small_jump_mean",
            "subortrim.limits.tail_eval",
        ):
            assert name in names
        assert pointproc.tail_inverse_log is levy.tail_inverse_log is not original
        arr = experiments.sample_arrivals(experiments.derive_seed(1, 2), 10)
        pointproc.ordered_jumps(levy.stable_tail(0.5), 1.0, arr)
        m = tracer.layer_metrics(trace.spans)
        assert m["pointproc.arrivals_drawn"] == 10
        assert m["levy.inverse_calls"] == 1 and m["levy.inverse_elems"] == 10
        assert limits.tail_eval is levy.tail_eval
    finally:
        trace.uninstall()
    assert levy.tail_inverse_log is original and pointproc.tail_inverse_log is original


def test_account_clean_run():
    samples = [{"digest": "aa"}, {"digest": "aa"}]
    assert run.account(samples) == (0, True, [[], []])


def test_account_raised_exception_is_a_failure_and_incorrect():
    samples = [{"digest": "aa"}, {"problems": ["raised: ValueError"]}]
    failed, correct, reasons = run.account(samples)
    assert (failed, correct) == (1, False)
    assert reasons[1] == ["raised: ValueError"]


def test_account_failed_verdict_is_a_failure_but_outputs_stay_correct():
    samples = [{"digest": "aa", "verdict_failures": ["ks_trend_nonincreasing a=0.5"]}]
    failed, correct, reasons = run.account(samples)
    assert (failed, correct) == (1, True)
    assert reasons[0] == ["verdict FAIL: ks_trend_nonincreasing a=0.5"]


def test_account_digest_that_does_not_repeat():
    failed, correct, reasons = run.account([{"digest": "aa"}, {"digest": "bb"}])
    assert (failed, correct) == (1, False)
    assert reasons[0] == [] and "differs" in reasons[1][0]
    # Against a digest recorded by an earlier run of the same seed, both differ.
    failed, correct, _ = run.account([{"digest": "bb"}, {"digest": "bb"}], reference="aa")
    assert (failed, correct) == (2, False)


def test_source_hash_follows_the_sources(tmp_path):
    for name, body in (("a", "x = 1\n"), ("b", "x = 2\n")):
        (tmp_path / name / "pkg").mkdir(parents=True)
        (tmp_path / name / "pkg" / "mod.py").write_text(body)
    first, second = run.source_hash(str(tmp_path / "a")), run.source_hash(str(tmp_path / "b"))
    assert first != second
    assert first == run.source_hash(str(tmp_path / "a"))


def test_digest_of_other_sources_is_no_reference():
    # A digest recorded for the same workload and seed under other sources
    # must not make a changed CSV of the current sources a failure.
    key = workloads.digest_key(workloads.WORKLOADS["fidi-mc"], 1)
    store = {"old": {key: "aa"}}
    assert run.recorded_digest(store, "old", key) == "aa"
    assert run.recorded_digest(store, "new", key) == ""
    reference = run.recorded_digest(store, "new", key) or "bb"
    assert run.account([{"digest": "bb"}, {"digest": "bb"}], reference) == (0, True, [[], []])


def test_benchmark_spec_names_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert set(tracer.layer_metrics([])) <= set(tracer.UNITS)


def test_speed_correction_removes_kernel_time_and_scales_to_reference():
    probe = speed.SpeedProbe(speed.python_kernel, reference_s=0.001)
    probe.times, probe.spent = [0.001, 0.003], 0.008
    # 1.008 s measured, 0.008 s of it in the handler (two kernel passes a
    # tick), whose timed passes ran at half the reference speed: 1 s of the
    # program's own time is 0.5 s at reference speed.
    assert probe.corrected(1.008) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        speed.SpeedProbe(speed.python_kernel, 0.001).corrected(1.0)


def test_speed_probe_ticks_while_started_and_restores_the_handler():
    import signal
    from time import perf_counter

    probe = speed.SpeedProbe(speed.numpy_kernel(), speed.NUMPY_REFERENCE_S)
    probe.start()
    end = perf_counter() + 10 * speed.PERIOD_S
    while perf_counter() < end:
        pass
    probe.stop()
    ticks = len(probe.times)
    assert ticks >= 3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.times) == ticks
