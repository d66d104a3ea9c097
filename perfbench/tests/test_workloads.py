"""Result digests and the traced run on a small instance of the product."""

import contextlib

import pytest

import layers
import workloads
from repro.sim import runner as runner_module
from repro.sim.runner import ResultCache, SweepRunner
from repro.traces.synth.base import StreamingNodeTrace
from spans import Span, SpanRecorder


def test_cell_digest_ignores_key_order_and_sees_every_value():
    a = workloads.cell_digest(("fft", 1024, "utlb"), "utlb",
                              {"nodes": [{"x": 1, "y": 2.5}]})
    b = workloads.cell_digest(("fft", 1024, "utlb"), "utlb",
                              {"nodes": [{"y": 2.5, "x": 1}]})
    assert a == b
    assert a != workloads.cell_digest(("fft", 1024, "utlb"), "utlb",
                                      {"nodes": [{"x": 1, "y": 2.6}]})
    assert a != workloads.cell_digest(("fft", 1024, "intr"), "utlb",
                                      {"nodes": [{"x": 1, "y": 2.5}]})
    # The format is fixed: digests printed by one run compare with
    # digests printed by another.
    assert workloads.cell_digest("c", "utlb", {}) == (
        "f6faf7dd7d762764264c2872ebdd6c48ea33bea617ccf70aa6554d6cde55f83d")


def test_run_digest_depends_on_order():
    assert workloads.run_digest(["a", "b"]) != workloads.run_digest(
        ["b", "a"])


def _sweep(tmp_path, workers, cache):
    cells = workloads.ZipfSweep.cells(seed=3, scale=0.01)
    runner = workloads.RecordingRunner(
        workers=workers, cache_dir=str(tmp_path / "cache") if cache else None)
    with runner:
        runner.run_cells(cells)
    return runner


def test_digests_agree_serial_pooled_and_cached(tmp_path):
    serial = _sweep(tmp_path, 1, cache=False).digests()
    pooled = _sweep(tmp_path, 2, cache=True).digests()
    cached = _sweep(tmp_path, 2, cache=True)
    assert cached.metrics.cache_hits == len(serial) == 5
    assert serial == pooled == cached.digests()


def _traced_sweep(tmp_path, workers):
    """One traced zipf sweep at a small scale; returns its metrics."""
    cells = workloads.ZipfSweep.cells(seed=3, scale=0.01)
    runner = SweepRunner(workers=workers, cache_dir=str(tmp_path / "cache"))
    recorder = SpanRecorder()
    recorder.run = 0
    with contextlib.ExitStack() as stack:
        layers.install(recorder, stack)
        root = recorder.open(layers.ROOT)
        runner.run_cells(cells)
        runner.close()
        recorder.close(root)
    wall = recorder.spans[root].end - recorder.spans[root].start
    return layers.layer_metrics(recorder, runner.metrics.to_dict(), wall)


def test_traced_call_accounts_for_its_wall_time(tmp_path):
    originals = [SweepRunner.__dict__["run_cells"],
                 ResultCache.__dict__["load"],
                 StreamingNodeTrace.__dict__["__iter__"],
                 runner_module._replay_unit]
    metrics = _traced_sweep(tmp_path, workers=2)
    assert [SweepRunner.__dict__["run_cells"], ResultCache.__dict__["load"],
            StreamingNodeTrace.__dict__["__iter__"],
            runner_module._replay_unit] == originals
    assert {name for name, *_ in layers.LAYER_METRICS} - set(metrics) == {
        "bench.tracing_overhead_s"}
    assert metrics["bench.accounted_share"] >= layers.ACCOUNTED_SHARE_MIN
    assert metrics["sim.runner.fingerprint_calls"] == 1
    assert metrics["traces.compile.passes_per_trace"] == 1.0
    assert metrics["sim.runner.pool_starts"] == 1
    assert metrics["sim.runner.in_process_replay_s"] == 0.0
    assert metrics["sim.runner.cache_hit_ratio"] == 0.0
    assert metrics["sim.analytic.cells"] == 3
    assert metrics["sim.intr_simulator.cells"] == 1
    assert metrics["sim.simulator.cells"] == 1


def test_serial_replay_is_a_named_layer(tmp_path):
    metrics = _traced_sweep(tmp_path, workers=1)
    assert metrics["sim.runner.pool_starts"] == 0
    assert metrics["sim.runner.in_process_replay_s"] > 0.0
    assert metrics["bench.accounted_share"] >= layers.ACCOUNTED_SHARE_MIN


def test_catch_all_self_time_is_unattributed():
    recorder = SpanRecorder()
    recorder.run = 0
    recorder.spans = [Span(layers.ROOT, 0.0, 10.0, None, 0),
                      Span("sim.runner.run_cells", 1.0, 9.0, 0, 0),
                      Span("sim.runner.cache_load", 2.0, 3.0, 1, 0)]
    report = {"cells": [], "totals": {"phases": {}, "elapsed_s": 8.0}}
    metrics = layers.layer_metrics(recorder, report, 10.0)
    assert metrics["sim.runner.cache_load_s"] == 1.0
    assert metrics["bench.unattributed_s"] == 9.0
    assert metrics["bench.accounted_share"] == pytest.approx(0.1)
