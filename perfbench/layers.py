"""The traced run's layer boundaries and the per-layer metrics.

``install`` wraps the product's functions where its callers look them
up, so one traced call of the product records a span per layer call;
nothing under ``src/`` changes.  ``layer_metrics`` turns one traced
call's spans, plus the runner's own per-cell report, into the per-layer
numbers the benchmark prints.

Replay runs in pool workers, which the parent cannot trace; it is taken
from the per-cell ``phases`` the runner reports in
``runner.metrics.to_dict()``.  The parent's time waiting for the pool is
the ``sim.runner.pool`` span's self time.
"""

import functools
import os
from unittest import mock

from repro.core.stats import TranslationStats
from repro.sim import experiments
from repro.sim import runner as runner_module
from repro.sim.runner import ResultCache, SweepRunner
from repro.sim.stream_store import SharedStreamStore
from repro.traces.synth.base import StreamingNodeTrace

from spans import totals_by_name

#: The span around the whole timed call; its self time is the part of
#: the call no layer span covers.
ROOT = "bench.timed_call"

#: Spans that only hold other layers: the timed call itself, the
#: runner's batch method and the experiments' table functions.  Their
#: self time is the part of the call that no named layer explains.
CATCH_ALL = (ROOT, "sim.runner.run_cells", "sim.experiments.table")

#: Span of a work unit replayed in the benchmark's own process.
IN_PROCESS_REPLAY = "sim.runner.in_process_replay"

#: The named layers' self times plus the pool wait must cover at least
#: this share of the traced call's duration; below it the traced run
#: reports failure.
ACCOUNTED_SHARE_MIN = 0.90

#: Per-layer metrics: (name, unit, better, end-to-end metric it should
#: move, workloads where it should move it).  BENCHMARK.json lists the
#: same names, units and directions.
LAYER_METRICS = (
    ("traces.synth.generate_s", "s", "lower", "wall_s, cpu_s",
     "zipf-sweep, paper-eval-warm"),
    ("traces.synth.passes_per_trace", "ratio", "lower", "wall_s",
     "paper-eval-warm, zipf-sweep"),
    ("sim.runner.fingerprint_s", "s", "lower", "wall_s", "paper-eval-warm"),
    ("sim.runner.fingerprint_calls", "count", "lower", "wall_s",
     "paper-eval-warm"),
    ("sim.runner.cell_key_s", "s", "lower", "wall_s", "paper-eval-warm"),
    ("traces.compile.compile_s", "s", "lower", "wall_s", "zipf-sweep"),
    ("traces.compile.passes_per_trace", "ratio", "lower", "wall_s, cpu_s",
     "paper-eval-cold"),
    ("sim.stream_store.publish_s", "s", "lower", "wall_s, peak_rss_mb",
     "paper-eval-cold, zipf-sweep"),
    ("sim.stream_store.ipc_bytes", "bytes", "lower", "wall_s, peak_rss_mb",
     "paper-eval-cold, zipf-sweep"),
    ("sim.runner.pool_wait_s", "s", "lower", "wall_s", "paper-eval-cold"),
    ("sim.runner.pool_starts", "count", "lower", "wall_s",
     "paper-eval-cold"),
    ("sim.runner.pool_start_s", "s", "lower", "wall_s", "paper-eval-cold"),
    ("sim.runner.cell_wall_p50_ms", "ms", "lower", "wall_s",
     "paper-eval-cold, zipf-sweep"),
    ("sim.runner.cell_wall_p95_ms", "ms", "lower", "wall_s",
     "zipf-sweep, paper-eval-cold"),
    ("sim.runner.cell_wall_samples", "count", "higher", "none",
     "all (sample count of the cell-wall percentiles)"),
    ("sim.runner.cache_load_s", "s", "lower", "wall_s", "paper-eval-warm"),
    ("sim.runner.cache_hit_ratio", "ratio", "higher", "wall_s",
     "paper-eval-warm"),
    ("sim.runner.cache_store_s", "s", "lower", "wall_s", "paper-eval-cold"),
    ("sim.runner.self_s", "s", "lower", "wall_s",
     "paper-eval-warm, paper-eval-cold"),
    ("sim.runner.close_s", "s", "lower", "wall_s", "paper-eval-cold"),
    ("sim.runner.in_process_replay_s", "s", "lower", "wall_s",
     "paper-eval-cold"),
    ("sim.runner.phase_gap_s", "s", "lower", "none (accounting target)",
     "all"),
    ("sim.analytic.plan_s", "s", "lower", "wall_s", "paper-eval-cold"),
    ("sim.simulator.replay_s", "s", "lower", "cpu_s, wall_s",
     "paper-eval-cold, zipf-sweep"),
    ("sim.simulator.cells", "count", "higher", "cpu_s, wall_s",
     "paper-eval-cold, zipf-sweep"),
    ("sim.intr_simulator.replay_s", "s", "lower", "cpu_s, wall_s",
     "paper-eval-cold, zipf-sweep"),
    ("sim.intr_simulator.cells", "count", "higher", "cpu_s, wall_s",
     "paper-eval-cold, zipf-sweep"),
    ("sim.analytic.replay_s", "s", "lower", "cpu_s, wall_s",
     "paper-eval-cold"),
    ("sim.analytic.cells", "count", "higher", "cpu_s, wall_s",
     "paper-eval-cold"),
    ("sim.kernels.replay_s", "s", "lower", "cpu_s, wall_s",
     "paper-eval-cold"),
    ("sim.kernels.cells", "count", "higher", "cpu_s, wall_s",
     "paper-eval-cold"),
    ("sim.experiments.render_s", "s", "lower", "wall_s", "paper-eval-warm"),
    ("sim.experiments.tables_s", "s", "lower", "wall_s", "paper-eval-warm"),
    ("core.shared_cache.ni_miss_rate", "ratio", "lower",
     "paper_err_pp only; identical under simulator-only changes", "all"),
    ("core.utlb.check_miss_rate", "ratio", "lower",
     "paper_err_pp only; identical under simulator-only changes", "all"),
    ("core.pinner.unpins", "count", "lower",
     "paper_err_pp only; identical under simulator-only changes", "all"),
    ("core.costs.avg_lookup_cost_us", "us", "lower",
     "paper_err_pp only; identical under simulator-only changes", "all"),
    ("bench.traced_wall_s", "s", "lower", "none (traced wall_s)", "all"),
    ("bench.tracing_overhead_s", "s", "lower",
     "none (traced minus untraced wall_s)", "all"),
    ("bench.unattributed_s", "s", "lower",
     "none (self time of the timed call, run_cells and table functions)",
     "all"),
    ("bench.accounted_share", "ratio", "higher",
     "none (named layer self times plus pool wait over traced wall_s)",
     "all"),
)

#: Span names whose self time is reported directly, by metric name.
SPAN_METRICS = {
    "traces.synth.generate_s": "traces.synth.generate",
    "sim.runner.fingerprint_s": "sim.runner.fingerprint",
    "sim.runner.cell_key_s": "sim.runner.cell_key",
    "traces.compile.compile_s": "traces.compile.compile",
    "sim.stream_store.publish_s": "sim.stream_store.publish",
    "sim.runner.pool_wait_s": "sim.runner.pool",
    "sim.runner.pool_start_s": "sim.runner.pool_start",
    "sim.runner.cache_load_s": "sim.runner.cache_load",
    "sim.runner.cache_store_s": "sim.runner.cache_store",
    "sim.runner.self_s": "sim.runner.run_cells",
    "sim.runner.close_s": "sim.runner.close",
    "sim.runner.in_process_replay_s": IN_PROCESS_REPLAY,
    "sim.analytic.plan_s": "sim.analytic.plan",
    "sim.experiments.render_s": "sim.experiments.render",
    "sim.experiments.tables_s": "sim.experiments.table",
}

#: Replay tiers, in the order a cell is attributed to them.
TIERS = ("sim.analytic", "sim.kernels", "sim.intr_simulator",
         "sim.simulator")


def _count_hit(recorder, _args, result):
    recorder.counts["cache_hits" if result is not None
                    else "cache_misses"] += 1


def _count_bytes(recorder, _args, published):
    recorder.counts["ipc_bytes"] += published


def install(recorder, stack):
    """Wrap every layer boundary of the product in a span.

    Each replacement is a ``mock.patch.object`` entered on ``stack`` (a
    ``contextlib.ExitStack``), so closing the stack restores the
    product.
    """
    def patch(owner, attribute, value):
        stack.enter_context(mock.patch.object(owner, attribute, value))

    wrap = recorder.wrap
    for owner, attribute, name, on_return in (
            (runner_module, "trace_fingerprint", "sim.runner.fingerprint",
             None),
            (runner_module, "cell_key", "sim.runner.cell_key", None),
            (runner_module, "compile_streams", "traces.compile.compile",
             None),
            (runner_module, "plan_axes", "sim.analytic.plan", None),
            (SharedStreamStore, "publish", "sim.stream_store.publish",
             _count_bytes),
            (ResultCache, "load", "sim.runner.cache_load", _count_hit),
            (ResultCache, "store", "sim.runner.cache_store", None),
            (SweepRunner, "run_cells", "sim.runner.run_cells", None),
            (SweepRunner, "_run_pooled", "sim.runner.pool", None),
            (SweepRunner, "close", "sim.runner.close", None)):
        patch(owner, attribute,
              wrap(name, owner.__dict__[attribute], on_return))

    # A batch of one work unit, or a serial runner, replays in this
    # process.  The pool's forked workers inherit these wrappers; they
    # call straight through there, since their spans would be lost.
    parent = os.getpid()
    for attribute in ("_replay_unit", "_analytic_unit"):
        function = runner_module.__dict__[attribute]
        traced = wrap(IN_PROCESS_REPLAY, function)
        patch(runner_module, attribute, functools.partial(
            _in_parent, parent, traced, function))

    pool_handle = SweepRunner.__dict__["_pool_handle"]

    def counting_pool_handle(runner, manifest):
        before = runner._pool
        pool = pool_handle(runner, manifest)
        if pool is not before:
            recorder.counts["pool_starts"] += 1
        return pool

    patch(SweepRunner, "_pool_handle",
          wrap("sim.runner.pool_start", counting_pool_handle))

    for attribute, function in list(vars(experiments).items()):
        if not callable(function) or \
                getattr(function, "__module__", None) != experiments.__name__:
            continue
        if attribute.startswith("render_"):
            name = "sim.experiments.render"
        elif attribute.startswith(("table", "figure")):
            name = "sim.experiments.table"
        else:
            continue
        patch(experiments, attribute, wrap(name, function))

    iterate = StreamingNodeTrace.__dict__["__iter__"]

    def timed_iter(trace):
        identity = (trace.app.name, trace.node, trace.seed, trace.scale)
        return recorder.timed_iteration(
            "traces.synth.generate", lambda: iterate(trace), identity)

    patch(StreamingNodeTrace, "__iter__", timed_iter)


def _in_parent(parent, traced, function, *args, **kwargs):
    """``traced`` in the process ``parent``, ``function`` elsewhere."""
    if os.getpid() == parent:
        return traced(*args, **kwargs)
    return function(*args, **kwargs)


def percentile(sorted_values, q):
    """Nearest-rank percentile ``q`` (0-100) of ascending values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tier_of(cell):
    """The replay tier that answered a non-hit cell of the runner report."""
    if cell["analytic"]:
        return "sim.analytic"
    if cell["kernel"]:
        return "sim.kernels"
    if cell["mechanism"] == "intr":
        return "sim.intr_simulator"
    return "sim.simulator"


def model_statistics(cells):
    """Lookup-weighted statistics of the modelled components over cells."""
    sums = dict.fromkeys(("lookups", "check_misses", "ni_misses",
                          "pages_unpinned", "time_us"), 0.0)
    for cell in cells:
        stats = cell["stats"]
        for field in ("lookups", "check_misses", "ni_misses",
                      "pages_unpinned"):
            sums[field] += stats[field]
        sums["time_us"] += sum(stats[field]
                               for field in TranslationStats.TIME_FIELDS)
    lookups = sums["lookups"] or 1.0
    return {
        "core.shared_cache.ni_miss_rate": sums["ni_misses"] / lookups,
        "core.utlb.check_miss_rate": sums["check_misses"] / lookups,
        "core.pinner.unpins": sums["pages_unpinned"],
        "core.costs.avg_lookup_cost_us": sums["time_us"] / lookups,
    }


def layer_metrics(recorder, report, traced_wall_s):
    """Per-layer numbers of one traced call.

    ``recorder`` holds that call's spans (under a :data:`ROOT` span) and
    counts; ``report`` is the runner's ``metrics.to_dict()``.  Returns
    every name of :data:`LAYER_METRICS` except the tracing overhead,
    which needs the untraced runs.
    """
    totals = totals_by_name(recorder.spans, recorder.run)

    def self_s(span_name):
        return totals.get(span_name, (0.0, 0))[0]

    out = {metric: self_s(span) for metric, span in SPAN_METRICS.items()}
    counts = recorder.counts

    distinct_records = sum(recorder.trace_records.values())
    generated = counts["traces.synth.generate.records"]
    out["traces.synth.passes_per_trace"] = (
        generated / distinct_records if distinct_records else 0.0)
    out["sim.runner.fingerprint_calls"] = totals.get(
        "sim.runner.fingerprint", (0.0, 0))[1]
    distinct = len(recorder.trace_records)
    out["traces.compile.passes_per_trace"] = (
        totals.get("traces.compile.compile", (0.0, 0))[1] / distinct
        if distinct else 0.0)
    out["sim.stream_store.ipc_bytes"] = counts["ipc_bytes"]
    out["sim.runner.pool_starts"] = counts["pool_starts"]
    loads = counts["cache_hits"] + counts["cache_misses"]
    out["sim.runner.cache_hit_ratio"] = (
        counts["cache_hits"] / loads if loads else 0.0)

    cells = report["cells"]
    walls = sorted(cell["wall_time_s"] * 1000.0 for cell in cells)
    out["sim.runner.cell_wall_p50_ms"] = percentile(walls, 50)
    out["sim.runner.cell_wall_p95_ms"] = percentile(walls, 95)
    out["sim.runner.cell_wall_samples"] = len(walls)
    phases = report["totals"]["phases"]
    out["sim.runner.phase_gap_s"] = (report["totals"]["elapsed_s"]
                                     - sum(phases.values()))
    for tier in TIERS:
        out[tier + ".replay_s"] = 0.0
        out[tier + ".cells"] = 0
    for cell in cells:
        if not cell["cache_hit"]:
            tier = tier_of(cell)
            out[tier + ".replay_s"] += cell["replay_s"]
            out[tier + ".cells"] += 1
    out.update(model_statistics(cells))

    unattributed = sum(self_s(name) for name in CATCH_ALL)
    out["bench.traced_wall_s"] = traced_wall_s
    out["bench.unattributed_s"] = unattributed
    out["bench.accounted_share"] = 1.0 - unattributed / traced_wall_s
    return out
