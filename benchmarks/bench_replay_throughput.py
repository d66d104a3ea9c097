"""Replay-engine throughput: fast (compiled streams) vs reference.

Times single-node trace replay through both `SimConfig.engine` settings
and asserts their `NodeResult.to_dict()` output is byte-identical — the
fast engine is an optimization, never a model change.  The speedup ratio
is reported, not gated: absolute timing varies across machines, equality
does not.

Also runnable standalone (the CI replay-throughput smoke step):

    python -m benchmarks.bench_replay_throughput

which replays both engines, asserts identical stats JSON, and prints
pages/sec per engine plus the speedup ratio.  The standalone run also
checks the zero-cost-tracing contract: the fast engine with a disabled
:class:`NullTracer` attached must produce byte-identical stats at
throughput within noise of the untraced fast path (gated at
``--nulltracer-threshold``, best-of-``--repeats``).

The standalone run then gates single-cell solves: each trace under each
mechanism, run as a batch of one through :class:`SweepRunner`, must be
byte-identical to fast replay (utlb solved as an analytic axis of one,
intr replayed), and the single-cell utlb solve must be at least
``--min-single-cell-speedup`` times faster than fast replay
(best-of-repeats).  The sweep-grid phase re-runs the grid with the
solver off and checks the default runner batch-solves every utlb cell
with identical results.

It also gates the analytic axis solver: the utlb
cache-size axis of the grid (per app, every ``GRID_CACHE_ENTRIES``
point) is run once through the solver and once through per-cell replay
(``analytic=False``); the results must be byte-identical and the solver
must be at least ``--min-axis-speedup`` times faster (best-of-repeats
wall time).

Finally it drives a Table-4-sized sweep grid (both apps x cache sizes x
utlb/intr) through :class:`SweepRunner` to exercise the shared-stream
fan-out path: with ``--workers N`` the parallel results must be
byte-identical to a fresh serial run, and the batch must compile each
distinct node trace exactly once (``compile_count == len(APPS)``),
however many grid cells replay it.  ``--metrics-json PATH`` dumps the
parallel run's full ``SweepMetrics.to_dict()`` — including the
``analytic_axes`` / ``analytic_cells`` totals and, under
``analytic_axis_speedup``, the solver-vs-replay timing — so CI can
archive the throughput trajectory (``BENCH_*.json``).
"""

import argparse
import gc
import json
import time

from repro.obs.tracer import NullTracer
from repro.sim.analytic import plan_axes, solve_axis_node
from repro.sim.config import SimConfig
from repro.sim.intr_simulator import simulate_node_intr
from repro.sim.runner import SweepCell, SweepRunner
from repro.sim.simulator import simulate_node
from repro.traces.compile import compile_streams
from repro.traces.synth import make_app

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED

#: Apps with contrasting locality (Table 3): radix streams, barnes reuses.
APPS = ("barnes", "radix")

#: The sweep-grid axes: Table 4's cache-size sweep under both
#: interesting mechanisms, over every benchmark app.
GRID_CACHE_ENTRIES = (1024, 4096, 8192, 16384)
GRID_MECHANISMS = ("utlb", "intr")

#: The cache-size axis the analytic solver is timed on: the grid's
#: sizes densified to the kind of sweep the one-pass solver makes cheap
#: (every cell beyond the first is nearly free — the pass is shared).
AXIS_CACHE_ENTRIES = (512, 1024, 2048, 4096, 8192, 16384)


def _traces(scale=BENCH_SCALE, seed=BENCH_SEED):
    return {
        app: make_app(app).generate_node(0, seed=seed, scale=scale) for app in APPS
    }


def _total_pages(traces):
    """Lookups per full replay (both mechanisms replay every trace)."""
    return 2 * sum(compile_streams(r).total_pages for r in traces.values())


def _replay_all(traces, engine, tracer=None):
    """Replay every trace through both mechanisms; returns the stats as
    sorted-keys JSON, for byte-identity checks."""
    config = SimConfig(engine=engine, tracer=tracer)
    stats = {}
    for app, records in traces.items():
        stats[app] = {
            "utlb": simulate_node(records, config).to_dict(),
            "intr": simulate_node_intr(records, config).to_dict(),
        }
    return json.dumps(stats, sort_keys=True)


def _replay_utlb(traces):
    """Fast replay of the utlb mechanism only, one node dict per app."""
    config = SimConfig()
    stats = {
        app: simulate_node(records, config).to_dict()
        for app, records in traces.items()
    }
    return json.dumps(stats, sort_keys=True)


def _solve_utlb(traces):
    """The same utlb cells, each planned and solved as an axis of one
    (compile plus one pass, as fast replay is compile plus replay)."""
    stats = {}
    for app, records in traces.items():
        cell = SweepCell(app, {0: records}, SimConfig(), "utlb")
        (axis,), _ = plan_axes([cell], [0], [cell.config], id)
        stats[app] = solve_axis_node(compile_streams(records), axis.spec)[0]
    return json.dumps(stats, sort_keys=True)


def _solve_all(traces):
    """Every trace under both mechanisms, one single-cell batch each
    through the default runner; ``_replay_all``'s JSON shape."""
    stats = {}
    solved = 0
    for app, records in traces.items():
        stats[app] = {}
        for mechanism in ("utlb", "intr"):
            runner = SweepRunner()
            result = runner.run({0: records}, SimConfig(), mechanism)
            stats[app][mechanism] = result.to_dict()["nodes"][0]
            solved += runner.metrics.analytic_cells
    if solved != len(traces):
        raise SystemExit(
            "FAIL: runner solved %d single cells, expected %d (every utlb cell)"
            % (solved, len(traces))
        )
    return json.dumps(stats, sort_keys=True)


def _best_of(function, traces, repeats):
    """Best-of-``repeats`` wall time (deterministic work, noisy machines)."""
    best = None
    stats = None
    for _ in range(repeats):
        start = time.perf_counter()
        stats = function(traces)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return stats, best


def _single_cell_speedup(traces, repeats, min_speedup):
    """The single-cell parity gate plus the solve-vs-fast speedup point.

    Parity covers the full mechanism matrix (utlb solved, intr replayed
    by the same runner); the timed comparison is utlb only, the slice
    the solver answers.
    """
    if _solve_all(traces) != _replay_all(traces, "fast"):
        raise SystemExit("FAIL: single-cell batches diverged from the fast engine")
    fast_stats, fast_s = _best_of(_replay_utlb, traces, repeats)
    solved_stats, solved_s = _best_of(_solve_utlb, traces, repeats)
    if solved_stats != fast_stats:
        raise SystemExit("FAIL: single-cell utlb solve diverged from the fast engine")
    speedup = fast_s / solved_s
    print("single-cell batches byte-identical to fast (utlb solved, intr replayed)")
    print(
        "  utlb: fast replay %.3fs  single-cell solve %.3fs  speedup %.1fx"
        % (fast_s, solved_s, speedup)
    )
    if speedup < min_speedup:
        raise SystemExit(
            "FAIL: single-cell solve speedup %.1fx below threshold %.1fx"
            % (speedup, min_speedup)
        )
    return {
        "fast_s": fast_s,
        "analytic_s": solved_s,
        "speedup": speedup,
    }


def bench_replay_fast_engine(benchmark):
    traces = _traces()
    reference = _replay_all(traces, "reference")
    result = benchmark(_replay_all, traces, "fast")
    benchmark.extra_info["pages"] = _total_pages(traces)
    assert result == reference, "fast engine diverged from reference"


def bench_replay_reference_engine(benchmark):
    traces = _traces()
    benchmark(_replay_all, traces, "reference")
    benchmark.extra_info["pages"] = _total_pages(traces)


def _grid_cells(traces):
    """The sweep grid, sharing one record list per app across all cells
    (what lets the batch compile each trace once)."""
    cells = []
    for app in APPS:
        node_traces = {0: traces[app]}
        for mechanism in GRID_MECHANISMS:
            for entries in GRID_CACHE_ENTRIES:
                cells.append(
                    SweepCell(
                        "%s/%s/%d" % (app, mechanism, entries),
                        node_traces,
                        SimConfig(cache_entries=entries),
                        mechanism,
                    )
                )
    return cells


def _run_grid(traces, workers, analytic=True):
    """Run the grid uncached; returns (sorted-keys results JSON, metrics)."""
    with SweepRunner(workers=workers, cache_dir=None, analytic=analytic) as runner:
        results = runner.run_cells(_grid_cells(traces))
        payload = json.dumps([r.to_dict() for r in results], sort_keys=True)
        return payload, runner.metrics


def _axis_cells(traces):
    """The analytic-eligible slice of the grid: per app, the utlb
    cache-size axis over every ``AXIS_CACHE_ENTRIES`` point."""
    cells = []
    for app in APPS:
        node_traces = {0: traces[app]}
        for entries in AXIS_CACHE_ENTRIES:
            cells.append(
                SweepCell(
                    "%s/utlb/%d" % (app, entries),
                    node_traces,
                    SimConfig(cache_entries=entries),
                    "utlb",
                )
            )
    return cells


def _time_axis(traces, analytic, repeats):
    """Best-of-``repeats`` wall time for the cache-size axis cells."""
    best = None
    payload = None
    metrics = None
    for _ in range(repeats):
        with SweepRunner(workers=1, cache_dir=None, analytic=analytic) as runner:
            start = time.perf_counter()
            results = runner.run_cells(_axis_cells(traces))
            elapsed = time.perf_counter() - start
        candidate = json.dumps([r.to_dict() for r in results], sort_keys=True)
        if best is None or elapsed < best:
            best, payload, metrics = elapsed, candidate, runner.metrics
    return payload, best, metrics


def _axis_speedup(traces, repeats, min_speedup):
    """The analytic-parity gate plus the axis-solver speedup point.

    Parity is a hard gate (byte-identity is the solver's contract);
    the speedup threshold is configurable so CI can keep it modest on
    noisy shared runners while ``BENCH_*.json`` records the real ratio.
    """
    replay_payload, replay_s, _ = _time_axis(traces, False, repeats)
    solved_payload, solved_s, metrics = _time_axis(traces, True, repeats)
    if solved_payload != replay_payload:
        raise SystemExit("FAIL: analytic axis solver diverged from per-cell replay")
    cells = len(metrics.cells)
    if metrics.analytic_cells != cells:
        raise SystemExit(
            "FAIL: only %d of %d axis cells were solved analytically"
            % (metrics.analytic_cells, cells)
        )
    speedup = replay_s / solved_s
    print(
        "analytic axis (%d cells, %d axes) byte-identical to replay"
        % (cells, metrics.analytic_axes)
    )
    print(
        "  replay %.3fs  analytic %.3fs  speedup %.1fx" % (replay_s, solved_s, speedup)
    )
    if speedup < min_speedup:
        raise SystemExit(
            "FAIL: axis-solver speedup %.1fx below threshold %.1fx"
            % (speedup, min_speedup)
        )
    return {
        "cells": cells,
        "analytic_axes": metrics.analytic_axes,
        "analytic_cells": metrics.analytic_cells,
        "replay_s": replay_s,
        "analytic_s": solved_s,
        "speedup": speedup,
    }


def _solved_grid(traces, serial_payload, serial_metrics):
    """The default runner must batch-solve every utlb grid cell, and the
    grid must be byte-identical to per-cell replay (``analytic=False``)."""
    payload, _ = _run_grid(traces, workers=1, analytic=False)
    if payload != serial_payload:
        raise SystemExit("FAIL: batch-solved sweep grid diverged from per-cell replay")
    expected = len(APPS) * len(GRID_CACHE_ENTRIES)
    solved = serial_metrics.analytic_cells
    if solved != expected:
        raise SystemExit(
            "FAIL: runner solved %d grid cells, expected %d (every "
            "utlb cell)" % (solved, expected)
        )
    print(
        "batch-solved grid byte-identical to replay (%d of %d cells "
        "solved)" % (solved, len(serial_metrics.cells))
    )
    return solved


def _sweep_grid(
    traces,
    workers,
    metrics_json=None,
    axis_speedup=None,
    single_cell_speedup=None,
    bench_scale=BENCH_SCALE,
    bench_seed=BENCH_SEED,
):
    """The shared-stream fan-out check: parallel == serial, one compile
    per distinct trace, metrics optionally archived as JSON."""
    serial_payload, serial_metrics = _run_grid(traces, workers=1)
    # The pool forks from this process, and workers inherit its garbage
    # collector state: one left near a full collection makes every
    # worker traverse (and copy-on-write) the whole inherited heap.
    # Collect first so the timed grid does not depend on what earlier
    # phases allocated.
    gc.collect()
    payload, metrics = _run_grid(traces, workers=workers)
    if payload != serial_payload:
        raise SystemExit(
            "FAIL: sweep grid with workers=%d diverged from serial" % workers
        )
    if metrics.compile_count != len(APPS):
        raise SystemExit(
            "FAIL: batch compiled %d traces, expected %d (one per "
            "distinct node trace)" % (metrics.compile_count, len(APPS))
        )
    solved_cells = _solved_grid(traces, serial_payload, serial_metrics)
    totals = metrics.to_dict()["totals"]
    print(
        "sweep grid (%d cells, workers=%d) byte-identical to serial"
        % (totals["cells"], workers)
    )
    print(
        "  elapsed %.3fs  cpu %.3fs  ipc %d bytes  %.0f pages/s  "
        "%d analytic cells"
        % (
            totals["elapsed_s"],
            totals["cpu_time_s"],
            totals["ipc_bytes"],
            totals["pages_per_sec"],
            totals["analytic_cells"],
        )
    )
    if metrics_json:
        archive = metrics.to_dict()
        if axis_speedup is not None:
            archive["analytic_axis_speedup"] = axis_speedup
        if single_cell_speedup is not None:
            archive["single_cell_speedup"] = single_cell_speedup
        archive["bench"] = {
            "kind": "replay-grid",
            "apps": list(APPS),
            "engines": ["fast", "analytic"],
            "grid_cache_entries": list(GRID_CACHE_ENTRIES),
            "axis_cache_entries": list(AXIS_CACHE_ENTRIES),
            "solved_grid_cells": solved_cells,
            "scale": bench_scale,
            "seed": bench_seed,
            "workers": workers,
        }
        with open(metrics_json, "w") as handle:
            json.dump(archive, handle, indent=2, sort_keys=True)
        print("  metrics written to %s" % metrics_json)


def _time_engine(traces, engine, repeats, tracer=None):
    return _best_of(lambda t: _replay_all(t, engine, tracer), traces, repeats)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Replay a trace through both engines, assert "
        "identical stats, report the speedup."
    )
    parser.add_argument("--scale", type=float, default=BENCH_SCALE)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per engine (best-of)"
    )
    parser.add_argument(
        "--nulltracer-threshold",
        type=float,
        default=0.75,
        help="minimum fast+NullTracer throughput as a "
        "fraction of the untraced fast path "
        "(best-of-N absorbs scheduler noise)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep-grid phase; "
        ">1 exercises the shared-stream fan-out and "
        "diffs it against a serial run",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the sweep grid's SweepMetrics dict as JSON to PATH",
    )
    parser.add_argument(
        "--min-axis-speedup",
        type=float,
        default=2.0,
        help="minimum analytic-axis-solver speedup over "
        "per-cell replay (parity is always gated; "
        "the recorded ratio is the real one)",
    )
    parser.add_argument(
        "--min-single-cell-speedup",
        type=float,
        default=1.5,
        help="minimum single-cell analytic solve speedup "
        "over fast replay of the same utlb cells (parity "
        "is always gated; the recorded ratio is the "
        "real one)",
    )
    args = parser.parse_args(argv)

    traces = _traces(scale=args.scale, seed=args.seed)
    pages = _total_pages(traces)
    fast_stats, fast_s = _time_engine(traces, "fast", args.repeats)
    ref_stats, ref_s = _time_engine(traces, "reference", args.repeats)

    if fast_stats != ref_stats:
        raise SystemExit("FAIL: fast engine stats differ from reference")
    print(
        "engines byte-identical over %s (%d pages replayed)" % (", ".join(APPS), pages)
    )
    print("reference: %.3fs  (%.0f pages/s)" % (ref_s, pages / ref_s))
    print("fast:      %.3fs  (%.0f pages/s)" % (fast_s, pages / fast_s))
    print("speedup:   %.2fx" % (ref_s / fast_s))

    # Zero-cost tracing: a disabled tracer must leave the fast path's
    # output byte-identical and its throughput within noise.
    null_stats, null_s = _time_engine(traces, "fast", args.repeats, tracer=NullTracer())
    if null_stats != fast_stats:
        raise SystemExit("FAIL: NullTracer changed the fast engine stats")
    ratio = fast_s / null_s
    print(
        "fast+NullTracer: %.3fs  (%.0f pages/s, %.2fx of untraced)"
        % (null_s, pages / null_s, ratio)
    )
    if ratio < args.nulltracer_threshold:
        raise SystemExit(
            "FAIL: NullTracer throughput %.2fx of the untraced fast path "
            "(threshold %.2f)" % (ratio, args.nulltracer_threshold)
        )

    single_cell_speedup = _single_cell_speedup(
        traces, args.repeats, args.min_single_cell_speedup
    )
    axis_speedup = _axis_speedup(traces, args.repeats, args.min_axis_speedup)
    _sweep_grid(
        traces,
        args.workers,
        args.metrics_json,
        axis_speedup,
        single_cell_speedup,
        bench_scale=args.scale,
        bench_seed=args.seed,
    )


if __name__ == "__main__":
    main()
