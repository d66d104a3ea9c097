"""The bounded-memory scale benchmark: streaming generate->compile->replay.

Drives the trace pipeline end to end at datacenter-ish trace lengths
(default: the zipf-kv workload at 20x+ the largest Table 3 lookup
count) and records *memory* alongside throughput.  Generation runs the
parallel per-process path (``--gen-workers``, byte-identical to the
serial streaming compile; 0 forces serial) and replay runs the tier
axis (``--engine fast|analytic|both``: fast replay, or the cell solved
as an analytic axis of one; ``both`` asserts byte-identity at scale and
reports the analytic run).  Alongside the timings:

* peak RSS (``getrusage``) is sampled after generate+compile+publish —
  the phase whose footprint used to be O(records) — and gated against
  ``--ceiling-mb``.  With the streaming path the peak is the compiled
  arrays (8 bytes/lookup) plus interpreter baseline; the old eager path
  held every ``TraceRecord`` object as well (~50-100x more), so at this
  trace length it blows the same ceiling.
* an optional ``--eager-probe`` measures that directly: a spawned child
  process builds the full record list the pre-streaming pipeline built,
  compiles it, and reports its own peak RSS (child RSS is isolated —
  ``ru_maxrss`` is process-lifetime-monotone, so the probe must not
  share the parent's counter).
* an optional tracemalloc pass re-runs generate+compile under the
  allocation tracer for a Python-heap peak that is independent of the
  allocator's RSS behaviour.  It is untimed — tracemalloc slows
  generation several-fold — and never part of the throughput numbers.

The metrics JSON mirrors the ``SweepMetrics`` totals schema (so
``check_bench_anchor`` gates it like any other snapshot) with
``bench.kind = "scale"`` and a ``memory`` section; committed anchors
(``BENCH_8.json`` onward) record the memory trajectory PR over PR.

Usage::

    python -m benchmarks.bench_scale --ceiling-mb 220 \
        --metrics-json scale-metrics.json
"""

import argparse
import json
import resource
import sys
import time
import tracemalloc
from multiprocessing import get_context

from repro.sim.analytic import plan_axes, solve_axis_node
from repro.sim.config import SimConfig
from repro.sim.runner import SweepCell
from repro.sim.simulator import NodeResult, simulate_node
from repro.sim.stream_store import SharedStreamStore
from repro.traces.compile import (
    DEFAULT_CHUNK_RECORDS,
    compile_in_chunks,
    compile_streams,
)
from repro.traces.parallel import (
    compile_node_parallel,
    default_generation_workers,
)
from repro.traces.synth import make_workload

#: The scale factor applied to zipf-kv's defaults: 10x gives 2M lookups
#: per node (8 processes x 250k requests) — 46x the largest Table 3
#: trace (fft, 43132 lookups/node) — over 10k tenants.
DEFAULT_SCALE = 10.0

DEFAULT_SEED = 1

#: Peak-RSS budget (MB) for generate+compile+publish.  The streaming
#: pipeline needs ~95 MB here (interpreter baseline + compiled arrays
#: + the shared-memory copy); the eager path's record list pushes the
#: same work to ~350 MB at the default scale, so the ceiling separates
#: the two regimes with wide margins on both sides.
DEFAULT_CEILING_MB = 220


def _peak_rss_kb():
    """This process's lifetime peak RSS in KB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _eager_probe(scale, seed):
    """The pre-streaming pipeline, in whatever process runs this:
    materialize the full record list, then compile it."""
    workload = make_workload("zipf-kv")
    records = list(workload.iter_node(0, seed=seed, scale=scale))
    compile_streams(records)
    return _peak_rss_kb()


def _eager_peak_rss_kb(scale, seed):
    """Run the eager probe in a spawned child; returns the child's peak
    RSS in KB.  Spawn (not fork) so the child starts from a fresh
    interpreter baseline instead of inheriting the parent's footprint.
    """
    with get_context("spawn").Pool(1) as pool:
        return pool.apply(_eager_probe, (scale, seed))


def _replay(engine, source, compiled):
    """One default utlb cell over ``compiled``: fast replay, or the
    runner's plan for it (an analytic axis of one) solved in one pass."""
    config = SimConfig()
    if engine == "fast":
        return simulate_node(source, config, compiled=compiled)
    cell = SweepCell("scale", {0: source}, config, "utlb")
    (axis,), _ = plan_axes([cell], [0], [config], id)
    return NodeResult.from_dict(solve_axis_node(compiled, axis.spec)[0])


def _tracemalloc_peak_kb(source, chunk_records):
    """Python-heap peak of one generate+compile pass, in KB (untimed)."""
    tracemalloc.start()
    try:
        compile_in_chunks(source, chunk_records)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak // 1024


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Stream-generate, compile, publish, and replay a "
        "datacenter-scale zipf trace; record peak RSS alongside "
        "pages/sec and gate the RSS against a ceiling.",
    )
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=DEFAULT_CHUNK_RECORDS,
        help="records staged per StreamCompiler.add call (the pipeline's "
        "only O(trace-length-independent) buffer)",
    )
    parser.add_argument(
        "--ceiling-mb",
        type=int,
        default=DEFAULT_CEILING_MB,
        help="peak-RSS budget for generate+compile+publish; exceeding "
        "it fails the run (default 220 MB)",
    )
    parser.add_argument(
        "--eager-probe",
        action="store_true",
        help="also measure the old eager path's peak RSS in a child "
        "process (slow: it really builds the full record list)",
    )
    parser.add_argument(
        "--skip-tracemalloc",
        action="store_true",
        help="skip the (untimed, several-fold slower) tracemalloc "
        "generate+compile pass",
    )
    parser.add_argument(
        "--engine",
        choices=("fast", "analytic", "both"),
        default="both",
        help="replay tier; 'both' runs fast replay and the single-cell "
        "analytic solve, asserts byte-identical results, and reports the "
        "headline numbers from the analytic run (default)",
    )
    parser.add_argument(
        "--gen-workers",
        type=int,
        default=None,
        metavar="N",
        help="generation worker processes for the parallel per-process "
        "compile (default: one per CPU, capped at 16); 0 forces the "
        "serial streaming compile",
    )
    parser.add_argument("--metrics-json", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    workload = make_workload("zipf-kv")
    source = workload.streaming_node(0, seed=args.seed, scale=args.scale)
    lookups = workload.node_lookups(args.scale)
    baseline_kb = _peak_rss_kb()
    print(
        "zipf-kv scale=%g: %d lookups over %d processes, %d tenants"
        % (
            args.scale,
            lookups,
            workload.server_processes,
            workload.scaled_sizes(args.scale)[0],
        )
    )

    gen_workers = (
        default_generation_workers() if args.gen_workers is None else args.gen_workers
    )

    # Phase 1 (timed): per-process parallel generate -> vectorized
    # merge+compile (byte-identical to the serial streaming compile;
    # --gen-workers 0 runs that serial path instead).  The record list
    # never exists either way.
    start = time.perf_counter()
    if gen_workers > 0:
        compiled = compile_node_parallel(
            workload, node=0, seed=args.seed, scale=args.scale, workers=gen_workers
        )
    else:
        compiled = compile_in_chunks(source, args.chunk_records)
    compile_s = time.perf_counter() - start
    assert compiled.total_pages == lookups

    # Phase 2: publish to the shared-memory store and swap to a view,
    # exactly like a pooled SweepRunner batch — then sample the gated
    # peak: everything the parent ever held to get replay-ready.
    engines = ("fast", "analytic") if args.engine == "both" else (args.engine,)
    store = SharedStreamStore()
    try:
        store.publish("bench", compiled)
        compiled = store.view("bench")
        peak_kb = _peak_rss_kb()
        ceiling_kb = args.ceiling_mb * 1024

        # Phase 3 (timed): replay through the requested tier(s)
        # against the shared view (the store outlives the replay, like
        # a batch).  With --engine both the results must be
        # byte-identical and the analytic run is the headline.
        replay_times = {}
        results = {}
        for engine in engines:
            start = time.perf_counter()
            results[engine] = _replay(engine, source, compiled)
            replay_times[engine] = time.perf_counter() - start
    finally:
        store.close()
    if len(results) > 1:
        dicts = [json.dumps(r.to_dict(), sort_keys=True) for r in results.values()]
        if len(set(dicts)) != 1:
            raise SystemExit("FAIL: fast replay and analytic solve diverged at scale")
        print(
            "fast replay and analytic solve byte-identical "
            "(fast %.2fs, analytic %.2fs, %.1fx)"
            % (
                replay_times["fast"],
                replay_times["analytic"],
                replay_times["fast"] / replay_times["analytic"],
            )
        )
    headline = engines[-1]
    result = results[headline]
    replay_s = replay_times[headline]
    assert result.stats.lookups == lookups

    elapsed_s = compile_s + replay_s
    pages_per_sec = lookups / elapsed_s
    print(
        "compile %.2fs (%.0f rec/s)  replay %.2fs (%.0f pages/s)  "
        "pipeline %.0f pages/s"
        % (
            compile_s,
            lookups / compile_s,
            replay_s,
            lookups / replay_s,
            pages_per_sec,
        )
    )
    print(
        "peak RSS %.1f MB (baseline %.1f MB, ceiling %d MB)"
        % (peak_kb / 1024.0, baseline_kb / 1024.0, args.ceiling_mb)
    )

    tracemalloc_kb = None
    if not args.skip_tracemalloc:
        tracemalloc_kb = _tracemalloc_peak_kb(source, args.chunk_records)
        print(
            "tracemalloc generate+compile heap peak %.1f MB"
            % (tracemalloc_kb / 1024.0)
        )

    eager_kb = None
    if args.eager_probe:
        eager_kb = _eager_peak_rss_kb(args.scale, args.seed)
        print(
            "eager-path peak RSS %.1f MB (%.1fx the streaming peak)"
            % (eager_kb / 1024.0, eager_kb / peak_kb)
        )
        if eager_kb <= ceiling_kb:
            raise SystemExit(
                "FAIL: the eager probe fits the %d MB ceiling — raise "
                "--scale until the ceiling separates the regimes"
                % args.ceiling_mb
            )

    if args.metrics_json:
        archive = {
            "totals": {
                "cells": 1,
                "lookups": lookups,
                "elapsed_s": elapsed_s,
                "pages_per_sec": pages_per_sec,
                "phases": {
                    "compile_s": compile_s,
                    "replay_s": replay_s,
                    "report_s": 0.0,
                },
                "cache_hits": 0,
                "cache_misses": 1,
                "analytic_axes": int(headline == "analytic"),
                "analytic_cells": int(headline == "analytic"),
            },
            "memory": {
                "baseline_rss_kb": baseline_kb,
                "peak_rss_kb": peak_kb,
                "ceiling_kb": ceiling_kb,
                "tracemalloc_peak_kb": tracemalloc_kb,
                "eager_peak_rss_kb": eager_kb,
            },
            "engines": {
                engine: {"replay_s": replay_times[engine]} for engine in engines
            },
            "bench": {
                "kind": "scale",
                "workload": "zipf-kv",
                "scale": args.scale,
                "seed": args.seed,
                "nodes": 1,
                "chunk_records": args.chunk_records,
                "engine": headline,
                "gen_workers": gen_workers,
                "tenants": workload.scaled_sizes(args.scale)[0],
                "server_processes": workload.server_processes,
            },
        }
        with open(args.metrics_json, "w") as handle:
            json.dump(archive, handle, indent=2, sort_keys=True)
        print("metrics written to %s" % args.metrics_json)

    if peak_kb > ceiling_kb:
        raise SystemExit(
            "FAIL: peak RSS %.1f MB exceeds the %d MB ceiling — the "
            "generate+compile path is holding O(records) memory again"
            % (peak_kb / 1024.0, args.ceiling_mb)
        )
    print("memory ceiling gate OK (%d MB)" % args.ceiling_mb)


if __name__ == "__main__":
    sys.exit(main())
