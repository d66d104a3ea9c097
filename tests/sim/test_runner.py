"""The parallel sweep engine: determinism, caching, metrics, JSON.

Three properties carry the engine's whole value:

* a parallel run is byte-identical to the serial baseline — under both
  ``fork`` and ``spawn``, with the shared-memory stream store active,
* the cache answers identical inputs and never answers changed ones,
* the structured metrics faithfully record what each cell cost.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import shared_memory

import pytest

from repro.cachesim.classify import MissBreakdown
from repro.core.stats import TranslationStats
from repro.errors import ConfigError
from repro.sim import runner as runner_module
from repro.sim.config import SimConfig
from repro.sim.runner import (
    SweepCell,
    SweepRunner,
    cell_key,
    code_version,
    trace_census,
    trace_fingerprint,
    workers_from_env,
)
from repro.sim.simulator import ClusterResult, NodeResult, simulate_node
from repro.traces.record import TraceRecord, count_lookups, footprint_pages
from repro.traces.synth import (
    WORKLOADS,
    MixedWorkload,
    make_app,
    make_workload,
)
from repro.traces.synth.base import StreamingNodeTrace

SCALE = 0.05
SEED = 1

#: Start methods available on this platform ("fork" is absent on
#: Windows; both exist on the POSIX hosts CI runs).
MP_CONTEXTS = [method for method in ("fork", "spawn")
               if method in multiprocessing.get_all_start_methods()]


@pytest.fixture(scope="module")
def traces():
    """Two-node FFT traces, small enough for many replays per test run."""
    return make_app("fft").generate_cluster(nodes=2, seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def config():
    return SimConfig(cache_entries=256)


def run_dicts(results):
    return [r.to_dict() for r in results]


class TestJsonRoundTrip:
    def test_node_result_round_trips(self, traces, config):
        result = simulate_node(traces[0], config)
        rebuilt = NodeResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.stats.snapshot() == result.stats.snapshot()
        assert sorted(rebuilt.per_pid) == sorted(result.per_pid)

    def test_cluster_result_round_trips(self, traces, config):
        runner = SweepRunner()
        result = runner.run(traces, config)
        rebuilt = ClusterResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_breakdown_round_trips(self, traces):
        result = simulate_node(traces[0],
                               SimConfig(cache_entries=256, classify=True))
        assert result.breakdown is not None
        rebuilt = MissBreakdown.from_dict(result.breakdown.to_dict())
        assert rebuilt.to_dict() == result.breakdown.to_dict()

    def test_stats_round_trips_through_json(self, traces, config):
        stats = simulate_node(traces[0], config).stats
        blob = json.dumps(stats.to_dict())
        rebuilt = TranslationStats.from_dict(json.loads(blob))
        assert rebuilt.snapshot() == stats.snapshot()


class TestDeterminism:
    @pytest.mark.parametrize("mp_context", MP_CONTEXTS)
    def test_parallel_equals_serial(self, traces, config, mp_context):
        cells = [SweepCell(size, traces, config.replace(cache_entries=size))
                 for size in (128, 256, 512)]
        serial = SweepRunner(workers=1).run_cells(cells)
        with SweepRunner(workers=2,
                         mp_context=mp_context) as parallel_runner:
            parallel = parallel_runner.run_cells(cells)
            # The shared-memory path was actually exercised, not a
            # records-pickling fallback.
            assert parallel_runner.last_stream_manifest
        assert run_dicts(parallel) == run_dicts(serial)

    @pytest.mark.parametrize("mp_context", MP_CONTEXTS)
    def test_mechanisms_parallel_equals_serial(self, traces, config,
                                               mp_context):
        cells = [SweepCell(mech, traces, config, mech)
                 for mech in ("utlb", "intr", "pp")]
        serial = SweepRunner(workers=1).run_cells(cells)
        with SweepRunner(workers=2,
                         mp_context=mp_context) as parallel_runner:
            parallel = parallel_runner.run_cells(cells)
        assert run_dicts(parallel) == run_dicts(serial)

    def test_reference_engine_parallel_equals_serial(self, traces, config):
        # Reference-engine units ship their records (no compiled
        # streams); the mixed batch exercises both transports at once.
        cells = [SweepCell(engine, traces, config.replace(engine=engine))
                 for engine in ("fast", "reference")]
        serial = SweepRunner(workers=1).run_cells(cells)
        with SweepRunner(workers=2) as parallel_runner:
            parallel = parallel_runner.run_cells(cells)
        assert run_dicts(parallel) == run_dicts(serial)

    def test_results_returned_in_submission_order(self, traces, config):
        sizes = (512, 128, 256)
        cells = [SweepCell(size, traces, config.replace(cache_entries=size))
                 for size in sizes]
        results = SweepRunner().run_cells(cells)
        direct = {size: SweepRunner().run(
                      traces, config.replace(cache_entries=size))
                  for size in sizes}
        for size, result in zip(sizes, results):
            assert result.to_dict() == direct[size].to_dict()


class TestCache:
    def test_warm_run_hits_and_matches(self, traces, config, tmp_path):
        cold = SweepRunner(cache_dir=str(tmp_path))
        first = cold.run(traces, config)
        assert cold.cache.hits == 0 and cold.cache.misses == 1

        warm = SweepRunner(cache_dir=str(tmp_path))
        second = warm.run(traces, config)
        assert warm.cache.hits == 1 and warm.cache.misses == 0
        assert second.to_dict() == first.to_dict()

    def test_any_config_field_change_misses(self, traces, config, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        runner.run(traces, config)
        for changed in (config.replace(cache_entries=512),
                        config.replace(associativity=2),
                        config.replace(offsetting=False),
                        config.replace(prefetch=4, prepin=4),
                        config.replace(pin_policy="mru"),
                        config.replace(memory_limit_bytes=1 << 20)):
            assert cell_key(traces, changed, "utlb") != \
                cell_key(traces, config, "utlb")
        runner2 = SweepRunner(cache_dir=str(tmp_path))
        runner2.run(traces, config.replace(cache_entries=512))
        assert runner2.cache.hits == 0 and runner2.cache.misses == 1

    def test_mechanism_and_trace_shape_key(self, traces, config):
        base = cell_key(traces, config, "utlb")
        assert cell_key(traces, config, "intr") != base
        other = make_app("fft").generate_cluster(nodes=2, seed=SEED + 1,
                                                 scale=SCALE)
        assert cell_key(other, config, "utlb") != base
        assert cell_key(traces, config, "utlb") == base   # stable

    def test_corrupt_entry_is_deleted_and_counted(self, traces, config,
                                                  tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        first = runner.run(traces, config)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json")
        rerun = SweepRunner(cache_dir=str(tmp_path))
        result = rerun.run(traces, config)
        # Corrupt is its own outcome — not a hit, not a plain miss — and
        # the broken file is removed so it cannot re-miss forever.
        assert rerun.cache.corrupt == 1
        assert rerun.cache.hits == 0 and rerun.cache.misses == 0
        assert rerun.metrics.cache_corrupt == 1
        assert rerun.metrics.to_dict()["totals"]["cache_corrupt"] == 1
        assert result.stats.lookups > 0
        assert result.to_dict() == first.to_dict()
        # The replay re-stored a good entry, so a third run hits clean.
        third = SweepRunner(cache_dir=str(tmp_path))
        assert third.run(traces, config).to_dict() == first.to_dict()
        assert third.cache.hits == 1 and third.cache.corrupt == 0

    def test_fingerprints_are_content_hashes(self, traces):
        assert trace_fingerprint(traces[0]) == trace_fingerprint(traces[0])
        assert trace_fingerprint(traces[0]) != trace_fingerprint(traces[1])
        assert len(code_version()) == 16

    def test_fingerprint_falls_back_on_unpackable_records(self):
        # A pid beyond the packed layout's 64-bit field routes the whole
        # trace through the repr fallback, which must stay a working,
        # content-sensitive hash (and never collide with packed form).
        records = [TraceRecord(0, 0, 1 << 70, "send", 0x10000000, 4096)]
        other = [TraceRecord(0, 0, (1 << 70) + 1, "send", 0x10000000, 4096)]
        assert trace_fingerprint(records) == trace_fingerprint(records)
        assert trace_fingerprint(records) != trace_fingerprint(other)
        packable = [TraceRecord(0, 0, 1, "send", 0x10000000, 4096)]
        assert trace_fingerprint(records) != trace_fingerprint(packable)


class TestMetrics:
    def test_cells_record_cost_and_outcome(self, traces, config, tmp_path):
        runner = SweepRunner(cache_dir=str(tmp_path))
        runner.run(traces, config, label=("fft", 256))
        runner.run(traces, config, label=("fft", 256))   # warm
        report = runner.metrics.to_dict()
        assert report["workers"] == 1
        assert report["totals"]["cells"] == 2
        assert report["totals"]["cache_hits"] == 1
        assert report["totals"]["cache_misses"] == 1
        cold_cell, warm_cell = report["cells"]
        assert not cold_cell["cache_hit"] and warm_cell["cache_hit"]
        for cell in (cold_cell, warm_cell):
            assert cell["label"] == str(("fft", 256))
            assert cell["nodes"] == 2
            assert cell["wall_time_s"] > 0.0
            assert cell["lookups"] == cell["stats"]["lookups"] > 0
        json.dumps(report)                                # JSON-safe

    def test_metrics_survive_json(self, traces, config):
        runner = SweepRunner()
        runner.run(traces, config)
        report = json.loads(json.dumps(runner.metrics.to_dict()))
        assert report["totals"]["lookups"] == \
            runner.metrics.cells[0].lookups

    def test_elapsed_is_wall_clock_cpu_is_the_sum(self, traces, config):
        runner = SweepRunner()
        runner.run(traces, config)
        runner.run(traces, config)
        totals = runner.metrics.to_dict()["totals"]
        # elapsed_s accumulates per batch; cpu_time_s sums unit phases.
        assert totals["elapsed_s"] > 0.0
        assert totals["cpu_time_s"] == pytest.approx(
            sum(c.wall_time_s for c in runner.metrics.cells))
        # Serially, the batch wall clock contains every unit's phases.
        assert totals["elapsed_s"] >= totals["cpu_time_s"]
        assert totals["pages_per_sec"] == pytest.approx(
            totals["lookups"] / totals["elapsed_s"])

    def test_cell_reports_tier_and_phase_split(self, traces, config):
        """Cells tag the tier that answered them and promote the
        compile/replay split to top-level metric fields.  The per-cell
        ``kernel`` key survives for report readers, always False."""
        runner = SweepRunner()
        limited = config.replace(memory_limit_bytes=64 * 4096)
        runner.run(traces, config)                      # cache axis of one
        runner.run(traces, limited)                     # memory axis of one
        runner.run(traces, config, mechanism="intr")    # cache axis of one
        runner.run(traces, limited, mechanism="intr")   # fast replay
        report = runner.metrics.to_dict()
        solved, limited, intr, replayed = report["cells"]
        assert solved["analytic"] and limited["analytic"]
        assert intr["analytic"]
        assert not replayed["analytic"]
        for cell in report["cells"]:
            assert cell["kernel"] is False
            assert cell["compile_s"] == cell["phases"]["compile_s"]
            assert cell["replay_s"] == cell["phases"]["replay_s"]
            assert cell["replay_s"] > 0.0

    def test_single_cell_solve_equals_replay(self, traces, config):
        runner = SweepRunner()
        solved = runner.run(traces, config)
        assert runner.metrics.analytic_cells == 1
        replayed = SweepRunner(analytic=False).run(traces, config)
        assert solved.to_dict() == replayed.to_dict()

    def test_cell_reports_compile_and_ipc_fields(self, traces, config):
        runner = SweepRunner()
        runner.run(traces, config)
        cell = runner.metrics.to_dict()["cells"][0]
        assert cell["compile_count"] == len(traces)
        assert cell["ipc_bytes"] == 0           # serial: no IPC at all
        with SweepRunner(workers=2) as parallel_runner:
            parallel_runner.run(traces, config)
            totals = parallel_runner.metrics.to_dict()["totals"]
        assert totals["ipc_bytes"] > 0
        assert totals["compile_count"] == len(traces)


class TestSharedStreamBatches:
    def test_batch_compiles_each_distinct_trace_once(self, traces, config):
        """N cells over the same traces: compile_count == distinct node
        traces, not cells x nodes — serial and parallel alike."""
        sizes = (128, 256, 512, 1024)
        cells = [SweepCell(size, traces,
                           config.replace(cache_entries=size))
                 for size in sizes]
        cells += [SweepCell("intr-%d" % size, traces,
                            config.replace(cache_entries=size), "intr")
                  for size in sizes]
        for workers in (1, 2):
            with SweepRunner(workers=workers) as runner:
                runner.run_cells(cells)
                assert runner.metrics.compile_count == len(traces)
                per_cell = [c.compile_count for c in runner.metrics.cells]
                assert sum(per_cell) == len(traces) != \
                    len(cells) * len(traces)

    def test_no_leaked_blocks_after_close(self, traces, config):
        cells = [SweepCell(size, traces, config.replace(cache_entries=size))
                 for size in (128, 256)]
        with SweepRunner(workers=2) as runner:
            runner.run_cells(cells)
            manifest = dict(runner.last_stream_manifest)
        assert manifest
        # Every published block is unlinked by the time the batch
        # returns (and certainly after close()): attaching by name fails.
        for name in manifest.values():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_blocks_unlinked_when_a_worker_fails(self, traces, config):
        # A config the workers will choke on: engine validation happens
        # in SimConfig, so break the unit by an unknown mechanism
        # injected after validation.
        cells = [SweepCell(128, traces, config.replace(cache_entries=128)),
                 SweepCell(256, traces, config.replace(cache_entries=256))]
        with SweepRunner(workers=2) as runner:
            broken = SweepCell(1, traces, config)
            broken.mechanism = "not-a-mechanism"     # bypasses __init__
            # Registry resolution fails at dispatch time, inside the
            # worker — after the good cells' streams were published.
            with pytest.raises(ConfigError):
                runner.run_cells(cells + [broken])
            manifest = dict(runner.last_stream_manifest)
        assert manifest
        for name in manifest.values():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestStreamingSources:
    """StreamingNodeTrace cells: the bounded-memory input path."""

    @pytest.fixture(scope="class")
    def zipf_traces(self):
        return make_workload("zipf-kv").streaming_cluster(nodes=2,
                                                          seed=SEED,
                                                          scale=0.02)

    def test_streaming_equals_eager_through_runner(self, config):
        workload = make_workload("zipf-kv")
        eager = workload.generate_cluster(nodes=2, seed=SEED, scale=0.02)
        streaming = workload.streaming_cluster(nodes=2, seed=SEED,
                                               scale=0.02)
        runner = SweepRunner()
        assert runner.run(streaming, config).to_dict() == \
            SweepRunner().run(eager, config).to_dict()

    @pytest.mark.parametrize("mp_context", MP_CONTEXTS)
    def test_parallel_equals_serial(self, zipf_traces, config, mp_context):
        cells = [SweepCell(size, zipf_traces,
                           config.replace(cache_entries=size))
                 for size in (128, 256)]
        serial = SweepRunner(workers=1).run_cells(cells)
        with SweepRunner(workers=2,
                         mp_context=mp_context) as parallel_runner:
            parallel = parallel_runner.run_cells(cells)
            assert parallel_runner.last_stream_manifest
        assert run_dicts(parallel) == run_dicts(serial)

    def test_cache_hits_on_streaming_sources(self, zipf_traces, config,
                                             tmp_path):
        cold = SweepRunner(cache_dir=str(tmp_path))
        first = cold.run(zipf_traces, config)
        assert cold.cache.misses == 1
        warm = SweepRunner(cache_dir=str(tmp_path))
        second = warm.run(zipf_traces, config)
        assert warm.cache.hits == 1 and warm.cache.misses == 0
        assert second.to_dict() == first.to_dict()

    def test_streaming_fingerprint_is_the_source_identity(self,
                                                          monkeypatch):
        # A synthetic source is keyed by what generates it, never by
        # hashing its records: equal sources agree without iterating,
        # and the key is not the record-list content hash (the two are
        # different cache identities for the same records).
        workload = make_workload("zipf-kv")
        eager = workload.generate_node(0, seed=SEED, scale=0.02)
        monkeypatch.setattr(StreamingNodeTrace, "__iter__", _no_iteration)
        streaming = workload.streaming_node(0, seed=SEED, scale=0.02)
        again = make_workload("zipf-kv").streaming_node(0, seed=SEED,
                                                        scale=0.02)
        assert trace_fingerprint(streaming) == trace_fingerprint(again)
        assert trace_fingerprint(streaming) != trace_fingerprint(eager)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batches_never_iterate_streaming_sources(self, zipf_traces,
                                                     config, workers,
                                                     tmp_path, monkeypatch):
        # Stream-eligible cells (analytic axes and fast replays alike)
        # key and compile a synthetic source without generating a
        # record: cold, and warm from the cache.
        calls = []
        iterate = StreamingNodeTrace.__iter__

        def counting(trace):
            calls.append(trace)
            return iterate(trace)

        monkeypatch.setattr(StreamingNodeTrace, "__iter__", counting)
        cells = [SweepCell(size, zipf_traces,
                           config.replace(cache_entries=size))
                 for size in (128, 256)]
        cells.append(SweepCell("prefetch", zipf_traces,
                               config.replace(prefetch=4)))
        with SweepRunner(workers=workers,
                         cache_dir=str(tmp_path)) as cold:
            first = cold.run_cells(cells)
        assert cold.metrics.cache_misses == len(cells)
        assert not calls
        with SweepRunner(workers=workers,
                         cache_dir=str(tmp_path)) as warm:
            second = warm.run_cells(cells)
        assert warm.metrics.cache_hits == len(cells)
        assert not calls
        assert run_dicts(second) == run_dicts(first)

    def test_lists_and_streams_agree_serial_parallel_cached(
            self, config, tmp_path):
        workload = make_workload("zipf-kv")
        eager = workload.generate_cluster(nodes=2, seed=SEED, scale=0.02)
        streaming = workload.streaming_cluster(nodes=2, seed=SEED,
                                               scale=0.02)

        def cells(traces):
            return [SweepCell(size, traces,
                              config.replace(cache_entries=size))
                    for size in (128, 256)] + [
                SweepCell("intr", traces, config, "intr"),
                SweepCell("ref", traces, config.replace(engine="reference")),
            ]

        expected = run_dicts(SweepRunner().run_cells(cells(eager)))
        for traces in (eager, streaming):
            assert run_dicts(SweepRunner().run_cells(cells(traces))) \
                == expected
            with SweepRunner(workers=2) as parallel:
                assert run_dicts(parallel.run_cells(cells(traces))) \
                    == expected
            for _ in range(2):      # cold, then warm
                cached = SweepRunner(cache_dir=str(tmp_path))
                assert run_dicts(cached.run_cells(cells(traces))) \
                    == expected
        assert cached.metrics.cache_hits == len(cells(eager))


def _no_iteration(trace):
    raise AssertionError("StreamingNodeTrace iterated")


def _identity(app=None, node=0, seed=SEED, scale=0.02):
    app = make_workload("zipf-kv") if app is None else app
    return trace_fingerprint(StreamingNodeTrace(app, node=node, seed=seed,
                                                scale=scale))


class TestSourceIdentity:
    """How a synthetic source is keyed: by everything that generates it,
    by nothing else."""

    ZIPF_KNOBS = dict(tenants=500, server_processes=4, pages_per_tenant=32,
                      lookups_per_process=9999, tenant_exponent=1.2,
                      page_exponent=0.8, skew_spread=0.25, skew_variants=8,
                      shared_pages=16, shared_fraction=0.05)

    def test_equal_in_a_fresh_interpreter_with_another_hash_seed(self):
        code = ("from repro.traces.synth import MixedWorkload, "
                "make_workload\n"
                "from repro.sim.runner import trace_fingerprint\n"
                "print(trace_fingerprint(make_workload('zipf-kv')"
                ".streaming_node(1, seed=3, scale=0.02)))\n"
                "print(trace_fingerprint(MixedWorkload(['fft', 'lu'])"
                ".streaming_node(0, seed=2, scale=0.05)))\n")
        here = [trace_fingerprint(make_workload("zipf-kv").streaming_node(
                    1, seed=3, scale=0.02)),
                trace_fingerprint(MixedWorkload(["fft", "lu"]).streaming_node(
                    0, seed=2, scale=0.05))]
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True,
                                 text=True).stdout.split()
            assert out == here

    @pytest.mark.parametrize("field, value",
                             [("node", 1), ("seed", SEED + 1),
                              ("scale", 0.03)])
    def test_changes_with_node_seed_scale(self, field, value):
        assert _identity(**{field: value}) != _identity()

    @pytest.mark.parametrize("knob", sorted(ZIPF_KNOBS))
    def test_changes_with_every_zipf_knob(self, knob):
        changed = make_workload("zipf-kv")
        setattr(changed, knob, self.ZIPF_KNOBS[knob])
        assert _identity(changed) != _identity()

    def test_changes_with_the_mixed_app_list(self):
        base = _identity(MixedWorkload(["fft", "lu"]))
        assert _identity(MixedWorkload(["lu", "fft"])) != base
        assert _identity(MixedWorkload(["fft", "lu", "radix"])) != base
        assert _identity(MixedWorkload(["fft", "lu"])) == base

    def test_changes_with_the_generator_source(self, monkeypatch):
        before = _identity()
        monkeypatch.setattr(runner_module, "_SYNTH_VERSION",
                            "edited-source")
        assert _identity() != before

    def test_normalized_scalars_share_a_key(self):
        numpy = pytest.importorskip("numpy")
        assert _identity(node=numpy.int64(0), seed=numpy.int64(SEED),
                         scale=numpy.float64(0.02)) == _identity()

    def test_unstable_state_falls_back_to_the_content_hash(self):
        # An attribute known only by its address, or a workload class
        # outside the digested generator source, must not be keyed
        # declaratively: the key is then the records' content hash.
        app = make_app("fft")
        app.extra = object()

        class Custom(type(make_app("fft"))):
            pass

        for workload in (app, Custom()):
            source = workload.streaming_node(0, seed=SEED, scale=0.05)
            assert trace_fingerprint(source) == \
                trace_fingerprint(list(source))

    def test_code_version_covers_the_shared_merge(self, monkeypatch):
        seen = []
        monkeypatch.setattr(runner_module, "_CODE_VERSION", None)
        monkeypatch.setattr(runner_module, "_digest_files",
                            lambda paths: seen.extend(paths) or "x")
        runner_module.code_version()
        assert os.path.join("traces", "parallel.py") in \
            {os.path.join(*path.split(os.sep)[-2:]) for path in seen}


class TestTraceCensus:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_matches_the_record_counts(self, name):
        workload = make_workload(name)
        source = workload.streaming_node(0, seed=SEED, scale=0.02)
        records = list(source)
        expected = (count_lookups(records), footprint_pages(records))
        assert trace_census(source) == expected
        assert trace_census(records) == expected


class TestAnalyticAttribution:
    """Axis-solved cells must report real costs, not zeros."""

    def axis_cells(self, traces, config):
        return [SweepCell(lim, traces,
                          config.replace(memory_limit_bytes=lim))
                for lim in (1 << 20, 2 << 20, 4 << 20, 8 << 20)]

    def test_axis_cells_share_the_solve_cost(self, traces, config):
        runner = SweepRunner()
        runner.run_cells(self.axis_cells(traces, config))
        cells = runner.metrics.cells
        assert all(c.analytic for c in cells)
        assert {c.axis_id for c in cells} == {0}
        for cell in runner.metrics.to_dict()["cells"]:
            assert cell["analytic"]
            assert cell["axis_id"] == 0
            assert cell["wall_time_s"] > 0.0
            assert cell["pages_per_sec"] > 0.0

    def test_axis_totals_match_the_sum_of_members(self, traces, config):
        runner = SweepRunner()
        runner.run_cells(self.axis_cells(traces, config))
        totals = runner.metrics.to_dict()["totals"]
        assert totals["analytic_axes"] == 1
        assert totals["analytic_cells"] == 4
        assert totals["cpu_time_s"] == pytest.approx(
            sum(c.wall_time_s for c in runner.metrics.cells))

    def test_axis_ids_are_run_unique_across_batches(self, traces, config):
        runner = SweepRunner()
        runner.run_cells(self.axis_cells(traces, config))
        runner.run_cells(self.axis_cells(
            traces, config.replace(cache_entries=512)))
        ids = [c.axis_id for c in runner.metrics.cells]
        assert ids == [0] * 4 + [1] * 4

    def test_replayed_cells_have_no_axis_id(self, traces, config):
        # Prefetch batching is outside the solver's cost model, so this
        # cell genuinely replays.
        runner = SweepRunner()
        runner.run(traces, config.replace(prefetch=4))
        (cell,) = runner.metrics.cells
        assert not cell.analytic
        assert cell.axis_id is None


class TestValidation:
    def test_unknown_mechanism_rejected(self, traces, config):
        with pytest.raises(ConfigError):
            SweepCell("x", traces, config, "magic")

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(workers=0)

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() == 1
        assert workers_from_env(default=4) == 4

    def test_workers_env_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert workers_from_env() == 3

    @pytest.mark.parametrize("value", ["zero", "2.5", "", "0", "-1"])
    def test_workers_env_invalid_raises_config_error(self, monkeypatch,
                                                     value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ConfigError) as excinfo:
            workers_from_env()
        assert repr(value) in str(excinfo.value)
