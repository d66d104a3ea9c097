"""The analytic axis solver: planning, exactness, stack properties.

The solver's whole contract is *byte-identity*: an analytic-eligible
axis must produce, cell by cell, the same ``ClusterResult.to_dict()``
the fast replay engine produces — counters and accumulated float time
fields alike.  The differential tests here enforce that over the
paper's own axes (Table 5 memory limits, Table 8 sizes x associativity
x offsetting) on synthetic multi-process traces built to exercise the
hard cases: set conflicts, unpin-then-invalidate interleavings, tiny
limits, empty traces.

The Hypothesis properties pin the stack-algorithm math itself:
histogram totals account for every access, misses are monotone
non-increasing in capacity (the LRU inclusion property), and a
single-cell axis agrees with a direct ``simulate_node`` replay.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.core.costs import DEFAULT_COST_MODEL
from repro.sim import analytic, kernels
from repro.sim.analytic import (
    cell_eligible,
    plan_axes,
    solve_axis_node,
    _memory_pass,
)
from repro.sim.config import SimConfig
from repro.sim.runner import SweepCell, SweepRunner, trace_fingerprint
from repro.sim.simulator import simulate_node
from repro.traces.compile import compile_streams
from repro.traces.record import TraceRecord


def synth_trace(seed, pids=4, accesses=2500, space=600, hot=48):
    """One node's records: interleaved pids, a hot region plus a tail.

    The hot/cold mix produces real reuse at several stack depths and —
    with a small cache — plenty of cross-pid set conflicts, the part of
    the memory-axis model (conflict flags, K' snapshots, invalidation
    accounting) that a uniform stream would never stress.
    """
    rng = random.Random(seed)
    records = []
    for t in range(accesses):
        page = rng.randrange(hot) if rng.random() < 0.55 \
            else rng.randrange(space)
        records.append(TraceRecord(t, 0, rng.randrange(pids), "send",
                                   page * params.PAGE_SIZE, 64))
    return {0: records}


def assert_cells_identical(cells_fn, analytic_cells=None):
    """Run the same cells with and without the solver; diff every dict."""
    with_solver = SweepRunner(analytic=True)
    solved = with_solver.run_cells(cells_fn())
    replayed = SweepRunner(analytic=False).run_cells(cells_fn())
    for index, (a, b) in enumerate(zip(solved, replayed)):
        assert a.to_dict() == b.to_dict(), "cell %d differs" % index
    if analytic_cells is not None:
        assert with_solver.metrics.analytic_cells == analytic_cells
    return with_solver


# ---------------------------------------------------------------------------
# Differential grids over the paper's axes
# ---------------------------------------------------------------------------

class TestMemoryAxisDifferential:
    PAGE = params.PAGE_SIZE
    LIMITS = [None, PAGE, 3 * PAGE, 10 * PAGE, 37 * PAGE, 200 * PAGE,
              4 * 1024 * 1024]

    def cells(self, traces, **overrides):
        base = SimConfig(cache_entries=64).replace(**overrides)
        return [SweepCell(limit, traces,
                          base.replace(memory_limit_bytes=limit), "utlb")
                for limit in self.LIMITS]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offset_indexed(self, seed):
        traces = synth_trace(seed)
        runner = assert_cells_identical(
            lambda: self.cells(traces), analytic_cells=len(self.LIMITS))
        # The finite limits share one memory axis; the unlimited cell is
        # a cache axis of one.
        assert runner.metrics.analytic_axes == 2

    def test_nohash_indexed(self, seed=3):
        traces = synth_trace(seed)
        assert_cells_identical(
            lambda: self.cells(traces, offsetting=False),
            analytic_cells=len(self.LIMITS))

    def test_single_process(self):
        traces = synth_trace(5, pids=1)
        assert_cells_identical(lambda: self.cells(traces))

    def test_empty_trace(self):
        traces = {0: []}
        assert_cells_identical(lambda: self.cells(traces))


class TestCacheAxisDifferential:
    def cells(self, traces, sizes=(64, 128, 256)):
        """The Table 8 shape: sizes x (direct, 2-way, 4-way, nohash)."""
        base = SimConfig()
        out = []
        for size in sizes:
            for assoc in (1, 2, 4):
                out.append(SweepCell(
                    (size, assoc), traces,
                    base.replace(cache_entries=size, associativity=assoc),
                    "utlb"))
            out.append(SweepCell(
                (size, "nohash"), traces,
                base.replace(cache_entries=size, offsetting=False),
                "utlb"))
        return out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_table8_grid(self, seed):
        traces = synth_trace(seed)
        runner = assert_cells_identical(
            lambda: self.cells(traces), analytic_cells=12)
        assert runner.metrics.analytic_axes == 1

    def test_python_pass_matches(self, monkeypatch, seed=4):
        """The pure-Python pass is exact for direct-mapped cells too."""
        traces = synth_trace(seed)
        monkeypatch.setattr(analytic, "_cache_pass",
                            kernels._cache_pass_python)
        assert_cells_identical(lambda: self.cells(traces))

    def test_multi_node(self):
        traces = synth_trace(6)
        traces[1] = synth_trace(7, pids=2)[0]
        assert_cells_identical(lambda: self.cells(traces))


class TestMixedBatch:
    def test_ineligible_cells_fall_through(self):
        traces = synth_trace(8)
        base = SimConfig()

        def cells():
            return [
                SweepCell("a", traces, base.replace(cache_entries=64),
                          "utlb"),
                SweepCell("b", traces, base.replace(cache_entries=128),
                          "utlb"),
                SweepCell("mru", traces,
                          base.replace(cache_entries=64, pin_policy="mru"),
                          "utlb"),
                SweepCell("intr", traces, base.replace(cache_entries=64),
                          "intr"),
                SweepCell("ref", traces,
                          base.replace(cache_entries=64,
                                       engine="reference"), "utlb"),
            ]

        runner = assert_cells_identical(cells, analytic_cells=2)
        flags = [c.analytic for c in runner.metrics.cells]
        assert flags == [True, True, False, False, False]

    def test_solved_cells_land_in_cache(self, tmp_path):
        traces = synth_trace(9)
        base = SimConfig(cache_entries=64)
        limits = [None, 16 * params.PAGE_SIZE, 64 * params.PAGE_SIZE]

        def cells():
            return [SweepCell(limit, traces,
                              base.replace(memory_limit_bytes=limit),
                              "utlb")
                    for limit in limits]

        cold = SweepRunner(analytic=True, cache_dir=str(tmp_path))
        first = cold.run_cells(cells())
        assert cold.metrics.analytic_cells == len(limits)
        # A replay-only runner answers the identical cells from cache —
        # same keys, so the stored analytic results must be the replay
        # results, bit for bit.
        warm = SweepRunner(analytic=False, cache_dir=str(tmp_path))
        second = warm.run_cells(cells())
        assert warm.metrics.cache_hits == len(limits)
        for a, b in zip(first, second):
            assert a.to_dict() == b.to_dict()

    def test_metrics_json_reports_analytic_counts(self):
        traces = synth_trace(10)
        base = SimConfig()
        runner = SweepRunner(analytic=True)
        runner.run_cells([
            SweepCell(size, traces, base.replace(cache_entries=size),
                      "utlb")
            for size in (64, 128, 256)])
        payload = runner.metrics.to_dict()
        assert payload["totals"]["analytic_axes"] == 1
        assert payload["totals"]["analytic_cells"] == 3
        assert [c["analytic"] for c in payload["cells"]] == [True] * 3


# ---------------------------------------------------------------------------
# Planner rules
# ---------------------------------------------------------------------------

class TestPlanner:
    def plan(self, cells):
        pending = list(range(len(cells)))
        configs = [cell.config for cell in cells]
        memo = {}

        def fingerprint(records):
            key = id(records)
            if key not in memo:
                memo[key] = trace_fingerprint(records)
            return memo[key]

        return plan_axes(cells, pending, configs, fingerprint)

    def test_eligibility_rules(self):
        config = SimConfig()
        assert cell_eligible(config, "utlb")
        assert not cell_eligible(config, "intr")
        assert not cell_eligible(config, "pp")
        assert not cell_eligible(config.replace(engine="reference"), "utlb")
        assert not cell_eligible(config.replace(classify=True), "utlb")
        assert not cell_eligible(
            config.replace(prefetch=4, prepin=4), "utlb")
        assert not cell_eligible(config.replace(pin_policy="mru"), "utlb")

    def test_policy_instances_are_ineligible(self):
        config = SimConfig()
        config.pin_policy = object()    # examples inject instances
        assert not cell_eligible(config, "utlb")

    def test_singleton_groups_are_solved(self):
        traces = synth_trace(11)
        cells = [
            SweepCell(0, traces, SimConfig(cache_entries=64), "utlb"),
            SweepCell(1, traces, SimConfig(cache_entries=64,
                                           memory_limit_bytes=8 * 4096),
                      "utlb"),
        ]
        axes, leftover = self.plan(cells)
        assert [(axis.kind, axis.indices) for axis in axes] == [
            ("cache", [0]), ("memory", [1])]
        assert leftover == []

    def test_different_traces_never_share_an_axis(self):
        config = SimConfig(cache_entries=64)
        cells = [
            SweepCell(0, synth_trace(12), config, "utlb"),
            SweepCell(1, synth_trace(13), config.replace(cache_entries=128),
                      "utlb"),
        ]
        axes, leftover = self.plan(cells)
        assert [axis.indices for axis in axes] == [[0], [1]]
        assert leftover == []

    def test_axis_kind_follows_the_limit(self):
        # Limited cells share a memory axis; the unlimited cell, which
        # differs from them only in the limit, joins a cache axis.
        traces = synth_trace(14)
        base = SimConfig(cache_entries=64)
        cells = [SweepCell(i, traces,
                           base.replace(memory_limit_bytes=limit), "utlb")
                 for i, limit in enumerate(
                     [None, 8 * params.PAGE_SIZE, 32 * params.PAGE_SIZE])]
        axes, leftover = self.plan(cells)
        assert [(axis.kind, axis.indices) for axis in axes] == [
            ("cache", [0]), ("memory", [1, 2])]
        assert leftover == []

    def test_no_limit_cell_never_rides_a_memory_pass(self):
        # The cache pass is vectorized, the memory pass is not: an
        # unlimited cell must always take the cache axis, whatever
        # limited cells share its geometry and traces.
        traces = synth_trace(16)
        base = SimConfig()
        cells = []
        for size in (64, 128):
            for limit in (None, 8 * params.PAGE_SIZE, None,
                          32 * params.PAGE_SIZE):
                cells.append(SweepCell(
                    len(cells), traces,
                    base.replace(cache_entries=size,
                                 memory_limit_bytes=limit), "utlb"))
        axes, leftover = self.plan(cells)
        assert leftover == []
        placed = sorted(m for axis in axes for m in axis.indices)
        assert placed == list(range(len(cells)))
        for axis in axes:
            limits = {cells[m].config.memory_limit_bytes
                      for m in axis.indices}
            if axis.kind == "memory":
                assert None not in limits
                assert None not in axis.spec["limits"]
            else:
                assert limits == {None}

    def test_limited_set_associative_cells_replay(self):
        traces = synth_trace(17)
        cells = [SweepCell(0, traces,
                           SimConfig(cache_entries=64, associativity=2,
                                     memory_limit_bytes=8 * 4096),
                           "utlb")]
        axes, leftover = self.plan(cells)
        assert axes == []
        assert leftover == [0]

    def test_leftover_preserves_pending_order(self):
        traces = synth_trace(15)
        base = SimConfig()
        cells = [
            SweepCell("r0", traces, base.replace(cache_entries=64), "pp"),
            SweepCell("a0", traces, base.replace(cache_entries=64), "utlb"),
            SweepCell("r1", traces, base.replace(cache_entries=64), "intr"),
            SweepCell("a1", traces, base.replace(cache_entries=128),
                      "utlb"),
        ]
        axes, leftover = self.plan(cells)
        assert [axis.kind for axis in axes] == ["cache"]
        assert leftover == [0, 2]


# ---------------------------------------------------------------------------
# Stack-algorithm properties (Hypothesis)
# ---------------------------------------------------------------------------

def _records(accesses):
    return [TraceRecord(t, 0, pid, "send", page * params.PAGE_SIZE, 64)
            for t, (pid, page) in enumerate(accesses)]


ACCESSES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=40)),
    min_size=1, max_size=120)


class TestStackProperties:
    @given(accesses=ACCESSES)
    def test_histograms_account_for_every_access(self, accesses):
        compiled = compile_streams(_records(accesses))
        data = _memory_pass(compiled, num_sets=16, offsetting=True,
                            lcap=8)
        for i, pid in enumerate(compiled.pid_order):
            # suffix_d[i][0] counts every reuse; firsts are the rest.
            assert (data["firsts"][i] + data["suffix_d"][i][0]
                    == data["n"][i])
            assert data["n"][i] == len(compiled.streams[pid])
        assert sum(data["n"]) == len(accesses)

    @given(accesses=ACCESSES)
    def test_misses_monotone_in_memory_limit(self, accesses):
        compiled = compile_streams(_records(accesses))
        limits = list(range(1, 10)) + [None]
        spec = {"kind": "memory", "num_sets": 16, "offsetting": True,
                "limits": limits,
                "unit_costs": DEFAULT_COST_MODEL.unit_costs()}
        nodes = solve_axis_node(compiled, spec)
        check = [node["stats"]["check_misses"] for node in nodes]
        ni = [node["stats"]["ni_misses"] for node in nodes]
        # Growing the pinned pool never adds misses (LRU inclusion); the
        # unlimited cell is the floor of both curves.
        assert check == sorted(check, reverse=True)
        assert ni == sorted(ni, reverse=True)
        assert check[-1] == min(check)
        assert ni[-1] == min(ni)

    @given(accesses=ACCESSES)
    def test_misses_monotone_in_associativity(self, accesses):
        compiled = compile_streams(_records(accesses))
        spec = {"kind": "cache",
                "geometries": [[16 * assoc, assoc, True]
                               for assoc in (1, 2, 4, 8)],
                "unit_costs": DEFAULT_COST_MODEL.unit_costs()}
        nodes = solve_axis_node(compiled, spec)
        misses = [node["cache"]["misses"] for node in nodes]
        assert misses == sorted(misses, reverse=True)

    @settings(deadline=None)
    @given(accesses=ACCESSES,
           limit=st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=12)))
    def test_singleton_memory_cell_matches_fast_engine(self, accesses,
                                                       limit):
        records = _records(accesses)
        compiled = compile_streams(records)
        config = SimConfig(
            cache_entries=16,
            memory_limit_bytes=(None if limit is None
                                else limit * params.PAGE_SIZE))
        spec = {"kind": "memory", "num_sets": 16, "offsetting": True,
                "limits": [config.memory_limit_pages],
                "unit_costs": config.cost_model.unit_costs()}
        solved = solve_axis_node(compiled, spec)[0]
        replayed = simulate_node(records, config).to_dict()
        assert solved == replayed

    @settings(deadline=None)
    @given(accesses=ACCESSES,
           assoc=st.sampled_from([1, 2, 4]),
           offsetting=st.booleans())
    def test_singleton_cache_cell_matches_fast_engine(self, accesses,
                                                      assoc, offsetting):
        records = _records(accesses)
        compiled = compile_streams(records)
        config = SimConfig(cache_entries=16 * assoc, associativity=assoc,
                           offsetting=offsetting)
        spec = {"kind": "cache",
                "geometries": [[config.cache_entries, assoc, offsetting]],
                "unit_costs": config.cost_model.unit_costs()}
        solved = solve_axis_node(compiled, spec)[0]
        replayed = simulate_node(records, config).to_dict()
        assert solved == replayed
