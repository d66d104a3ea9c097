"""Single-cell solves must be byte-identical to fast and reference replay.

The analytic planner puts every eligible utlb and unlimited intr cell on
an axis — a lone cell is an axis of one — and answers it from one pass
over the node's compiled streams, built on the machinery of
:mod:`repro.sim.kernels`.  Either way ``NodeResult.to_dict()`` must
match the record-at-a-time reference engine exactly, float bits
included.  The grids below sweep every registered workload (the seven
SPLASH-2 models plus zipf-kv) across associativities and offsetting,
one cell per ``SweepRunner`` batch, and mixed utlb + intr batches that
share one cache pass per geometry; the property tests drive the
previous-occurrence cache pass with adversarial random traces.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import params
from repro.errors import CapacityError
from repro.obs.tracer import CollectingTracer
from repro.sim import analytic, kernels, mechanisms
from repro.sim.analytic import cell_eligible
from repro.sim.config import SimConfig
from repro.sim.intr_simulator import simulate_node_intr
from repro.sim.runner import SweepCell, SweepRunner
from repro.sim.simulator import ClusterResult
from repro.traces.compile import compile_streams
from repro.traces.record import OP_SEND, TraceRecord
from repro.traces.synth import WORKLOADS, make_workload


def result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_solve_agrees(records, solved=True, **config_kwargs):
    """Default runner == fast replay == reference replay, one cell of
    the config's mechanism.

    ``solved`` is whether the planner must answer the cell analytically
    (False: it must replay, and still agree).
    """
    config = SimConfig(**config_kwargs)
    runner = SweepRunner()
    batch = result_json(runner.run({0: records}, config))
    assert runner.metrics.analytic_cells == int(solved)
    simulate = mechanisms.resolve(config.mechanism).simulate
    replays = [result_json(ClusterResult([simulate(
                   records, config.replace(engine=engine))]))
               for engine in ("fast", "reference")]
    assert batch == replays[0] == replays[1]


def random_trace(seed, num_pids, num_pages, length):
    rng = random.Random(seed)
    return [TraceRecord(timestamp=index, node=0,
                        pid=rng.randrange(num_pids), op=OP_SEND,
                        vaddr=0x10000000 + rng.randrange(num_pages)
                        * params.PAGE_SIZE,
                        nbytes=rng.choice((1, 2, 3)) * params.PAGE_SIZE)
            for index in range(length)]


def workload_records(name):
    scale = 0.02 if name == "zipf-kv" else 0.05
    return make_workload(name).generate_node(0, seed=3, scale=scale)


class TestDifferentialGrid:
    """All registered workloads x associativity x offsetting."""

    @pytest.mark.parametrize("offsetting", [False, True])
    @pytest.mark.parametrize("associativity", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_solve_fast_reference_identical(self, name, associativity,
                                            offsetting):
        assert_solve_agrees(workload_records(name),
                            cache_entries=64,
                            associativity=associativity,
                            offsetting=offsetting)

    def test_empty_trace(self):
        assert_solve_agrees([], cache_entries=64)

    def test_capacity_error_matches_fast(self):
        records = [TraceRecord(timestamp=i, node=0, pid=i, op=OP_SEND,
                               vaddr=0x10000000, nbytes=params.PAGE_SIZE)
                   for i in range(params.MAX_PROCESSES_PER_NIC + 1)]
        for analytic in (True, False):
            with pytest.raises(CapacityError):
                SweepRunner(analytic=analytic).run({0: records},
                                                   SimConfig())


class TestIntrOnTheCacheAxis:
    """Unlimited intr cells share their utlb twins' cache pass."""

    SIZES = (16, 64, 256)

    @pytest.mark.parametrize("offsetting", [False, True])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_mixed_batch_identical(self, monkeypatch, name, offsetting):
        records = workload_records(name)
        passes = []

        def counting_pass(compiled, num_sets, offsetting, amax):
            passes.append((num_sets, offsetting, amax))
            return kernels.cache_pass(compiled, num_sets, offsetting, amax)

        monkeypatch.setattr(analytic, "_cache_pass", counting_pass)
        cells = [SweepCell((mechanism, size), {0: records},
                           SimConfig(cache_entries=size,
                                     offsetting=offsetting), mechanism)
                 for size in self.SIZES for mechanism in ("utlb", "intr")]
        runner = SweepRunner()
        results = runner.run_cells(cells)
        # One axis for the trace, one pass per geometry for both
        # mechanisms.
        assert runner.metrics.analytic_cells == len(cells)
        assert runner.metrics.analytic_axes == 1
        assert sorted(passes) == [(size, offsetting, 1)
                                  for size in self.SIZES]
        for cell, result in zip(cells, results):
            simulate = mechanisms.resolve(cell.mechanism).simulate
            replays = [result_json(ClusterResult([simulate(
                           records, cell.config.replace(engine=engine))]))
                       for engine in ("fast", "reference")]
            assert result_json(result) == replays[0] == replays[1], \
                cell.label

    @pytest.mark.parametrize("kwargs", [
        dict(memory_limit_bytes=48 * params.PAGE_SIZE),
        dict(engine="reference"),
        dict(tracer=CollectingTracer()),
    ])
    def test_ineligible_intr_cells_replay(self, kwargs):
        assert_solve_agrees(workload_records("radix"), solved=False,
                            mechanism="intr", cache_entries=64, **kwargs)

    def test_unlimited_intr_cell_is_solved(self):
        assert_solve_agrees(workload_records("radix"), mechanism="intr",
                            cache_entries=64)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_pids=st.integers(min_value=1, max_value=6),
           num_pages=st.integers(min_value=1, max_value=120),
           length=st.integers(min_value=1, max_value=300),
           num_sets=st.sampled_from([1, 4, 16, 64]),
           offsetting=st.booleans())
    def test_occupancy_agrees_across_passes(self, seed, num_pids,
                                            num_pages, length, num_sets,
                                            offsetting):
        """Per-pid final occupancy: the numpy pass, the Python pass at
        every bound up to 4, and the per-set key counts all agree."""
        compiled = compile_streams(
            random_trace(seed, num_pids, num_pages, length))
        direct = kernels.cache_pass(compiled, num_sets, offsetting, amax=1)
        for amax in (1, 2, 3, 4):
            _hist, setkey_hist, occupancy = kernels._cache_pass_python(
                compiled, num_sets, offsetting, amax)
            assert occupancy[1] == direct[2][1]
            for assoc in range(amax + 1):
                assert sum(occupancy[assoc]) == sum(
                    min(keys, assoc) * count
                    for keys, count in enumerate(setkey_hist))


class TestEligibility:
    """Which cells the solver answers, and that the rest replay."""

    def test_default_config_is_eligible(self):
        assert cell_eligible(SimConfig(), "utlb")
        assert cell_eligible(
            SimConfig(memory_limit_bytes=64 * params.PAGE_SIZE), "utlb")

    @pytest.mark.parametrize("kwargs", [
        dict(classify=True),
        dict(prefetch=4),
        dict(prepin=2),
        dict(pin_policy="mru"),
    ])
    def test_ineligible_configs(self, kwargs):
        assert not cell_eligible(SimConfig(**kwargs), "utlb")

    def test_mechanism_gates_engine_and_tracing(self):
        utlb = mechanisms.lookup("utlb")
        assert utlb.analytic_eligible(SimConfig())
        assert not utlb.analytic_eligible(SimConfig(engine="reference"))
        traced = SimConfig().replace(tracer=CollectingTracer())
        assert not utlb.analytic_eligible(traced)

    def test_other_mechanisms_not_eligible(self):
        config = SimConfig()
        limited = config.replace(memory_limit_bytes=48 * params.PAGE_SIZE)
        intr = mechanisms.lookup("intr")
        assert intr.analytic_eligible(config.replace(mechanism="intr"))
        assert not intr.analytic_eligible(limited.replace(mechanism="intr"))
        for name in mechanisms.mechanism_names():
            if name not in ("utlb", "intr"):
                mech = mechanisms.lookup(name)
                assert not mech.analytic_eligible(config), name

    @pytest.mark.parametrize("kwargs", [
        dict(classify=True),
        dict(prefetch=4),
        dict(prepin=2),
        dict(pin_policy="mru", memory_limit_bytes=48 * params.PAGE_SIZE),
        dict(associativity=2, memory_limit_bytes=48 * params.PAGE_SIZE),
    ])
    def test_replayed_cells_still_identical(self, kwargs):
        assert_solve_agrees(workload_records("radix"), solved=False,
                            cache_entries=64, **kwargs)

    def test_memory_limited_cell_is_solved(self):
        assert_solve_agrees(workload_records("radix"), cache_entries=64,
                            memory_limit_bytes=48 * params.PAGE_SIZE)

    def test_intr_simulator_agrees(self):
        records = workload_records("volrend")
        outs = [result_json(simulate_node_intr(records,
                                               SimConfig(engine=engine)))
                for engine in ("fast", "reference")]
        assert outs[0] == outs[1]


class TestCachePassProperty:
    """Previous-occurrence analysis vs the reference simulation."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_pids=st.integers(min_value=1, max_value=6),
           num_pages=st.integers(min_value=1, max_value=120),
           length=st.integers(min_value=0, max_value=300),
           entries=st.sampled_from([16, 64, 256]),
           associativity=st.sampled_from([1, 2, 4]),
           offsetting=st.booleans(),
           limit=st.one_of(st.none(),
                           st.integers(min_value=1, max_value=40)))
    def test_solve_equals_reference(self, seed, num_pids, num_pages,
                                    length, entries, associativity,
                                    offsetting, limit):
        assert_solve_agrees(
            random_trace(seed, num_pids, num_pages, length),
            solved=limit is None or associativity == 1,
            cache_entries=entries, associativity=associativity,
            offsetting=offsetting,
            memory_limit_bytes=(None if limit is None
                                else limit * params.PAGE_SIZE))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_pids=st.integers(min_value=1, max_value=6),
           num_pages=st.integers(min_value=1, max_value=120),
           length=st.integers(min_value=1, max_value=300),
           num_sets=st.sampled_from([16, 64, 256]),
           offsetting=st.booleans())
    def test_numpy_pass_equals_python_pass(self, seed, num_pids,
                                           num_pages, length, num_sets,
                                           offsetting):
        """The direct-mapped numpy pass against the pure-Python stack
        machinery, on the same compiled trace."""
        compiled = compile_streams(
            random_trace(seed, num_pids, num_pages, length))
        fast = kernels.cache_pass(compiled, num_sets, offsetting, amax=1)
        slow = kernels._cache_pass_python(compiled, num_sets, offsetting,
                                          amax=1)
        assert fast == slow
