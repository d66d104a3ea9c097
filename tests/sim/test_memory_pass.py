"""The memory-axis pass against its per-access oracle.

``repro.sim.analytic._memory_pass`` answers the memory axis with numpy
set analysis plus one stack loop per process.  The pure-Python loop it
replaced lives on in :mod:`tests.sim.memory_pass_oracle`; both must
return the identical dict — every histogram, every count — on any
trace, set count and limit cap, and the new pass must not need more
memory than the oracle to do it.
"""

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.sim.analytic import _memory_pass
from repro.traces.compile import compile_streams
from repro.traces.record import TraceRecord
from repro.traces.synth import make_workload
from tests.sim.memory_pass_oracle import memory_pass


def multi_pid_trace(seed, num_pids, hot, space, length):
    """Interleaved pids over a hot region plus a cold tail; records span
    one to three pages, so streams hold runs of consecutive pages."""
    rng = random.Random(seed)
    records = []
    for t in range(length):
        page = (rng.randrange(hot) if rng.random() < 0.5
                else rng.randrange(space))
        records.append(TraceRecord(
            t, 0, rng.randrange(num_pids), "send",
            page * params.PAGE_SIZE,
            rng.choice((64, params.PAGE_SIZE + 1, 2 * params.PAGE_SIZE + 1))))
    return records


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_pids=st.integers(min_value=1, max_value=6),
           hot=st.integers(min_value=1, max_value=40),
           space=st.integers(min_value=1, max_value=200),
           length=st.integers(min_value=1, max_value=400),
           num_sets=st.integers(min_value=1, max_value=64),
           offsetting=st.booleans(),
           lcap_share=st.floats(min_value=0.0, max_value=1.5))
    def test_identical_to_oracle(self, seed, num_pids, hot, space, length,
                                 num_sets, offsetting, lcap_share):
        compiled = compile_streams(
            multi_pid_trace(seed, num_pids, hot, space, length))
        footprint = max(len(set(stream))
                        for stream in compiled.streams.values())
        # From 1 to half again the largest per-pid footprint.
        lcap = 1 + int(lcap_share * footprint)
        assert (_memory_pass(compiled, num_sets, offsetting, lcap)
                == memory_pass(compiled, num_sets, offsetting, lcap))

    def test_identical_on_zipf_kv(self):
        compiled = compile_streams(
            make_workload("zipf-kv").generate_node(0, seed=5, scale=0.05))
        for num_sets, offsetting, lcap in ((8192, True, 100),
                                           (256, False, 7),
                                           (1024, True, 5000)):
            assert (_memory_pass(compiled, num_sets, offsetting, lcap)
                    == memory_pass(compiled, num_sets, offsetting, lcap))


def _traced_peak(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_no_higher_than_oracle():
    """A ~100k-lookup zipf-kv trace under the zipf sweep's geometry."""
    compiled = compile_streams(
        make_workload("zipf-kv").streaming_node(0, seed=1, scale=0.5))
    assert 90_000 <= compiled.total_pages <= 110_000
    args = (compiled, 8192, True, 1000)
    assert _traced_peak(_memory_pass, *args) <= _traced_peak(memory_pass,
                                                             *args)
