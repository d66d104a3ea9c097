"""The trace-compilation pass feeding the fast replay engine."""

import json
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import params
from repro.errors import TraceError
from repro.traces.compile import (
    BUFFER_FORMAT,
    CompiledStreams,
    StreamCompiler,
    compile_in_chunks,
    compile_streams,
)
from repro.traces.record import OP_SEND, TraceRecord
from repro.traces.synth import WORKLOADS, MixedWorkload, make_workload
from repro.traces.synth.base import StreamingNodeTrace


def rec(ts, pid, page, npages=1):
    return TraceRecord(timestamp=ts, node=0, pid=pid, op=OP_SEND,
                       vaddr=page * params.PAGE_SIZE,
                       nbytes=npages * params.PAGE_SIZE)


class TestCompileStreams:
    def test_empty_trace(self):
        compiled = compile_streams([])
        assert compiled.pids == []
        assert compiled.streams == {}
        assert compiled.segments == []
        assert compiled.pid_order == []
        assert compiled.total_pages == 0

    def test_pids_sorted_regardless_of_appearance(self):
        compiled = compile_streams([rec(0, 7, 1), rec(1, 2, 2), rec(2, 5, 3)])
        assert compiled.pids == [2, 5, 7]
        assert compiled.pid_order == [7, 2, 5]      # first-appearance order

    def test_streams_hold_pages_in_trace_order(self):
        records = [rec(0, 1, 10), rec(1, 2, 20), rec(2, 1, 11, npages=2)]
        compiled = compile_streams(records)
        assert compiled.streams[1] == array("Q", [10, 11, 12])
        assert compiled.streams[2] == array("Q", [20])
        assert compiled.total_pages == 4

    def test_adjacent_same_pid_records_merge_into_one_segment(self):
        records = [rec(0, 1, 10), rec(1, 1, 11), rec(2, 2, 20), rec(3, 1, 12)]
        compiled = compile_streams(records)
        assert compiled.segments == [(1, 0, 2), (2, 0, 1), (1, 2, 3)]

    def test_segments_replay_in_record_order(self):
        records = [rec(i, i % 3, 100 + i, npages=1 + i % 2)
                   for i in range(20)]
        compiled = compile_streams(records)
        replayed = []
        for pid, start, stop in compiled.segments:
            for vpage in compiled.streams[pid][start:stop]:
                replayed.append((pid, vpage))
        expected = [(r.pid, vpage) for r in records for vpage in r.pages()]
        assert replayed == expected

    def test_interleaved_arrays_match_record_order(self):
        records = [rec(i, (i * 7) % 4, 50 + i, npages=1 + i % 3)
                   for i in range(30)]
        compiled = compile_streams(records)
        assert len(compiled.index_stream) == len(compiled.page_stream)
        assert len(compiled.page_stream) == compiled.total_pages
        replayed = [(compiled.pid_order[i], vpage)
                    for i, vpage in zip(compiled.index_stream,
                                        compiled.page_stream)]
        expected = [(r.pid, vpage) for r in records for vpage in r.pages()]
        assert replayed == expected

    def test_interleaved_arrays_agree_with_segments(self):
        records = [rec(i, i % 2, 9 + i) for i in range(12)]
        compiled = compile_streams(records)
        via_segments = []
        for pid, start, stop in compiled.segments:
            via_segments.extend(
                (pid, v) for v in compiled.streams[pid][start:stop])
        via_arrays = [(compiled.pid_order[i], v)
                      for i, v in zip(compiled.index_stream,
                                      compiled.page_stream)]
        assert via_segments == via_arrays

    def test_accepts_any_iterable(self):
        compiled = compile_streams(iter([rec(0, 3, 8)]))
        assert isinstance(compiled, CompiledStreams)
        assert compiled.pids == [3]
        assert list(compiled.streams[3]) == [8]

    def test_repr_mentions_shape(self):
        compiled = compile_streams([rec(0, 1, 2), rec(1, 1, 3)])
        text = repr(compiled)
        assert "pids=[1]" in text and "pages=2" in text


class TestBufferRoundTrip:
    """``to_buffers``/``from_buffers``: the shared-memory wire format."""

    def compiled(self):
        records = [rec(i, (i * 7) % 4, 50 + i, npages=1 + i % 3)
                   for i in range(30)]
        return compile_streams(records)

    def test_round_trip_is_byte_identical(self):
        original = self.compiled()
        meta, buffers = original.to_buffers()
        rebuilt = CompiledStreams.from_buffers(
            meta, [bytes(view) for view in buffers])
        assert list(rebuilt.pids) == original.pids
        assert list(rebuilt.pid_order) == original.pid_order
        assert [tuple(s) for s in rebuilt.segments] == original.segments
        assert rebuilt.total_pages == original.total_pages
        assert bytes(rebuilt.index_stream) == \
            original.index_stream.tobytes()
        assert bytes(rebuilt.page_stream) == original.page_stream.tobytes()
        for pid in original.streams:
            assert bytes(rebuilt.streams[pid]) == \
                original.streams[pid].tobytes()

    def test_rebuilt_streams_replay_identically(self):
        original = self.compiled()
        meta, buffers = original.to_buffers()
        rebuilt = CompiledStreams.from_buffers(meta, buffers)
        replayed = [(rebuilt.pid_order[i], v)
                    for i, v in zip(rebuilt.index_stream,
                                    rebuilt.page_stream)]
        expected = [(original.pid_order[i], v)
                    for i, v in zip(original.index_stream,
                                    original.page_stream)]
        assert replayed == expected

    def test_to_buffers_does_not_copy(self):
        original = self.compiled()
        _meta, buffers = original.to_buffers()
        # The views alias the arrays: same memory, flat byte shape.
        assert buffers[1].obj is original.page_stream
        assert buffers[1].nbytes == original.page_stream.itemsize * \
            len(original.page_stream)

    def test_meta_survives_json(self):
        meta, buffers = self.compiled().to_buffers()
        rebuilt = CompiledStreams.from_buffers(
            json.loads(json.dumps(meta)), buffers)
        assert rebuilt.total_pages == meta["total_pages"]

    def test_buffer_order_is_index_page_then_pid_order(self):
        original = self.compiled()
        meta, buffers = original.to_buffers()
        codes = [code for code, _nbytes in meta["buffers"]]
        assert codes == ["H", "Q"] + ["Q"] * len(original.pid_order)
        assert len(buffers) == 2 + len(original.pid_order)

    def test_empty_trace_round_trips(self):
        meta, buffers = compile_streams([]).to_buffers()
        rebuilt = CompiledStreams.from_buffers(meta, buffers)
        assert rebuilt.total_pages == 0
        assert list(rebuilt.pids) == []
        assert len(rebuilt.page_stream) == 0

    def test_rejects_unknown_format(self):
        meta, buffers = self.compiled().to_buffers()
        meta["format"] = BUFFER_FORMAT + 1
        with pytest.raises(TraceError, match="buffer format"):
            CompiledStreams.from_buffers(meta, buffers)

    def test_rejects_foreign_byteorder(self):
        meta, buffers = self.compiled().to_buffers()
        meta["byteorder"] = "big" if sys.byteorder == "little" else "little"
        with pytest.raises(TraceError, match="endian"):
            CompiledStreams.from_buffers(meta, buffers)

    def test_rejects_buffer_count_mismatch(self):
        meta, buffers = self.compiled().to_buffers()
        with pytest.raises(TraceError, match="stream buffers"):
            CompiledStreams.from_buffers(meta, buffers[:-1])

    def test_rejects_buffer_size_mismatch(self):
        meta, buffers = self.compiled().to_buffers()
        truncated = [bytes(view) for view in buffers]
        truncated[1] = truncated[1][:-8]
        with pytest.raises(TraceError, match="bytes"):
            CompiledStreams.from_buffers(meta, truncated)


def assert_byte_identical(got, want):
    """Every observable surface of two compiled traces, byte for byte."""
    assert got.pids == want.pids
    assert got.pid_order == want.pid_order
    assert got.total_pages == want.total_pages
    assert got.index_stream.tobytes() == want.index_stream.tobytes()
    assert got.page_stream.tobytes() == want.page_stream.tobytes()
    assert set(got.streams) == set(want.streams)
    for pid in want.streams:
        assert got.streams[pid].tobytes() == want.streams[pid].tobytes()
    assert got.segments == want.segments


class TestStreamCompiler:
    """Incremental compilation must be invisible in the output."""

    def records(self, n=57):
        return [rec(i, (i * 7) % 4, 50 + i, npages=1 + i % 3)
                 for i in range(n)]

    @pytest.mark.parametrize("chunk", [1, 2, 7, 57, 200])
    def test_chunked_add_equals_one_shot(self, chunk):
        records = self.records()
        compiler = StreamCompiler()
        for start in range(0, len(records), chunk):
            compiler.add(records[start:start + chunk])
        assert_byte_identical(compiler.finish(), compile_streams(records))

    def test_empty_adds_are_noops(self):
        records = self.records()
        compiler = StreamCompiler()
        compiler.add([])
        compiler.add(records)
        compiler.add([])
        assert_byte_identical(compiler.finish(), compile_streams(records))

    def test_add_accepts_lazy_generators(self):
        records = self.records()
        compiler = StreamCompiler()
        compiler.add(iter(records))
        assert_byte_identical(compiler.finish(), compile_streams(records))

    def test_add_after_finish_rejected(self):
        compiler = StreamCompiler()
        compiler.finish()
        with pytest.raises(TraceError, match="finished"):
            compiler.add([rec(0, 1, 2)])

    def test_double_finish_rejected(self):
        compiler = StreamCompiler()
        compiler.finish()
        with pytest.raises(TraceError, match="finished"):
            compiler.finish()

    @pytest.mark.parametrize("chunk", [1, 7, 57, 1000])
    def test_compile_in_chunks_equals_one_shot(self, chunk):
        records = self.records()
        assert_byte_identical(compile_in_chunks(iter(records), chunk),
                              compile_streams(records))

    def test_compile_in_chunks_empty_trace(self):
        compiled = compile_in_chunks(iter([]), 8)
        assert compiled.total_pages == 0
        assert compiled.pids == []

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_nonpositive_chunk_rejected(self, chunk):
        with pytest.raises(TraceError, match="chunk_records"):
            compile_in_chunks([], chunk)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestChunkedCompileDifferential:
    """Chunked == one-shot over every synthetic workload's real traces
    (the bounded-memory pipeline's byte-identity guarantee)."""

    def trace(self, name):
        return make_workload(name).generate_node(0, seed=1, scale=0.02)

    @pytest.mark.parametrize("chunk", [1, 13])
    def test_small_chunks(self, name, chunk):
        records = self.trace(name)
        assert_byte_identical(compile_in_chunks(iter(records), chunk),
                              compile_streams(records))

    def test_chunk_larger_than_trace(self, name):
        records = self.trace(name)
        assert_byte_identical(
            compile_in_chunks(iter(records), len(records) + 100),
            compile_streams(records))

    def test_streaming_source_compiles_identically(self, name):
        workload = make_workload(name)
        source = workload.streaming_node(0, seed=1, scale=0.02)
        eager = compile_streams(workload.generate_node(0, seed=1,
                                                       scale=0.02))
        assert_byte_identical(compile_in_chunks(source, 64), eager)

    def test_streaming_source_compiles_from_page_streams(self, name,
                                                         monkeypatch):
        source = make_workload(name).streaming_node(1, seed=3, scale=0.02)
        records = list(source)

        def no_records(trace):
            raise AssertionError("StreamingNodeTrace iterated")

        monkeypatch.setattr(StreamingNodeTrace, "__iter__", no_records)
        assert_byte_identical(compile_streams(source),
                              compile_streams(records))


class TestStreamingSourceCompile:
    def test_mixed_workload(self):
        source = MixedWorkload(["barnes", "fft"],
                               scale=0.05).streaming_node(0, seed=2)
        assert_byte_identical(compile_streams(source),
                              compile_streams(list(source)))

    def test_loop_knob_still_compiles_records(self):
        source = make_workload("radix").streaming_node(0, seed=1,
                                                       scale=0.02)
        assert_byte_identical(compile_streams(source, kernel=False),
                              compile_streams(source))


class TestCompileKernel:
    """The numpy batch-ingestion kernel vs the per-record loop."""

    def records(self, n=120):
        return [rec(i, (i * 5) % 6, 40 + (i * 11) % 90, npages=1 + i % 4)
                for i in range(n)]

    @pytest.mark.parametrize("chunk", [1, 7, 64, 10**6])
    def test_kernel_equals_loop_at_every_chunking(self, chunk):
        records = self.records()
        assert_byte_identical(
            compile_in_chunks(iter(records), chunk, kernel=True),
            compile_in_chunks(iter(records), chunk, kernel=False))

    def test_kernel_knob_defaults_to_on(self):
        records = self.records()
        assert_byte_identical(compile_streams(records),
                              compile_streams(records, kernel=False))

    def test_default_never_takes_the_loop(self, monkeypatch):
        def loop(compiler, records):
            raise AssertionError("per-record loop used")
        monkeypatch.setattr(StreamCompiler, "_add_loop", loop)
        compile_streams(self.records())
        with pytest.raises(AssertionError):
            compile_streams(self.records(), kernel=False)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_kernel_on_workload_traces(self, name):
        records = make_workload(name).generate_node(0, seed=1, scale=0.02)
        assert_byte_identical(compile_streams(records, kernel=True),
                              compile_streams(records, kernel=False))


class TestCompileKernelProperty:
    """Chunked numpy compile parity under adversarial record shapes."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.lists(
               st.tuples(st.integers(min_value=0, max_value=50),   # ts gap
                         st.integers(min_value=0, max_value=9),    # pid
                         st.integers(min_value=0, max_value=400),  # page
                         st.integers(min_value=1, max_value=5)),   # npages
               max_size=120),
           chunk=st.sampled_from([1, 3, 17, 1000]))
    def test_chunked_kernel_parity(self, data, chunk):
        ts = 0
        records = []
        for gap, pid, page, npages in data:
            ts += gap
            records.append(rec(ts, pid, page, npages=npages))
        assert_byte_identical(
            compile_in_chunks(iter(records), chunk, kernel=True),
            compile_streams(records, kernel=False))
