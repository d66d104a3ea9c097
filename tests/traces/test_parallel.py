"""Parallel trace compilation must be byte-identical to the serial path.

``compile_node_parallel`` generates per-process streams (in a worker
pool or in-process) and reproduces the timestamp merge with a stable
vectorized sort; every field of the resulting ``CompiledStreams`` must
match ``compile_in_chunks`` over the workload's own lazy ``iter_node``
merge, byte for byte.  These tests also pin the page-stream protocol
itself: the pre-record ``(timestamp, page)`` form and the record form
must describe the same trace.
"""

import pytest

from repro.errors import TraceError
from repro.traces.compile import compile_in_chunks
from repro.traces.parallel import (
    compile_node_parallel,
    generate_process_arrays,
)
from repro.traces.record import TraceRecord
from repro.traces.synth import make_workload
from repro.traces.synth.base import page_record_stream
from repro.traces.synth.mixed import MixedWorkload


def fields(compiled):
    return (compiled.pids,
            {pid: stream.tobytes()
             for pid, stream in compiled.streams.items()},
            compiled.pid_order,
            compiled.index_stream.tobytes(),
            compiled.page_stream.tobytes(),
            compiled.total_pages)


def serial(workload, node=0, seed=0, scale=0.05):
    return compile_in_chunks(
        workload.iter_node(node, seed=seed, scale=scale))


class RecordsOnly:
    """A workload shim exposing only the record-stream protocol."""

    def __init__(self, workload):
        self._workload = workload

    def iter_processes(self, node=0, seed=0, scale=1.0):
        return self._workload.iter_processes(node, seed=seed, scale=scale)

    def iter_node(self, node=0, seed=0, scale=1.0):
        return self._workload.iter_node(node, seed=seed, scale=scale)


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("name", ["barnes", "radix", "zipf-kv"])
    def test_workloads(self, name, workers):
        workload = make_workload(name)
        scale = 0.02 if name == "zipf-kv" else 0.05
        assert fields(compile_node_parallel(
            workload, node=1, seed=4, scale=scale, workers=workers)) \
            == fields(serial(workload, node=1, seed=4, scale=scale))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_workload(self, workers):
        workload = MixedWorkload(["barnes", "fft"], scale=0.05)
        assert fields(compile_node_parallel(
            workload, node=0, seed=2, scale=0.05, workers=workers)) \
            == fields(serial(workload, node=0, seed=2, scale=0.05))

    def test_record_stream_fallback(self):
        """Workloads without iter_page_streams take the record form."""
        workload = make_workload("fft")
        shim = RecordsOnly(workload)
        assert fields(compile_node_parallel(shim, seed=1, scale=0.05,
                                            workers=1)) \
            == fields(serial(workload, seed=1, scale=0.05))

    def test_no_protocol_falls_back_to_serial(self):
        workload = make_workload("barnes")

        class NodeOnly:
            def iter_node(self, node=0, seed=0, scale=1.0):
                return workload.iter_node(node, seed=seed, scale=scale)

        assert fields(compile_node_parallel(NodeOnly(), scale=0.05,
                                            workers=4)) \
            == fields(serial(workload, scale=0.05))


class TestPageStreamProtocol:
    @pytest.mark.parametrize("name", ["barnes", "zipf-kv"])
    def test_page_form_equals_record_form(self, name):
        """Wrapping the (timestamp, page) streams into records must
        reproduce iter_processes exactly — same pids, same records."""
        workload = make_workload(name)
        scale = 0.02 if name == "zipf-kv" else 0.05
        wrapped = [list(page_record_stream(1, pid, pages))
                   for pid, pages in workload.iter_page_streams(
                       1, seed=4, scale=scale)]
        direct = [list(stream) for stream in workload.iter_processes(
            1, seed=4, scale=scale)]
        assert wrapped == direct

    def test_mixed_renumbering(self):
        workload = MixedWorkload(["barnes", "fft"], scale=0.05)
        wrapped = [list(page_record_stream(0, pid, pages))
                   for pid, pages in workload.iter_page_streams(
                       0, seed=2, scale=0.05)]
        direct = [list(stream)
                  for stream in workload.iter_processes(0, seed=2,
                                                        scale=0.05)]
        assert wrapped == direct


class TestWorkerArrays:
    def test_unsorted_stream_rejected(self):
        class Unsorted:
            def iter_page_streams(self, node=0, seed=0, scale=1.0):
                return [(0, iter([(5, 10), (3, 11)]))]

        with pytest.raises(TraceError):
            generate_process_arrays(Unsorted(), 0, 0, 1.0, 0)

    def test_duplicate_pid_rejected(self):
        class Duplicated:
            def iter_page_streams(self, node=0, seed=0, scale=1.0):
                return [(7, iter([(0, 1)])), (7, iter([(1, 2)]))]

            def iter_node(self, node=0, seed=0, scale=1.0):
                return iter(())

        with pytest.raises(TraceError):
            compile_node_parallel(Duplicated(), workers=1)

    def test_empty_streams_dropped(self):
        class OneEmpty:
            def iter_page_streams(self, node=0, seed=0, scale=1.0):
                return [(3, iter(())), (4, iter([(0, 9), (2, 9)]))]

        compiled = compile_node_parallel(OneEmpty(), workers=1)
        assert compiled.pids == [4]
        assert compiled.pid_order == [4]
        assert compiled.total_pages == 2

    def test_all_empty_gives_empty_compiled(self):
        class Empty:
            def iter_page_streams(self, node=0, seed=0, scale=1.0):
                return [(0, iter(())), (1, iter(()))]

        compiled = compile_node_parallel(Empty(), workers=1)
        assert compiled.pids == []
        assert compiled.total_pages == 0

    def test_multi_page_records_expand(self):
        """The record-form worker expands record.pages() like compile."""
        from repro import params
        records = [
            TraceRecord(timestamp=0, node=0, pid=2, op="send",
                        vaddr=0x10000000, nbytes=3 * params.PAGE_SIZE),
            TraceRecord(timestamp=1, node=0, pid=2, op="send",
                        vaddr=0x10001000, nbytes=1),
        ]

        class TwoRecords:
            def iter_processes(self, node=0, seed=0, scale=1.0):
                return [iter(records)]

        pid, ts_bytes, page_bytes = generate_process_arrays(
            TwoRecords(), 0, 0, 1.0, 0)
        assert pid == 2
        assert len(page_bytes) // 8 == 4
