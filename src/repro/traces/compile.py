"""Trace compilation: flat page streams for the fast replay engine.

The trace-driven analysis charges one translation lookup per virtual page
crossed (footnote 1), so replay only ever consumes ``(pid, vpage)`` pairs
in trace order.  :func:`compile_streams` performs that flattening once,
ahead of replay: each process's page numbers land in a compact
``array('Q')`` and the merged trace's pid interleaving is preserved both
as a run-length segment list and as a pair of parallel flat arrays (pid
index + page number, one entry per lookup).  The simulator's inner loop
then iterates plain integers instead of calling ``TraceRecord.pages()``
per record — the shape the paper's Section 6.2 analysis implies
(per-mechanism cost is a linear function of event counts over the page
stream).

Compilation is a single pass over the records, which also yields the pid
set — callers no longer need a separate ``split_by_pid`` pass just to
enumerate processes.

For cross-process distribution, :meth:`CompiledStreams.to_buffers` /
:meth:`CompiledStreams.from_buffers` split a compiled trace into a small
JSON-safe metadata header plus a flat list of raw byte buffers — the
shape ``multiprocessing.shared_memory`` wants.  ``from_buffers`` wraps
the buffers with zero-copy ``memoryview`` casts, so a worker attached to
a shared block replays the parent's arrays in place instead of unpickling
a copy of the trace.

Compilation is *incremental* at heart: :class:`StreamCompiler` consumes
record chunks (or whole lazy generators) and appends straight into the
growing arrays, so a trace generated through the streaming record
protocol (``SyntheticApp.iter_node`` / ``StreamingNodeTrace``) compiles
with peak memory O(chunk + compiled size) — the per-record Python
objects are transient and the full record list never exists.
:func:`compile_streams` is the one-shot spelling of the same pass; given
a ``StreamingNodeTrace`` it skips records altogether and compiles the
workload's page streams (see its docstring).

By default ingestion runs through a numpy *compile kernel*: each
staged batch of records collapses to three int64 columns in one pass,
page expansion becomes vectorized index math (``vaddr >> PAGE_SHIFT``
plus a repeat/cumsum ladder for multi-page records), and the flat
buffers grow by ``frombytes`` of whole ndarrays instead of per-record
appends.  The kernel is **byte-identical** to the per-record loop at
every chunking — batches with values the vectorized path cannot model
exactly (``nbytes < 1``, 64-bit wraparound in ``vaddr + nbytes - 1``,
fields beyond int64) fall back to the loop *before* touching any
buffer, so exotic records compile exactly as before.  ``kernel=False``
forces the loop everywhere (the differential baseline).  numpy is
imported on first use, which keeps it out of interpreter start-up.
"""

import sys
from array import array
from itertools import islice

from repro import params
from repro.errors import TraceError

#: Version tag of the ``to_buffers`` metadata layout.
#: 2: ``segments`` left the header — it is derived (the run-length
#: encoding of ``index_stream``), and serializing one JSON list per
#: pid run made the header O(records) for fine-interleaved traces.
BUFFER_FORMAT = 2

#: Default record-chunk size for :func:`compile_in_chunks`: the staging
#: buffer a chunked caller holds between ``StreamCompiler.add`` calls.
#: Big enough to amortize per-call overhead, small enough (a few MB of
#: records) that chunk staging never shows up in peak RSS next to the
#: compiled arrays themselves.
DEFAULT_CHUNK_RECORDS = 65536


class CompiledStreams:
    """One node's trace, flattened to per-process page streams.

    Attributes
    ----------
    pids:
        Sorted list of process ids appearing in the trace.
    streams:
        ``{pid: array('Q')}`` — every virtual page the process touches,
        in trace order, one entry per translation lookup.
    pid_order:
        Pids in first-appearance order; position is the dense index used
        by ``index_stream``.
    index_stream / page_stream:
        Parallel flat arrays over the whole merged trace: lookup ``i`` is
        process ``pid_order[index_stream[i]]`` touching page
        ``page_stream[i]``.  This is the replay hot loop's input — pid
        interleaving in real traces is fine-grained (often one page per
        record), so per-lookup indexing beats per-segment dispatch.
    total_pages:
        Total lookups across all streams (the replay work, in pages).

    ``segments`` — the ``[(pid, start, stop), ...]`` run-length view of
    the merged trace's pid interleaving — is *derived on demand*: it is
    exactly the run-length encoding of ``index_stream``, and storing it
    (or shipping it in the transport header) cost O(records) for
    fine-interleaved traces where nearly every record switches pid
    (the datacenter workloads do; that list dwarfed the arrays it
    described).  Nothing in replay consumes it — the hot loop reads the
    flat arrays — so the tuples exist only while a caller (tests,
    debugging) iterates the property.
    """

    __slots__ = ("pids", "streams", "pid_order", "index_stream",
                 "page_stream", "total_pages")

    def __init__(self, pids, streams, pid_order, index_stream,
                 page_stream, total_pages):
        self.pids = pids
        self.streams = streams
        self.pid_order = pid_order
        self.index_stream = index_stream
        self.page_stream = page_stream
        self.total_pages = total_pages

    @property
    def segments(self):
        """The pid interleaving as ``[(pid, start, stop), ...]`` runs.

        Replaying ``streams[pid][start:stop]`` for each segment in
        order visits every lookup exactly as record-at-a-time replay
        does; runs of consecutive same-pid records merge into one
        segment (a record's pages share its pid, so record-level and
        lookup-level run-length encodings coincide).  Computed fresh
        from ``index_stream`` on each access — O(total_pages) time,
        nothing retained.
        """
        segments = []
        pid_order = self.pid_order
        counts = [0] * len(pid_order)
        last = -1
        run = 0
        for dense in self.index_stream:
            if dense == last:
                run += 1
                continue
            if run:
                start = counts[last]
                counts[last] = start + run
                segments.append((pid_order[last], start, start + run))
            last = dense
            run = 1
        if run:
            start = counts[last]
            segments.append((pid_order[last], start, start + run))
        return segments

    def __repr__(self):
        return ("CompiledStreams(pids=%r, pages=%d)"
                % (self.pids, self.total_pages))

    def numpy_views(self):
        """Zero-copy numpy views ``(index_stream, page_stream)``.

        Wraps the interleaved flat arrays as ``uint16`` / ``uint64``
        ndarrays without copying — works both on owned ``array`` objects
        and on the ``memoryview`` casts a shared-memory attachment holds.
        """
        import numpy
        return (numpy.frombuffer(self.index_stream, dtype=numpy.uint16),
                numpy.frombuffer(self.page_stream, dtype=numpy.uint64))

    def to_buffers(self):
        """Split into ``(meta, buffers)`` for shared-memory transport.

        ``meta`` is a small JSON-safe dict (pids, segment list, byte
        order, and one ``[typecode, nbytes]`` descriptor per buffer);
        ``buffers`` is the matching list of raw little-endian byte views
        over the arrays, in a fixed order: ``index_stream``,
        ``page_stream``, then one per-pid stream per ``pid_order`` entry.
        The views alias this object's arrays — nothing is copied here;
        the copy (if any) is the caller writing them into a block.
        """
        arrays = [("H", self.index_stream), ("Q", self.page_stream)]
        arrays.extend(("Q", self.streams[pid]) for pid in self.pid_order)
        meta = {
            "format": BUFFER_FORMAT,
            "byteorder": sys.byteorder,
            "pids": list(self.pids),
            "pid_order": list(self.pid_order),
            "total_pages": self.total_pages,
            "buffers": [[code, _raw_view(data).nbytes]
                        for code, data in arrays],
        }
        return meta, [_raw_view(data) for _, data in arrays]

    @classmethod
    def from_buffers(cls, meta, buffers):
        """Rebuild from :meth:`to_buffers` output without copying.

        ``buffers`` may be any bytes-like objects (typically memoryview
        slices of one shared-memory block); each is wrapped with a
        ``memoryview.cast`` to its declared typecode, so the arrays of
        the result are views over the caller's buffers.  Raises
        :class:`TraceError` on a layout-version or byte-order mismatch —
        shared memory never crosses machines, so a mismatch means a bug,
        not an exotic host.
        """
        if meta.get("format") != BUFFER_FORMAT:
            raise TraceError("unsupported compiled-stream buffer format %r"
                             % (meta.get("format"),))
        if meta["byteorder"] != sys.byteorder:
            raise TraceError("compiled-stream buffers are %s-endian, host "
                             "is %s-endian" % (meta["byteorder"],
                                               sys.byteorder))
        if len(buffers) != len(meta["buffers"]):
            raise TraceError("expected %d stream buffers, got %d"
                             % (len(meta["buffers"]), len(buffers)))
        views = []
        for (code, nbytes), data in zip(meta["buffers"], buffers):
            view = memoryview(data).cast("B")
            if view.nbytes != nbytes:
                raise TraceError("stream buffer is %d bytes, header says %d"
                                 % (view.nbytes, nbytes))
            views.append(view.cast(code))
        pid_order = list(meta["pid_order"])
        index_stream, page_stream = views[0], views[1]
        streams = dict(zip(pid_order, views[2:]))
        return cls(list(meta["pids"]), streams, pid_order, index_stream,
                   page_stream, meta["total_pages"])


def _raw_view(data):
    """A flat unsigned-byte view of any bytes-like object (zero-copy)."""
    return memoryview(data).cast("B")


class StreamCompiler:
    """Incremental trace compilation: feed record chunks, finish once.

    The streaming pipeline's sink: :meth:`add` consumes any iterable of
    records (a chunk, or a whole lazy generator) and appends directly
    into the growing ``array('Q')`` buffers; :meth:`finish` seals the
    compiler and returns a :class:`CompiledStreams` **byte-identical**
    to what one-shot :func:`compile_streams` produces over the same
    records — chunk boundaries leave no trace in the output (the flat
    arrays only ever append, and the derived ``segments`` view cannot
    see where an ``add`` ended).  Peak memory is therefore O(caller's
    chunk + compiled size), never O(records); :func:`compile_streams`
    itself is just one ``add`` of the whole iterable.

    ``kernel`` selects the ingestion path: True (the default) uses the
    vectorized numpy kernel, False forces the per-record loop.  Either
    path produces byte-identical output; batches the kernel cannot model
    exactly fall back to the loop record-by-record.
    """

    __slots__ = ("_streams", "_pid_order", "_pid_chunk", "_index_stream",
                 "_page_stream", "_finished", "_kernel")

    def __init__(self, kernel=True):
        self._streams = {}
        self._pid_order = []
        self._pid_chunk = {}    # pid -> its dense index as one 'H' item
        self._index_stream = array("H")
        self._page_stream = array("Q")
        self._finished = False
        self._kernel = bool(kernel)

    def add(self, records):
        """Compile one chunk (any iterable of records) into the buffers."""
        if self._finished:
            raise TraceError("StreamCompiler already finished")
        if not self._kernel:
            return self._add_loop(records)
        source = iter(records)
        while True:
            batch = list(islice(source, DEFAULT_CHUNK_RECORDS))
            if not batch:
                return
            if not self._add_batch_kernel(batch):
                self._add_loop(batch)

    def _add_batch_kernel(self, batch):
        """Vectorized ingestion of one staged batch; False = punt.

        Computes everything *before* mutating any buffer, so returning
        False (a value the vectorized math cannot model exactly — see
        the class docstring) leaves the compiler untouched and the
        per-record loop reproduces the batch byte-identically.
        """
        import numpy
        count = len(batch)
        try:
            pids = numpy.fromiter((r.pid for r in batch),
                                  dtype=numpy.int64, count=count)
            vaddr = numpy.fromiter((r.vaddr for r in batch),
                                   dtype=numpy.int64, count=count)
            nbytes = numpy.fromiter((r.nbytes for r in batch),
                                    dtype=numpy.int64, count=count)
        except (OverflowError, ValueError, TypeError):
            return False
        vaddr = vaddr.astype(numpy.uint64)
        if int(nbytes.min()) < 1:
            return False            # pages() yields an empty/exotic range
        shift = numpy.uint64(params.PAGE_SHIFT)
        one = numpy.uint64(1)
        end = vaddr + nbytes.astype(numpy.uint64) - one
        if bool((end < vaddr).any()):
            return False            # 2^64 wraparound; python ints don't wrap
        firsts = vaddr >> shift
        counts = (end >> shift) - firsts + one

        # Dense-index mapping in first-appearance order; new pids
        # register exactly as the loop would (the 2-byte encoding raises
        # the same OverflowError past 65535 processes).
        uniq, first_pos, inverse = numpy.unique(
            pids, return_index=True, return_inverse=True)
        byteorder = sys.byteorder
        dense_of = numpy.empty(len(uniq), dtype=numpy.uint16)
        for u in numpy.argsort(first_pos):
            pid = int(uniq[u])
            chunk = self._pid_chunk.get(pid)
            if chunk is None:
                dense = len(self._pid_order)
                self._pid_chunk[pid] = dense.to_bytes(2, byteorder)
                self._pid_order.append(pid)
                self._streams[pid] = array("Q")
            else:
                dense = int.from_bytes(chunk, byteorder)
            dense_of[u] = dense
        rec_dense = dense_of[inverse.reshape(-1)]

        if int(counts.max()) == 1:
            pages = firsts
            page_dense = rec_dense
        else:
            lens = counts.astype(numpy.intp)
            total = int(lens.sum())
            starts = numpy.repeat(firsts, lens)
            offsets = numpy.cumsum(lens) - lens     # exclusive prefix
            steps = (numpy.arange(total, dtype=numpy.uint64)
                     - numpy.repeat(offsets.astype(numpy.uint64), lens))
            pages = starts + steps
            page_dense = numpy.repeat(rec_dense, lens)
        self._page_stream.frombytes(pages.tobytes())
        self._index_stream.frombytes(page_dense.tobytes())
        for dense in numpy.unique(page_dense):
            pid = self._pid_order[int(dense)]
            self._streams[pid].frombytes(
                pages[page_dense == dense].tobytes())
        return True

    def _add_loop(self, records):
        """The per-record reference path (and the kernel's fallback)."""
        streams = self._streams
        pid_order = self._pid_order
        pid_chunk = self._pid_chunk
        index_stream = self._index_stream
        page_stream = self._page_stream
        byteorder = sys.byteorder
        for record in records:
            pid = record.pid
            stream = streams.get(pid)
            if stream is None:
                stream = streams[pid] = array("Q")
                pid_chunk[pid] = len(pid_order).to_bytes(2, byteorder)
                pid_order.append(pid)
            pages = record.pages()
            stream.extend(pages)
            page_stream.extend(pages)
            index_stream.frombytes(pid_chunk[pid] * len(pages))

    def finish(self):
        """Seal the compiler; returns the :class:`CompiledStreams`."""
        if self._finished:
            raise TraceError("StreamCompiler already finished")
        self._finished = True
        return CompiledStreams(sorted(self._streams), self._streams,
                               self._pid_order, self._index_stream,
                               self._page_stream,
                               len(self._page_stream))


def compile_streams(records, kernel=True):
    """Compile a (timestamp-sorted, merged) trace into page streams.

    Single pass: builds the per-pid streams, the segment list, the
    interleaved flat arrays, and the pid set together.  Works on any
    iterable of records — a list, or a lazy generator, in which case
    the record objects are transient and peak memory is bounded by the
    compiled arrays.  ``kernel`` is the :class:`StreamCompiler`
    ingestion knob (False = the per-record loop).

    A :class:`~repro.traces.synth.base.StreamingNodeTrace` is never
    iterated: with the kernel on, it compiles from its workload's
    per-process page streams through the in-process generation and
    vectorized merge of
    :func:`~repro.traces.parallel.compile_node_parallel` (``workers=1``),
    byte-identical to compiling its records, but no record object is
    ever built.
    """
    if kernel:
        from repro.traces.synth.base import StreamingNodeTrace
        if isinstance(records, StreamingNodeTrace):
            from repro.traces.parallel import compile_node_parallel
            return compile_node_parallel(records.app, records.node,
                                         records.seed, records.scale,
                                         workers=1)
    compiler = StreamCompiler(kernel=kernel)
    compiler.add(records)
    return compiler.finish()


def compile_in_chunks(records, chunk_records=DEFAULT_CHUNK_RECORDS,
                      kernel=True):
    """Compile via fixed-size record chunks (the explicit chunk knob).

    Equivalent to :func:`compile_streams` for any ``chunk_records >= 1``
    — the differential tests diff them byte-for-byte, including
    ``chunk_records=1`` and chunks larger than the trace.  Callers that
    pull records from an external source (a trace file reader, an IPC
    pipe) use this to bound their staging buffer explicitly.
    """
    if chunk_records < 1:
        raise TraceError("chunk_records must be at least 1, got %r"
                         % (chunk_records,))
    compiler = StreamCompiler(kernel=kernel)
    chunk = []
    append = chunk.append
    for record in records:
        append(record)
        if len(chunk) >= chunk_records:
            compiler.add(chunk)
            del chunk[:]
    if chunk:
        compiler.add(chunk)
    return compiler.finish()
