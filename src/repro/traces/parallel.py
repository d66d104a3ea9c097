"""Parallel trace generation: per-process streams, one vectorized merge.

A node's trace is *defined* as the timestamp merge of per-process
streams that are each an independent function of ``(seed, node,
local_index)`` — the :meth:`iter_processes` protocol exposes exactly
that factorization — so each stream can be generated on its own (in a
worker process, or in-process) as flat arrays, and only the merge needs
the whole node.  Within one process every draw feeds the next; the
``zipf-kv`` sampler still decodes a stream in numpy blocks (it replays
the process's Mersenne Twister words, see
:mod:`repro.traces.synth.zipf`), and hands its arrays over whole.

:func:`compile_node_parallel` runs that pipeline end to end: each
stream becomes ``(pid, timestamps, pages)`` as ``uint64`` arrays (one
entry per translation lookup, multi-page records pre-expanded;
:func:`generate_process_arrays`); the merge is reproduced
vectorized — the ordering contract sorts records by ``(timestamp, pid,
stream index, arrival order)``, and since every pid lives in exactly
one stream, a *stable* argsort over ``(timestamp, pid-rank)`` of the
stream-ordered concatenation serializes identically — and assembles a
:class:`~repro.traces.compile.CompiledStreams` **byte-identical** to
``compile_streams(workload.iter_node(...))``: per-pid streams are the
generated page arrays verbatim (a merge never reorders within one pid),
``pid_order`` falls out of each pid's first merged position, and the
interleaved flat arrays out of the sort permutation.

Generation prefers the ``iter_page_streams`` protocol — the pre-record
form that yields ``(timestamp, page)`` pairs directly, or offers the
stream's arrays outright — and never constructs (or re-parses) a
record object; workloads exposing only ``iter_processes`` take the
record form with ``record.pages()`` expansion.  With ``workers > 1``
the streams are generated in a process pool and shipped home as raw
bytes; with ``workers <= 1`` (notably on a single-CPU host, where a
pool is pure overhead) they are generated in-process and their arrays
go to the merge as they are.  That in-process form is also how
:func:`~repro.traces.compile.compile_streams` compiles every
``StreamingNodeTrace``, so the sweep runner and this module share one
merge.  Without either protocol, the function degrades to the streaming
serial compile
(:func:`~repro.traces.compile.compile_in_chunks` over ``iter_node``) —
same output, one process.
"""

from array import array
from multiprocessing import get_context
import os

from repro.errors import TraceError
from repro.traces.compile import CompiledStreams, compile_in_chunks

#: Timestamps at or above 2^48 no longer fit beside a 16-bit pid rank in
#: one uint64 sort key; such traces take the (slower, equivalent)
#: two-key lexsort.
_TS_KEY_LIMIT = 1 << 48


def generate_process_arrays(workload, node, seed, scale, index):
    """Generate one process's stream as ``(pid, timestamps, pages)``.

    The generation half of the pipeline: stream ``index`` of the
    workload as two flat ``uint64`` numpy arrays with one entry per
    translation lookup, timestamp order verified on the arrays (like the
    lazy merge would).  Prefers the pre-record ``iter_page_streams``
    form, and takes a stream's own ``arrays()`` when it offers them
    (``zipf-kv``'s sampler does) instead of draining it pair by pair;
    falls back to ``iter_processes`` records with ``record.pages()``
    expansion.  ``pid`` is None for an empty stream.
    """
    import numpy
    if hasattr(workload, "iter_page_streams"):
        pid, stream = workload.iter_page_streams(
            node, seed=seed, scale=scale)[index]
        arrays = getattr(stream, "arrays", None)
        if arrays is not None:
            ts, pages = arrays()
        else:
            ts = array("Q")
            pages = array("Q")
            append_ts = ts.append
            append_page = pages.append
            for t, page in stream:
                append_ts(t)
                append_page(page)
        if not len(pages):
            pid = None
    else:
        stream = workload.iter_processes(node, seed=seed,
                                         scale=scale)[index]
        pid = None
        ts = array("Q")
        pages = array("Q")
        append_ts = ts.append
        append_page = pages.append
        for record in stream:
            t = record.timestamp
            pid = record.pid
            for page in record.pages():
                append_ts(t)
                append_page(page)
    ts = numpy.frombuffer(ts, dtype=numpy.uint64)
    pages = numpy.frombuffer(pages, dtype=numpy.uint64)
    backwards = numpy.flatnonzero(ts[1:] < ts[:-1])
    if len(backwards):
        raise TraceError("stream %d not timestamp-sorted at t=%r"
                         % (index, int(ts[backwards[0] + 1])))
    return pid, ts, pages


def _worker(args):
    pid, ts, pages = generate_process_arrays(*args)
    return pid, ts.tobytes(), pages.tobytes()


def default_generation_workers():
    """Worker-count default: one per CPU, capped at the NIC's 16-tag
    process ceiling (a node never has more streams than that)."""
    return max(1, min(16, os.cpu_count() or 1))


def compile_node_parallel(workload, node=0, seed=0, scale=1.0,
                          workers=None, mp_context=None):
    """Generate and compile one node's trace with parallel generation.

    Returns a :class:`CompiledStreams` byte-identical to
    ``compile_streams(list(workload.iter_node(node, seed, scale)))``.
    ``workers`` caps the generation pool (default
    :func:`default_generation_workers`).  See the module docstring for
    the merge reproduction argument.
    """
    import numpy
    if workers is None:
        workers = default_generation_workers()
    if hasattr(workload, "iter_page_streams"):
        count = len(workload.iter_page_streams(node, seed=seed,
                                               scale=scale))
    elif hasattr(workload, "iter_processes"):
        count = len(workload.iter_processes(node, seed=seed, scale=scale))
    else:
        count = 0
    if count == 0:
        return compile_in_chunks(
            workload.iter_node(node, seed=seed, scale=scale))
    jobs = [(workload, node, seed, scale, index) for index in range(count)]
    if workers > 1 and count > 1:
        context = get_context(mp_context)
        with context.Pool(processes=min(workers, count)) as pool:
            produced = [(pid, numpy.frombuffer(ts, dtype=numpy.uint64),
                         numpy.frombuffer(pages, dtype=numpy.uint64))
                        for pid, ts, pages in pool.map(_worker, jobs)]
    else:
        produced = [generate_process_arrays(*job) for job in jobs]

    # Streams in stream order, empty ones dropped (a pid with no records
    # never registers in serial compilation either).
    pids_in_order = []
    ts_parts = []
    page_parts = []
    for pid, ts, pages in produced:
        if pid is None:
            continue
        pids_in_order.append(pid)
        ts_parts.append(ts)
        page_parts.append(pages)
    del produced
    if not pids_in_order:
        return CompiledStreams([], {}, [], array("H"), array("Q"), 0)
    if len(set(pids_in_order)) != len(pids_in_order):
        raise TraceError(
            "iter_processes streams share a pid; the parallel merge "
            "requires one stream per process")

    # Transients are released as soon as the next stage no longer needs
    # them: at headline scale every uint64 array here is 8 bytes per
    # lookup, and the scale benchmark gates peak RSS.
    lens = numpy.array([len(part) for part in ts_parts],
                       dtype=numpy.intp)
    ts_all = numpy.concatenate(ts_parts)
    del ts_parts
    pids_sorted = sorted(pids_in_order)
    rank_of = {pid: rank for rank, pid in enumerate(pids_sorted)}
    ranks_all = numpy.repeat(
        numpy.array([rank_of[pid] for pid in pids_in_order],
                    dtype=numpy.uint16), lens)

    # The merge: a stable sort by (timestamp, pid) over the
    # stream-ordered concatenation.  Packing both into one uint64 key
    # (in place — the timestamps are never needed again) sorts ~2x
    # faster than lexsort; huge timestamps take the lexsort fallback.
    if int(ts_all.max()) < _TS_KEY_LIMIT:
        ts_all <<= numpy.uint64(16)
        ts_all |= ranks_all
        order = numpy.argsort(ts_all, kind="stable")
    else:
        order = numpy.lexsort((ranks_all, ts_all))
    del ts_all

    ranks_merged = ranks_all[order]
    del ranks_all
    uniq, first_pos = numpy.unique(ranks_merged, return_index=True)
    appearance = numpy.argsort(first_pos)
    pid_order = [pids_sorted[int(uniq[i])] for i in appearance]
    dense_of_rank = numpy.empty(len(pids_sorted), dtype=numpy.uint16)
    for dense, i in enumerate(appearance):
        dense_of_rank[uniq[i]] = dense

    index_stream = array("H")
    index_stream.frombytes(dense_of_rank[ranks_merged].view(numpy.uint8))
    del ranks_merged
    pages_all = numpy.concatenate(page_parts)
    page_stream = array("Q")
    page_stream.frombytes(pages_all[order].view(numpy.uint8))
    del pages_all, order
    streams = {}
    for pid, part in zip(pids_in_order, page_parts):
        stream = streams[pid] = array("Q")
        stream.frombytes(part.view(numpy.uint8))
    return CompiledStreams(pids_sorted, streams, pid_order, index_stream,
                           page_stream, len(page_stream))
