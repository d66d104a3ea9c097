"""Framework for the synthetic SPLASH-2-like communication traces.

The paper's traces come from seven SPLASH-2 applications running on a
home-based release-consistency SVM protocol over VMMC, on four 4-way SMP
nodes: "on each SMP, there are four application processes and a protocol
process, all of which use Myrinet" (Section 6).  We cannot rerun that
testbed, so each application is modelled as a *reference-stream generator*
whose per-node communication footprint and lookup count match Table 3 and
whose access-pattern class matches the paper's description of the
application (Section 6.1).

Model choices that matter for the results:

* SVM moves one 4 KB page per request, so every record is a page-sized
  send (the paper notes its SVM applications "typically transfer one page
  of data at a time").
* All processes place their shared-data region at the same virtual base
  address (real SPMD programs do) — this is what makes the no-offsetting
  cache configuration collide across processes (Table 8 "direct-nohash").
* Each node runs four application processes plus one protocol process;
  the protocol process hammers a small set of protocol/message pages.
* Per-process generators are deterministic functions of (seed, node, pid)
  and are merged by timestamp, exactly like the paper's serialized traces.
"""

import math
import numbers
import random

from repro import params
from repro.errors import ConfigError
from repro.traces.merge import merge_record_streams
from repro.traces.record import OP_SEND, TraceRecord

#: Every process maps its communication region here (SPMD layout).
DATA_BASE = 0x10000000

#: Fraction of a node's footprint/lookups belonging to the SVM protocol
#: process; the four application processes split the rest evenly.
PROTOCOL_SHARE = 0.08

#: The protocol process reuses a small ring of message/control pages.
PROTOCOL_HOT_PAGES = 24

#: Mean microseconds between requests from one process.
MEAN_GAP_US = 40


def _pid_of(node, local_index):
    """Cluster-unique pid; at most 8 per node, well under the 4-bit tag."""
    return node * 8 + local_index


def page_record_stream(node, pid, pages):
    """Wrap a lazy ``(timestamp, page)`` stream into TraceRecords.

    The single record-construction point of the synthetic generators:
    every entry becomes one page-sized send at the page's address (SVM
    moves whole pages, so this is the only record shape any synthetic
    workload emits).
    """
    for timestamp, page in pages:
        yield TraceRecord(
            timestamp=timestamp,
            node=node,
            pid=pid,
            op=OP_SEND,
            vaddr=page << params.PAGE_SHIFT,
            nbytes=params.PAGE_SIZE)


class SyntheticApp:
    """Base class for one application's trace generator.

    Subclasses define the class attributes ``name``, ``problem_size``,
    ``footprint_pages``, ``lookups`` (the Table 3 per-node values), and
    ``category`` ('regular' or 'irregular'), plus :meth:`_pattern`, a
    generator of page indices in ``[0, footprint)`` for one application
    process.  The pattern contract: the first ``footprint`` *distinct*
    pages it produces must cover the whole range (so the process footprint
    is exact), and it must be able to produce at least ``lookups`` entries
    (it is truncated, never padded).
    """

    name = "base"
    problem_size = ""
    footprint_pages = 0
    lookups = 0
    category = "irregular"

    def _pattern(self, rng, footprint, lookups):
        raise NotImplementedError

    # -- sizing -------------------------------------------------------------------

    def scaled_sizes(self, scale):
        """(footprint, lookups) per node at a given scale factor."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        footprint = max(64, int(round(self.footprint_pages * scale)))
        lookups = max(footprint, int(round(self.lookups * scale)))
        return footprint, lookups

    def _process_sizes(self, scale):
        """Per-process (footprint, lookups) for the 4 app + 1 protocol
        processes, summing to (about) the node totals."""
        node_fp, node_lk = self.scaled_sizes(scale)
        proto_fp = max(PROTOCOL_HOT_PAGES, int(node_fp * PROTOCOL_SHARE))
        proto_lk = max(proto_fp, int(node_lk * PROTOCOL_SHARE))
        app_fp = (node_fp - proto_fp) // 4
        app_lk = (node_lk - proto_lk) // 4
        if app_fp <= 0 or app_lk <= 0:
            raise ConfigError("scale too small for %s" % (self.name,))
        sizes = [(app_fp, app_lk)] * 4 + [(proto_fp, proto_lk)]
        return sizes

    # -- generation ----------------------------------------------------------------

    def iter_page_streams(self, node=0, seed=0, scale=1.0):
        """Per-process lazy ``(timestamp, page)`` streams with their pids.

        The *pre-record* form of the streaming protocol: a list of
        ``(pid, stream)`` pairs in local-index order, each stream
        yielding ``(timestamp, absolute page number)`` — exactly the two
        values translation simulation consumes.  :meth:`iter_processes`
        wraps these same streams into :class:`TraceRecord` objects (one
        page-sized send per entry), so the two forms cannot drift;
        parallel trace compilation (:mod:`repro.traces.parallel`) drains
        this form directly and skips record construction entirely.
        """
        streams = []
        for local_index, (footprint, lookups) in enumerate(
                self._process_sizes(scale)):
            pid = _pid_of(node, local_index)
            rng = random.Random((seed * 1000003 + node) * 31 + local_index)
            if local_index < 4:
                pages = self._pattern(rng, footprint, lookups)
            else:
                pages = self._protocol_pattern(rng, footprint, lookups)
            streams.append((pid, self._timed_pages(rng, pages, lookups)))
        return streams

    def iter_processes(self, node=0, seed=0, scale=1.0):
        """The node's per-process lazy record streams, in process order.

        The *pre-merge* form of the streaming record protocol: one
        independently generatable, timestamp-sorted stream per process
        (each seeded by its own ``(seed, node, local_index)`` RNG), in
        local-index order.  :meth:`iter_node` is exactly
        ``merge_record_streams`` over this list.
        """
        return [page_record_stream(node, pid, pages)
                for pid, pages in self.iter_page_streams(
                    node, seed=seed, scale=scale)]

    def iter_node(self, node=0, seed=0, scale=1.0):
        """The serialized (merged) node trace as a *lazy* record stream.

        The streaming record protocol: per-process generators are merged
        by timestamp as they produce (``merge_record_streams``), so
        iterating holds one pending record per process — never the whole
        trace.  Each process's RNG draws happen in exactly the order the
        eager path made them (pattern and timestamp draws interleave on
        one private ``random.Random``), so ``list(iter_node(...))`` is
        byte-identical to what :meth:`generate_node` returns.
        """
        return merge_record_streams(
            self.iter_processes(node, seed=seed, scale=scale))

    def generate_node(self, node=0, seed=0, scale=1.0):
        """The serialized (merged) trace of one node, as a list."""
        return list(self.iter_node(node, seed=seed, scale=scale))

    def generate_cluster(self, nodes=params.TRACE_NODES, seed=0, scale=1.0):
        """Per-node traces for the whole cluster: {node: [records]}."""
        return {node: self.generate_node(node, seed=seed, scale=scale)
                for node in range(nodes)}

    def streaming_node(self, node=0, seed=0, scale=1.0):
        """One node's trace as a re-iterable :class:`StreamingNodeTrace`.

        The bounded-memory input for :class:`~repro.sim.runner
        .SweepRunner` cells and ``StreamCompiler``: every iteration
        regenerates the identical records without ever materializing
        them.
        """
        return StreamingNodeTrace(self, node=node, seed=seed, scale=scale)

    def streaming_cluster(self, nodes=params.TRACE_NODES, seed=0,
                          scale=1.0):
        """Per-node streaming traces: ``{node: StreamingNodeTrace}``."""
        return {node: self.streaming_node(node, seed=seed, scale=scale)
                for node in range(nodes)}

    def _timed_pages(self, rng, pages, lookups):
        """Timestamp a page-index stream into lazy ``(timestamp, page)``
        pairs (pages absolute, i.e. offset to the SPMD data region)."""
        base_page = DATA_BASE >> params.PAGE_SHIFT
        timestamp = rng.randrange(0, MEAN_GAP_US)
        for count, page in enumerate(pages):
            if count >= lookups:
                break
            yield timestamp, base_page + page
            timestamp += rng.randrange(MEAN_GAP_US // 2,
                                       MEAN_GAP_US + MEAN_GAP_US // 2)


    def _protocol_pattern(self, rng, footprint, lookups):
        """The SVM protocol process: a hot ring of message/control pages
        plus a slowly growing set of per-page protocol metadata pages."""
        hot = min(PROTOCOL_HOT_PAGES, footprint)
        cold = footprint - hot
        produced = 0
        # Startup: walk the per-page protocol metadata once (cold pages),
        # mixing in the hot message ring.
        for cold_page in range(cold):
            yield hot + cold_page
            produced += 1
            if produced >= lookups:
                return
            if cold_page % 4 == 3:
                yield produced % hot
                produced += 1
                if produced >= lookups:
                    return
        # Steady state: cycle the hot message/control ring.
        while produced < lookups:
            yield produced % hot
            produced += 1

    # -- reporting ---------------------------------------------------------------------

    def table3_row(self, scale=1.0):
        footprint, lookups = self.scaled_sizes(scale)
        return {
            "application": self.name,
            "problem_size": self.problem_size,
            "footprint_pages": footprint,
            "lookups": lookups,
        }


class StreamingNodeTrace:
    """A re-iterable, lazily generated node trace.

    The streaming record protocol's carrier: every call to ``iter()``
    asks the workload for a fresh ``iter_node`` generator, so the same
    records come out every time without the trace ever existing as a
    list.  That re-iterability is the whole contract — consumers that
    need two passes (the reference engine enumerates pids before
    replaying; fingerprinting may retry with its fallback encoding)
    simply iterate again.

    Instances are cheap, picklable (the workload object plus three
    scalars), and valid ``SweepRunner`` cell inputs.  The runner never
    iterates them to key or compile a cell: ``trace_fingerprint`` keys
    one by its source identity (workload class and state, node, seed,
    scale, generator source digest) and ``compile_streams`` compiles it
    from the workload's page streams, so peak memory stays O(compiled
    size), not O(records).

    ``node`` and ``seed`` must be integers and ``scale`` a positive
    finite real; anything else raises :class:`ConfigError` here, not
    deep inside generation.  They are stored normalized (``int`` /
    ``float``), so ``numpy.float64(0.1)`` and ``0.1`` name the same
    trace and the same identity.
    """

    __slots__ = ("app", "node", "seed", "scale")

    def __init__(self, app, node=0, seed=0, scale=1.0):
        self.app = app
        self.node = _whole("node", node)
        self.seed = _whole("seed", seed)
        if isinstance(scale, bool) or not isinstance(scale, numbers.Real) \
                or not math.isfinite(scale) or scale <= 0:
            raise ConfigError("trace scale must be a positive finite "
                              "number, got %r" % (scale,))
        self.scale = float(scale)

    def __iter__(self):
        return iter(self.app.iter_node(self.node, seed=self.seed,
                                       scale=self.scale))

    def __repr__(self):
        return ("StreamingNodeTrace(%s, node=%d, seed=%d, scale=%r)"
                % (self.app.name, self.node, self.seed, self.scale))


def _whole(name, value):
    """``value`` as an ``int``, or :class:`ConfigError` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError("trace %s must be an integer, got %r"
                          % (name, value))
    return int(value)


# -- shared pattern building blocks ------------------------------------------------


def sequential_sweep(footprint):
    """One pass over every page in address order."""
    return iter(range(footprint))


def strided_sweep(footprint, stride):
    """One pass over every page in a strided (column-major) order."""
    if stride <= 0:
        raise ConfigError("stride must be positive")
    for start in range(stride):
        for page in range(start, footprint, stride):
            yield page


def shuffled_sweep(footprint, rng, run_length=1):
    """One pass over every page in random order, optionally in short
    sequential runs (run_length > 1 models scatter with local structure).
    """
    if run_length <= 1:
        order = list(range(footprint))
        rng.shuffle(order)
        for page in order:
            yield page
        return
    starts = list(range(0, footprint, run_length))
    rng.shuffle(starts)
    for start in starts:
        for page in range(start, min(start + run_length, footprint)):
            yield page


def repeat_pattern(make_pass, lookups):
    """Chain passes produced by ``make_pass(pass_index)`` until ``lookups``
    accesses have been emitted."""
    produced = 0
    pass_index = 0
    while produced < lookups:
        for page in make_pass(pass_index):
            yield page
            produced += 1
            if produced >= lookups:
                return
        pass_index += 1


def column_stride(footprint):
    """A stride approximating the row length of a square matrix spread
    over ``footprint`` pages (used by FFT's transpose phases)."""
    return max(2, int(round(math.sqrt(footprint))))


def touch_repeat(pages, repeat):
    """Touch each page of ``pages`` ``repeat`` times consecutively.

    Models compute phases that re-read a freshly communicated page while
    it is still hot: the re-touches have near-zero reuse distance, so they
    hit in any reasonable cache — the key reason measured NI miss rates
    sit well below 1.0 even when every *pass* over the data misses.
    """
    for page in pages:
        for _ in range(repeat):
            yield page


def inject_long(pages, rng, footprint, every):
    """Interleave a uniform-random page after every ``every`` items.

    The random touches are *long-distance* re-references (protocol
    metadata, histograms, neighbour data): they miss while the footprint
    exceeds the cache and start hitting once it fits — the component that
    makes NI miss rates fall with cache size.  ``every=0`` disables.
    """
    count = 0
    for page in pages:
        yield page
        count += 1
        if every and count % every == 0:
            yield rng.randrange(footprint)
