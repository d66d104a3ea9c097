"""Parallel sweep engine with on-disk result caching and run metrics.

The paper's evaluation (Tables 4-8, Figures 7-8) is a grid of *cells*:
one ``(traces, config, mechanism)`` replay each.  Cells are mutually
independent, and so are the nodes inside one cell — each node replays its
own merged trace against a fresh NIC.  :class:`SweepRunner` exploits both
facts: every node replay becomes one work unit, fanned out over a
``multiprocessing`` pool.  ``workers=1`` degenerates to a plain serial
loop in submission order, the determinism baseline parallel runs are
diffed against.

Results travel as JSON-safe dicts (``NodeResult.to_dict``) in *all three*
paths — serial, cross-process, and cached — so a warm cache run is
byte-identical to a cold one by construction.

Before any replay is scheduled, an *axis-solver tier* intercepts every
eligible cell: utlb cells with default-path LRU settings are grouped
with the cells that replay the same traces under configs differing only
along one sweep axis (``memory_limit_bytes``, or the cache geometry) and
answered by ``repro.sim.analytic`` — one Mattson-style pass per node for
the whole group (a lone cell is a group of one) instead of one replay
per cell, byte-identical by construction (the determinism tests diff
them directly).  Everything else falls through to per-cell replay
unchanged, and solved cells still land in the result cache.

Trace *inputs* travel the cheap way: a sweep replays the same handful of
node traces under dozens of configurations, so the runner compiles each
distinct trace exactly once per batch (keyed by content fingerprint),
publishes the compiled streams to a per-batch
:class:`~repro.sim.stream_store.SharedStreamStore`, and sends workers
only ``(stream_key, config, mechanism)``.  Workers attach read-only in
the pool initializer and replay the parent's arrays in place — no
per-cell pickling, no per-worker recompilation.  Units are scheduled
largest-trace-first to keep a straggler from serializing the tail;
results are still reassembled in submission order.

Cell traces may be record *lists* or re-iterable lazy sources
(:class:`~repro.traces.synth.base.StreamingNodeTrace`): fingerprinting,
compilation, and replay all consume plain iteration, and after a pooled
batch publishes its compiled streams the parent swaps its own compile
memo for views over the shared blocks — so with streaming sources the
full record list never exists in any process and peak memory is bounded
by the compiled arrays (8 bytes/lookup), not the ~100x-larger record
objects.

The cache key is a content hash of everything that can change a cell's
outcome: the per-node trace fingerprints, every :class:`SimConfig` field
(cost-model constants included), the mechanism, and a digest of the
simulator/core source files ("code version").  Any edit to any input
yields a fresh key; stale entries are simply never read again.

:class:`SweepMetrics` records what actually happened — per-cell timings,
cache hit or miss, compile and IPC accounting, batch wall clock — as the
machine-readable report ``python -m repro --metrics-json`` dumps and the
benchmarks attach to their results.
"""

import atexit
import hashlib
import json
import os
import re
import struct
import time
from multiprocessing import get_context

from repro.errors import ConfigError
from repro.obs.tracer import JsonlTracer
from repro.sim import mechanisms as mech_registry
from repro.sim.analytic import plan_axes, solve_axis_node
from repro.sim.mechanisms import mechanism_names, resolve
from repro.sim.simulator import ClusterResult
from repro.sim.stream_store import AttachedStreams, SharedStreamStore
from repro.traces.compile import compile_streams
from repro.traces.record import OP_CODES, count_lookups

#: Registered mechanism names at import time (see
#: :mod:`repro.sim.mechanisms` — the registry is the authority; this
#: tuple survives as the convenient CLI-choices form).
MECHANISMS = mechanism_names()

#: Phase keys of the per-cell timing breakdown.
PHASES = ("compile_s", "replay_s", "report_s")

#: Cache entry layout version; bump to orphan every existing entry.
#: 2: ``trace_fingerprint`` switched from per-record ``repr`` strings to
#: packed record bytes.
#: 3: ``SimConfig.to_dict`` grew the ``mechanism`` field (the registry
#: refactor made the mechanism part of the config).
CACHE_FORMAT = 3

_CODE_VERSION = None


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

#: One trace record, packed for fingerprinting: timestamp, node, pid
#: (signed — pids are caller-chosen), op code, vaddr, nbytes.
_FINGERPRINT_RECORD = struct.Struct("<QqqBQQ")


#: Packed records buffered between digest updates while fingerprinting.
#: Small enough (a few hundred KB) to be memory noise, big enough that
#: ``sha256.update`` call overhead never shows in profiles.
_FINGERPRINT_CHUNK = 8192


def trace_fingerprint(records):
    """Content hash of one node's trace (order-sensitive, as replay is).

    Hashes the packed binary form of each record — one ``struct.pack``
    per record instead of building a ``repr()`` string, which is what
    made fingerprinting show up in sweep profiles.  The digest is fed in
    fixed-size chunks, so ``records`` may be any (re-)iterable — a list,
    or a lazy :class:`~repro.traces.synth.base.StreamingNodeTrace` —
    and peak memory stays O(chunk), never O(records); the hexdigest is
    identical either way (sha256 is stream-order defined).  Falls back
    to the repr form for exotic field values the packed layout cannot
    hold (e.g. a pid beyond 64 bits), re-iterating the input — which is
    why the streaming protocol demands re-iterability; both forms are
    stable content hashes, and ``CACHE_FORMAT`` was bumped when the
    packed form became the default, so no old key can collide with a
    new one.
    """
    digest = hashlib.sha256()
    pack = _FINGERPRINT_RECORD.pack
    try:
        chunk = []
        append = chunk.append
        for r in records:
            append(pack(r.timestamp, r.node, r.pid, OP_CODES[r.op],
                        r.vaddr, r.nbytes))
            if len(chunk) >= _FINGERPRINT_CHUNK:
                digest.update(b"".join(chunk))
                del chunk[:]
        if chunk:
            digest.update(b"".join(chunk))
    except (struct.error, OverflowError):
        digest = hashlib.sha256(b"repr-fallback:")
        for record in records:
            digest.update(repr(record.as_tuple()).encode("ascii"))
    return digest.hexdigest()


def code_version():
    """Digest of every source file whose behaviour a cached cell bakes in.

    Covers ``repro.core`` and ``repro.cachesim`` wholesale plus the replay
    entry points and the trace record/merge modules.  Editing any of them
    invalidates the whole cache (by changing every key), which is the
    safe direction to fail in.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        sim_dir = os.path.dirname(os.path.abspath(__file__))
        repro_dir = os.path.dirname(sim_dir)
        paths = []
        for package in ("core", "cachesim"):
            root = os.path.join(repro_dir, package)
            paths.extend(os.path.join(root, name)
                         for name in sorted(os.listdir(root))
                         if name.endswith(".py"))
        paths.extend(os.path.join(sim_dir, name)
                     for name in ("analytic.py", "config.py",
                                  "intr_simulator.py", "kernels.py",
                                  "mechanisms.py", "pp_simulator.py",
                                  "runner.py", "simulator.py"))
        paths.extend(os.path.join(repro_dir, "traces", name)
                     for name in ("compile.py", "merge.py", "record.py"))
        digest = hashlib.sha256()
        for path in paths:
            digest.update(os.path.basename(path).encode("ascii"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cell_key(traces, config, mechanism, fingerprints=None):
    """The cache key: a hash over every input that shapes the result.

    ``fingerprints`` optionally supplies precomputed per-node trace
    fingerprints (``{node: hexdigest}``); the runner passes the ones it
    already computed for the compile memo so each trace is hashed once
    per batch, not once per purpose.
    """
    if fingerprints is None:
        fingerprints = {node: trace_fingerprint(traces[node])
                        for node in traces}
    payload = {
        "format": CACHE_FORMAT,
        "code": code_version(),
        "mechanism": mechanism,
        "config": config.to_dict(),
        "traces": {str(node): fingerprints[node]
                   for node in sorted(traces)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def default_cache_dir():
    """``REPRO_CACHE_DIR`` or ``$XDG_CACHE_HOME/repro/sweeps``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    base = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "sweeps")


def workers_from_env(default=1):
    """Worker count from ``REPRO_WORKERS``, validated.

    A value that is not an integer, or is below 1, raises
    :class:`ConfigError` naming the offending value — a typo'd
    environment variable should fail loudly, not crash as a bare
    ``ValueError`` deep inside runner construction.
    """
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return default
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(
            "REPRO_WORKERS must be an integer, got %r" % (raw,)) from None
    if workers < 1:
        raise ConfigError(
            "REPRO_WORKERS must be at least 1, got %r" % (raw,))
    return workers


# ---------------------------------------------------------------------------
# The on-disk result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Finished cells as one JSON file per key under ``directory``."""

    def __init__(self, directory):
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: Entries that existed but failed to parse (corrupt/truncated).
        #: Distinct from a plain miss; the broken file is deleted on
        #: sight so the next run re-misses cleanly and re-stores.
        self.corrupt = 0

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def load(self, key):
        """The cached :class:`ClusterResult`, or None on a miss."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="ascii") as handle:
                payload = json.load(handle)
            result = ClusterResult.from_dict(payload["result"])
        except OSError:
            self.misses += 1
            return None
        except (ValueError, KeyError):
            self.corrupt += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def store(self, key, result, meta=None):
        """Persist a finished cell (atomic rename; concurrent-run safe)."""
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "meta": meta or {},
            "result": result.to_dict(),
        }
        tmp = self._path(key) + ".tmp.%d" % os.getpid()
        with open(tmp, "w", encoding="ascii") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self._path(key))

    def __len__(self):
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".json"))
        except OSError:
            return 0


# ---------------------------------------------------------------------------
# Structured run metrics
# ---------------------------------------------------------------------------

class CellMetrics:
    """What one cell cost: identity, cache outcome, timings, stats."""

    def __init__(self, label, mechanism, config, nodes):
        self.label = label
        self.mechanism = mechanism
        self.config = config.describe()
        self.nodes = nodes
        self.cache_hit = False
        #: Summed phase time of this cell's units.  Under ``workers>1``
        #: the units run concurrently, so this is CPU time, not elapsed
        #: wall clock — the batch-level ``elapsed_s`` is the wall clock.
        self.wall_time_s = 0.0
        self.lookups = 0
        self.stats = None               # TranslationStats snapshot (dict)
        #: Per-phase wall-time breakdown (stream compilation, replay
        #: proper, result serialization); zeros for cache hits.
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.trace_path = None          # JSONL event dump, if traced
        #: Fresh ``compile_streams`` passes this cell triggered.  A batch
        #: compiles each distinct trace once, charged to the first cell
        #: that needed it; every later cell sharing the trace records 0.
        self.compile_count = 0
        #: Bytes published to the shared-memory stream store on this
        #: cell's behalf (0 for serial runs — no IPC — and for cells
        #: whose streams an earlier cell already published).
        self.ipc_bytes = 0
        #: True when the cell was answered by the analytic axis solver
        #: (one shared pass) instead of its own replay.
        self.analytic = False
        #: Run-unique id of the analytic axis that answered this cell
        #: (None for replayed cells).  Cells sharing an ``axis_id`` were
        #: solved by one pass whose cost is attributed *equally across
        #: them* — per-cell times are that share, and summing members
        #: recovers the true solve cost.
        self.axis_id = None

    @property
    def pages_per_sec(self):
        """Replay throughput: translation lookups (pages) per CPU second
        of this cell's units (their summed phase time).

        Zero for cache hits and empty cells — it measures replay speed,
        not cache-load speed.  Analytic cells carry their equal share of
        the axis solve time (see ``axis_id``), so their throughput is
        the axis's effective per-cell rate, never a misleading zero.
        """
        if self.cache_hit or self.wall_time_s <= 0.0:
            return 0.0
        return self.lookups / self.wall_time_s

    def to_dict(self):
        return {
            "label": str(self.label),
            "mechanism": self.mechanism,
            "config": self.config,
            "nodes": self.nodes,
            "cache_hit": self.cache_hit,
            "wall_time_s": self.wall_time_s,
            "phases": dict(self.phases),
            # The compile/replay split, promoted out of ``phases`` so a
            # metrics consumer can read each cell's replay cost without
            # digging: compile time this cell was charged (its fresh
            # ``compile_streams`` passes) vs its replay time proper.
            "compile_s": self.phases["compile_s"],
            "replay_s": self.phases["replay_s"],
            "trace_path": self.trace_path,
            "lookups": self.lookups,
            "compile_count": self.compile_count,
            "ipc_bytes": self.ipc_bytes,
            "analytic": self.analytic,
            # No tier sets this: single cells are solved by the analytic
            # planner.  The key stays, always False, because report
            # readers such as perfbench/layers.py:tier_of still read it.
            "kernel": False,
            "axis_id": self.axis_id,
            "pages_per_sec": self.pages_per_sec,
            "stats": self.stats,
        }


class SweepMetrics:
    """Machine-readable record of every cell a runner executed."""

    def __init__(self, workers):
        self.workers = workers
        self.cells = []
        #: True batch wall clock: elapsed seconds inside ``run_cells``,
        #: summed over batches.  Under parallelism this is what actually
        #: passed; ``cpu_time_s`` is what the workers collectively spent.
        self.elapsed_s = 0.0
        #: Cache entries that existed but failed to parse (see
        #: :class:`ResultCache`); mirrored here so ``--metrics-json``
        #: carries it.
        self.cache_corrupt = 0
        #: Axes the analytic solver collapsed (each one pass per node
        #: answering several cells); the per-cell side is the
        #: ``analytic`` flag on :class:`CellMetrics`.
        self.analytic_axes = 0

    def record(self, cell_metrics):
        self.cells.append(cell_metrics)

    @property
    def cache_hits(self):
        return sum(1 for c in self.cells if c.cache_hit)

    @property
    def cache_misses(self):
        return sum(1 for c in self.cells if not c.cache_hit)

    @property
    def analytic_cells(self):
        return sum(1 for c in self.cells if c.analytic)

    @property
    def cpu_time_s(self):
        """Summed per-unit phase time across all cells.

        With ``workers>1`` this exceeds the elapsed wall clock (units run
        concurrently) — it is the aggregate compute spent, the old
        ``wall_time_s`` total whose name promised otherwise.
        """
        return sum(c.wall_time_s for c in self.cells)

    @property
    def compile_count(self):
        """Fresh ``compile_streams`` passes across the run — equals the
        number of distinct node traces per batch, not cells x nodes."""
        return sum(c.compile_count for c in self.cells)

    @property
    def ipc_bytes(self):
        """Bytes published to shared-memory stream stores across the run."""
        return sum(c.ipc_bytes for c in self.cells)

    @property
    def pages_per_sec(self):
        """Sweep throughput: replayed lookups per elapsed wall second.

        Uses the batch wall clock (``elapsed_s``), so with ``workers>1``
        it reports the real aggregate rate rather than the per-worker
        rate the old summed-time quotient gave.  Zero when nothing was
        replayed (fully warm runs).
        """
        replayed = sum(c.lookups for c in self.cells if not c.cache_hit)
        if replayed == 0 or self.elapsed_s <= 0.0:
            return 0.0
        return replayed / self.elapsed_s

    def to_dict(self):
        phase_totals = dict.fromkeys(PHASES, 0.0)
        for cell in self.cells:
            for phase in PHASES:
                phase_totals[phase] += cell.phases[phase]
        return {
            "workers": self.workers,
            "cells": [c.to_dict() for c in self.cells],
            "totals": {
                "cells": len(self.cells),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_corrupt": self.cache_corrupt,
                "analytic_axes": self.analytic_axes,
                "analytic_cells": self.analytic_cells,
                "cpu_time_s": self.cpu_time_s,
                "elapsed_s": self.elapsed_s,
                "phases": phase_totals,
                "lookups": sum(c.lookups for c in self.cells),
                "compile_count": self.compile_count,
                "ipc_bytes": self.ipc_bytes,
                "pages_per_sec": self.pages_per_sec,
            },
        }


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

class SweepCell:
    """One sweep cell: a label plus the replay inputs.

    ``mechanism`` may be a registered name, a
    :class:`~repro.sim.mechanisms.Mechanism`, or None to use the
    config's own ``mechanism`` field.  Either way the cell's config is
    kept in sync (``config.replace(mechanism=...)``), which runs the
    mechanism's eager validation — an ineligible combination fails here,
    not in a worker.
    """

    __slots__ = ("label", "traces", "config", "mechanism")

    def __init__(self, label, traces, config, mechanism=None):
        mech = resolve(config.mechanism if mechanism is None else mechanism)
        if config.mechanism != mech.name:
            config = config.replace(mechanism=mech.name)
        self.label = label
        self.traces = traces
        self.config = config
        self.mechanism = mech.name


def _streams_eligible(config, mechanism):
    """True when this unit's replay consumes compiled streams.

    Asks the mechanism descriptor (which mirrors the engine dispatch
    inside its simulator exactly): a unit marked eligible is shipped
    *without* its records (stream key only), so it must be one the fast
    compiled-stream path will actually take.  Unknown names — possible
    only by corrupting a cell after construction — are simply
    ineligible; dispatch fails loudly in the worker instead.
    """
    mech = mech_registry.lookup(mechanism)
    return mech is not None and mech.streams_eligible(config)


#: Worker-side registry of attached compiled streams, populated by the
#: pool initializer: ``{stream key: CompiledStreams}``.  The attachments
#: themselves are kept alive alongside (a dropped ``SharedMemory`` would
#: unmap the views); both die with the worker process.
_WORKER_STREAMS = {}
_WORKER_ATTACHMENTS = []


def _worker_detach():
    """Release stream views before interpreter teardown finalizes the
    mappings (``SharedMemory.__del__`` refuses to close a block with
    live memoryview exports)."""
    _WORKER_STREAMS.clear()
    attachments, _WORKER_ATTACHMENTS[:] = _WORKER_ATTACHMENTS[:], []
    for attached in attachments:
        attached.close()


def _worker_init(manifest):
    """Pool initializer: attach every published stream block read-only.

    ``manifest`` is ``SharedStreamStore.manifest()`` — it rides along at
    pool construction, so the blocks must be published *before* the pool
    exists (the runner recreates its pool whenever the manifest changes).
    """
    _worker_detach()
    atexit.register(_worker_detach)
    for key, name in manifest.items():
        attached = AttachedStreams(key, name)
        _WORKER_ATTACHMENTS.append(attached)
        _WORKER_STREAMS[key] = attached.compiled


def _run_unit(args, compiled=None):
    """Dispatch one tagged work unit (the pool's ``map`` target).

    ``args[0]`` is the unit kind: ``"replay"`` wraps the classic
    per-node replay (``args[1:]`` is its untagged argument tuple),
    ``"analytic"`` solves a whole axis for one node in one pass.  Both
    kinds resolve their compiled streams the same way — a direct
    ``compiled`` from the caller's memo (serial), or the worker-side
    registry via ``stream_key`` (pooled).
    """
    if args[0] == "analytic":
        return _analytic_unit(args, compiled)
    return _replay_unit(args[1:], compiled)


def _analytic_unit(args, compiled=None):
    """One axis-solver unit: every cell of one axis, for one node.

    ``args`` is ``("analytic", records, spec, stream_key)``.  Returns
    ``(phases, [node dict per axis cell])`` — the solve is charged as
    replay time, and the node dicts are already report-shaped, so the
    report phase is effectively free.
    """
    _kind, records, spec, stream_key = args
    if compiled is None:
        if records is None:
            compiled = _WORKER_STREAMS.get(stream_key)
            if compiled is None:
                raise RuntimeError(
                    "stream %s not attached in this worker (pool "
                    "initializer ran with a stale manifest?)"
                    % (stream_key,))
        else:
            compiled = compile_streams(records)
    phases = dict.fromkeys(PHASES, 0.0)
    start = time.perf_counter()
    payload = solve_axis_node(compiled, spec)
    phases["replay_s"] = time.perf_counter() - start
    return phases, payload


def _replay_unit(args, compiled=None):
    """One work unit: replay a single node's trace (runs in a worker).

    ``args`` is ``(records, config, mechanism, stream_key)``.  Exactly
    one of two transports feeds the fast engine its compiled streams:

    * serial runs pass ``compiled`` directly (the caller's per-batch
      compile memo — same process, no transport at all);
    * pooled runs ship ``records=None`` plus a ``stream_key`` into the
      worker-side registry the pool initializer filled from shared
      memory.

    Units that replay through the reference path (or ``pp``) carry their
    records and no key.  Returns ``(phases, NodeResult.to_dict())`` —
    the dict form is the single transport format for serial, parallel,
    and cached results.
    """
    records, config, mechanism, stream_key = args
    if compiled is None and stream_key is not None:
        compiled = _WORKER_STREAMS.get(stream_key)
        if compiled is None:
            raise RuntimeError(
                "stream %s not attached in this worker (pool initializer "
                "ran with a stale manifest?)" % (stream_key,))
    phases = dict.fromkeys(PHASES, 0.0)
    start = time.perf_counter()
    simulate = resolve(mechanism).simulate
    if compiled is not None:
        result = simulate(records, config, compiled=compiled)
    else:
        result = simulate(records, config)
    phases["replay_s"] = time.perf_counter() - start
    start = time.perf_counter()
    node_dict = result.to_dict()
    phases["report_s"] = time.perf_counter() - start
    return phases, node_dict


class SweepRunner:
    """Execute sweep cells — optionally in parallel — with caching.

    Parameters
    ----------
    workers:
        Worker processes.  1 (the default) runs every unit serially in
        the calling process; parallel and serial runs produce identical
        results, which the determinism tests diff directly.
    cache_dir:
        Directory for the on-disk result cache, or None to disable
        caching entirely.
    mp_context:
        ``multiprocessing`` start method ("fork", "spawn", ...); None
        uses the platform default.
    trace_dir:
        Directory to dump one JSONL event stream per traceable cell
        (``repro.obs`` events), or None (the default) for no tracing.
        Traced cells replay through the event-emitting reference engine,
        serially and uncached — the trace is the point, and a cache hit
        or out-of-order parallel replay would lose or scramble it.
    analytic:
        Enable the analytic axis-solver tier (the default).  False
        forces every cell through per-cell replay — the differential
        tests and benchmarks use this as the comparison baseline.
    """

    def __init__(self, workers=1, cache_dir=None, mp_context=None,
                 trace_dir=None, analytic=True):
        if workers < 1:
            raise ConfigError("workers must be at least 1, got %r"
                              % (workers,))
        self.workers = workers
        self.analytic = analytic
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.metrics = SweepMetrics(workers)
        self.trace_dir = trace_dir
        #: Manifest of the most recent batch's stream store — block
        #: names whose shared memory is already unlinked once the batch
        #: returns (introspection and leak tests).
        self.last_stream_manifest = {}
        self._trace_names = set()
        self._mp_context = mp_context
        self._pool = None
        self._pool_manifest = {}
        self._store = None

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        """Shut the worker pool down, unlink any stream blocks
        (idempotent — batches normally unlink their own store)."""
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_manifest = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _pool_handle(self, manifest):
        """The worker pool, rebuilt whenever the stream manifest changes.

        The manifest rides in the pool initializer (workers attach at
        startup, before any unit runs), so a batch that publishes new
        blocks needs fresh workers; manifest-less batches keep reusing
        the previous pool.
        """
        if self._pool is not None and manifest != self._pool_manifest:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._pool is None:
            context = get_context(self._mp_context)
            self._pool = context.Pool(processes=self.workers,
                                      initializer=_worker_init,
                                      initargs=(manifest,))
            self._pool_manifest = manifest
        return self._pool

    # -- tracing ------------------------------------------------------------

    def _open_cell_tracer(self, cell):
        """A fresh :class:`JsonlTracer` for one traceable cell, or None.

        Cells that already carry their own enabled tracer keep it (the
        caller owns that one); non-traceable mechanisms (``pp`` — the
        pool-of-pins model predates the event stream) are skipped.  File
        names are slugified cell labels, suffixed on collision so a
        sweep with repeated labels still gets one file per cell.
        """
        if self.trace_dir is None or cell.config.traced:
            return None
        mech = mech_registry.lookup(cell.mechanism)
        if mech is None or not mech.traceable:
            return None
        slug = re.sub(r"[^A-Za-z0-9._-]+", "-", str(cell.label)).strip("-")
        base = "%s.%s" % (slug or "cell", cell.mechanism)
        name = base + ".jsonl"
        serial = 1
        while name in self._trace_names:
            serial += 1
            name = "%s.%d.jsonl" % (base, serial)
        self._trace_names.add(name)
        os.makedirs(self.trace_dir, exist_ok=True)
        return JsonlTracer(os.path.join(self.trace_dir, name))

    # -- execution ----------------------------------------------------------

    def run(self, traces, config, mechanism=None, label=None):
        """Replay one cell; returns its :class:`ClusterResult`."""
        return self.run_cells(
            [SweepCell(label, traces, config, mechanism)])[0]

    def run_cells(self, cells):
        """Replay many cells; returns their results in submission order.

        ``cells`` holds :class:`SweepCell` objects or plain
        ``(label, traces, config, mechanism)`` tuples.  Cached cells are
        answered from disk; the remaining node replays are flattened into
        one work-unit list and executed serially (``workers=1``) or over
        the pool — either way with deterministic, submission-ordered
        results.

        Batch pipeline: fingerprint every distinct trace once (the same
        hash keys the result cache and the compile memo), compile each
        distinct fingerprint once, and — when the pool is used — publish
        the compiled streams to a shared-memory store whose blocks are
        unlinked before this method returns, on success and on worker
        failure alike.
        """
        cells = [c if isinstance(c, SweepCell) else SweepCell(*c)
                 for c in cells]
        batch_start = time.perf_counter()
        results = [None] * len(cells)
        keys = [None] * len(cells)
        configs = [cell.config for cell in cells]   # effective per cell
        owned_tracers = []
        cell_metrics = []
        pending = []
        fingerprint_memo = {}       # id(records) -> content fingerprint

        def fingerprint(records):
            # Keyed by source identity (stable: the cells keep every
            # trace source — record list or StreamingNodeTrace — alive
            # for the whole batch) so each distinct trace is hashed once
            # per batch no matter how many cells share it.
            memo_key = id(records)
            digest = fingerprint_memo.get(memo_key)
            if digest is None:
                digest = fingerprint_memo[memo_key] = \
                    trace_fingerprint(records)
            return digest

        try:
            for index, cell in enumerate(cells):
                metrics = CellMetrics(cell.label, cell.mechanism,
                                      cell.config, len(cell.traces))
                cell_metrics.append(metrics)
                tracer = self._open_cell_tracer(cell)
                if tracer is not None:
                    owned_tracers.append(tracer)
                    configs[index] = cell.config.replace(tracer=tracer)
                    metrics.trace_path = tracer.path
                # A traced cell must actually replay: a cache hit would
                # return the numbers but lose the event stream.
                if self.cache is not None and not configs[index].traced:
                    start = time.perf_counter()
                    keys[index] = cell_key(
                        cell.traces, cell.config, cell.mechanism,
                        fingerprints={node: fingerprint(cell.traces[node])
                                      for node in cell.traces})
                    cached = self.cache.load(keys[index])
                    if cached is not None:
                        results[index] = cached
                        metrics.cache_hit = True
                        metrics.wall_time_s = time.perf_counter() - start
                        metrics.lookups = cached.stats.lookups
                        metrics.stats = cached.stats.snapshot()
                        continue
                pending.append(index)

            # The axis-solver tier: every analytic-eligible cell is lifted
            # out of ``pending`` into its axis and answered by one pass
            # per node.
            axes = []
            if self.analytic:
                axes, pending = plan_axes(cells, pending, configs,
                                          fingerprint)

            units = []                  # (kind, cell index | axis pos, node)
            unit_args = []              # tagged; stream key always last
            for apos, axis in enumerate(axes):
                cell = cells[axis.indices[0]]
                for node in sorted(cell.traces):
                    records = cell.traces[node]
                    units.append(("analytic", apos, node))
                    unit_args.append(("analytic", records, axis.spec,
                                      fingerprint(records)))
            for index in pending:
                cell = cells[index]
                eligible = _streams_eligible(configs[index], cell.mechanism)
                for node in sorted(cell.traces):
                    records = cell.traces[node]
                    units.append(("replay", index, node))
                    unit_args.append((
                        "replay", records, configs[index], cell.mechanism,
                        fingerprint(records) if eligible else None))

            # Compile each distinct trace exactly once per batch; charge
            # the pass (time and count) to the first cell that needed it
            # (an axis charges its first member cell).
            compiled_by_key = {}
            key_owner = {}              # stream key -> triggering cell
            for (kind, target, _node), args in zip(units, unit_args):
                stream_key = args[-1]
                if stream_key is None or stream_key in compiled_by_key:
                    continue
                start = time.perf_counter()
                compiled_by_key[stream_key] = compile_streams(args[1])
                elapsed = time.perf_counter() - start
                index = target if kind == "replay" else \
                    axes[target].indices[0]
                key_owner[stream_key] = index
                metrics = cell_metrics[index]
                metrics.phases["compile_s"] += elapsed
                metrics.wall_time_s += elapsed
                metrics.compile_count += 1

            if not unit_args:
                outcomes = []
            elif self.workers == 1 or len(unit_args) == 1:
                outcomes = [_run_unit(args, compiled_by_key.get(args[-1]))
                            for args in unit_args]
            else:
                outcomes = self._run_pooled(unit_args, compiled_by_key,
                                            key_owner, cell_metrics)

            node_dicts = {index: [] for index in pending}
            axis_payloads = [[] for _ in axes]
            for (kind, target, _node), (phases, payload) in zip(units,
                                                                outcomes):
                if kind == "replay":
                    node_dicts[target].append(payload)
                    targets = (target,)
                else:
                    # One solve answers every cell of the axis: charge
                    # each member its equal share (same trace, same
                    # lookups per cell), so no solved cell reports a
                    # zero wall time and summing members recovers the
                    # true axis cost.
                    axis_payloads[target].append(payload)
                    targets = axes[target].indices
                share = 1.0 / len(targets)
                total = sum(phases.values())
                for index in targets:
                    metrics = cell_metrics[index]
                    for phase in PHASES:
                        metrics.phases[phase] += phases[phase] * share
                    metrics.wall_time_s += total * share

            def finish(index, result):
                results[index] = result
                metrics = cell_metrics[index]
                metrics.lookups = result.stats.lookups
                metrics.stats = result.stats.snapshot()
                if self.cache is not None and keys[index] is not None:
                    self.cache.store(keys[index], result, meta={
                        "label": str(cells[index].label),
                        "mechanism": cells[index].mechanism,
                        "config": cells[index].config.describe(),
                        "wall_time_s": metrics.wall_time_s,
                    })

            for apos, axis in enumerate(axes):
                # One payload per node (node-sorted, like replay units);
                # each holds one node dict per axis cell.
                per_node = axis_payloads[apos]
                axis_id = self.metrics.analytic_axes + apos
                for cpos, index in enumerate(axis.indices):
                    cell_metrics[index].analytic = True
                    cell_metrics[index].axis_id = axis_id
                    finish(index, ClusterResult.from_dict(
                        {"nodes": [payload[cpos]
                                   for payload in per_node]}))
            self.metrics.analytic_axes += len(axes)

            for index in pending:
                finish(index, ClusterResult.from_dict(
                    {"nodes": node_dicts[index]}))
        finally:
            if self._store is not None:
                self._store.close()
                self._store = None
            for tracer in owned_tracers:
                tracer.close()

        for metrics in cell_metrics:
            self.metrics.record(metrics)
        if self.cache is not None:
            self.metrics.cache_corrupt = self.cache.corrupt
        self.metrics.elapsed_s += time.perf_counter() - batch_start
        return results

    def _run_pooled(self, unit_args, compiled_by_key, key_owner,
                    cell_metrics):
        """Fan the batch's units over the pool; submission-order results.

        Stream-eligible units (replay and analytic alike) travel with
        ``records=None`` plus their stream key against the shared store
        — the records never cross the process boundary.  Traced units
        hold live tracers
        (unpicklable, and their events must land in node order), so they
        run in this process in submission order; everything else is
        dispatched largest-trace-first with ``chunksize=1`` so one huge
        node trace starts immediately instead of serializing the tail
        behind a straggler.
        """
        outcomes = [None] * len(unit_args)
        pooled = [i for i, args in enumerate(unit_args)
                  if args[0] == "analytic" or not args[2].traced]
        if pooled:
            manifest = {}
            if compiled_by_key:
                self._store = SharedStreamStore()
                for stream_key in list(compiled_by_key):
                    published = self._store.publish(
                        stream_key, compiled_by_key[stream_key])
                    cell_metrics[key_owner[stream_key]].ipc_bytes += \
                        published
                    # Swap the memo entry for a zero-copy view over the
                    # published block and drop the parent's own arrays:
                    # the batch then holds ONE copy of each compiled
                    # trace (in shared memory), not heap + block.
                    compiled_by_key[stream_key] = \
                        self._store.view(stream_key)
                manifest = self._store.manifest()
            self.last_stream_manifest = dict(manifest)

            def unit_pages(i):
                stream_key = unit_args[i][-1]
                if stream_key is not None:
                    return compiled_by_key[stream_key].total_pages
                return count_lookups(unit_args[i][1])

            order = sorted(pooled, key=lambda i: (-unit_pages(i), i))
            shipped = []
            for i in order:
                args = unit_args[i]
                if args[-1] is not None:    # streams ride shared memory
                    args = args[:1] + (None,) + args[2:]
                shipped.append(args)
            pool = self._pool_handle(manifest)
            for i, outcome in zip(order,
                                  pool.map(_run_unit, shipped, 1)):
                outcomes[i] = outcome
        for i, args in enumerate(unit_args):
            if outcomes[i] is None:
                outcomes[i] = _run_unit(args,
                                        compiled_by_key.get(args[-1]))
        return outcomes


# ---------------------------------------------------------------------------
# The process-wide default (what legacy call sites fall back to)
# ---------------------------------------------------------------------------

_DEFAULT_RUNNER = None


def default_runner():
    """A shared runner for call sites that pass none.

    Serial and cache-less unless ``REPRO_WORKERS`` asks for parallelism,
    so existing code keeps its exact behaviour by default.
    """
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = SweepRunner(workers=workers_from_env())
    return _DEFAULT_RUNNER
