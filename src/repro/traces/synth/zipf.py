"""Datacenter-scale multi-tenant KV/RPC workload (zipfian popularity).

The SPLASH-2 models replay the paper's own Table 3 regime: a handful of
scientific processes with megabyte footprints.  Modern translation
designs (Victima, SPARTA — see PAPERS.md) are motivated by a different
regime: a server multiplexing *thousands of tenants* whose page
popularity is heavily skewed, with working sets far beyond any
translation cache.  :class:`ZipfKVWorkload` models one node of such a
service:

* ``server_processes`` worker processes per node handle requests.  The
  NIC's 4-bit process tag caps concurrently active processes per NIC at
  ``params.MAX_PROCESSES_PER_NIC`` (Figure 3), so the datacenter-scale
  axes are **tenants** and **lookups** — process count scales with
  cluster ``nodes``, exactly like a real fleet.
* Each tenant owns a contiguous region of ``pages_per_tenant`` pages in
  the shared SPMD data area.  A request picks its tenant by a zipfian
  draw over all tenants (``tenant_exponent`` — few tenants dominate
  traffic), then a page *within* the tenant by a second zipfian draw
  (``page_exponent`` — few keys dominate the tenant).
* Per-tenant skew knobs: tenants are spread over ``skew_variants``
  page-popularity exponents covering ``page_exponent * (1 +-
  skew_spread/2)``, and each tenant's popularity ranking is rotated to a
  tenant-specific hot page, so hot pages land in different cache sets
  across tenants (shared-cache tag pressure, not one global hot set).
* A small shared RPC/dispatch ring (``shared_pages``) is touched by all
  workers with probability ``shared_fraction`` per request — the
  cross-process contention component.

Every draw is a deterministic function of ``(seed, node, process)``,
like the SPLASH-2 generators: same inputs, byte-identical trace.  Each
server process draws its requests on its own ``random.Random``, in the
order a per-draw loop would (``random()``, ``randrange`` and
``bisect_left`` over the zipf CDFs).  The sampler
(:mod:`repro.traces.synth.zipf_sampler`) produces exactly those draws
without that loop: it takes the generator's raw 32-bit Mersenne Twister
words a block at a time, decodes every draw and request boundary in
numpy, and walks the chain of request starts with one cheap step per
request.

Generation is **streaming-only by construction**: per-process lazy
streams (:class:`ZipfPageStream`, drawn block by block) merged by
timestamp (:func:`merge_record_streams`), or handed to the parallel
compile as whole arrays.  The zipf distribution tables are O(tenants +
skew_variants * pages_per_tenant) — a function of the *footprint
knobs*, never of the trace length — and the sampler's transients are
O(block).  ``generate_node`` (the eager list form) exists for small
instances and tests; headline-scale traces should flow through
:meth:`streaming_node` into ``StreamCompiler``/``SweepRunner``, where
peak memory stays O(compiled size).
"""

from repro import params
from repro.errors import ConfigError
from repro.traces.merge import merge_record_streams
from repro.traces.synth.base import (
    DATA_BASE,
    StreamingNodeTrace,
    page_record_stream,
)

#: Knuth's multiplicative hash constant: decorrelates per-tenant hot-page
#: offsets without per-tenant RNG state.
_TENANT_MIX = 2654435761

#: Zipf CDF tables, keyed by ``(population, exponent)``.  Bounded by the
#: workload's footprint knobs (tenant count plus one table per skew
#: variant), shared across instances and never pickled.
_CDF_CACHE = {}


def _zipf_cdf(population, exponent):
    """Cumulative (unnormalized) zipf weights for ranks ``1..population``."""
    key = (population, exponent)
    cdf = _CDF_CACHE.get(key)
    if cdf is None:
        total = 0.0
        cdf = []
        for rank in range(1, population + 1):
            total += rank ** -exponent
            cdf.append(total)
        _CDF_CACHE[key] = cdf
    return cdf


class ZipfPageStream:
    """One server process's lazy ``(timestamp, page)`` stream.

    Building one draws nothing (stream lists are built just to be
    counted); iterating runs the sampler and yields the pairs chunk by
    chunk, and :meth:`arrays` returns the whole stream as two uint64
    arrays, which array consumers take instead of iterating.
    """

    __slots__ = ("workload", "rng_seed", "tenants", "lookups")

    def __init__(self, workload, rng_seed, tenants, lookups):
        self.workload = workload
        self.rng_seed = rng_seed
        self.tenants = tenants
        self.lookups = lookups

    def _blocks(self):
        # The sampler is imported on first use, like numpy: importing
        # the workload registry must stay cheap.
        from repro.traces.synth.zipf_sampler import sample_blocks
        return sample_blocks(self.workload, self.rng_seed, self.tenants,
                             self.lookups)

    def __iter__(self):
        for stamps, pages in self._blocks():
            yield from zip(stamps.tolist(), pages.tolist())

    def arrays(self):
        """``(timestamps, pages)``: uint64 arrays, one entry a lookup."""
        import numpy
        stamps = numpy.empty(self.lookups, dtype=numpy.uint64)
        pages = numpy.empty(self.lookups, dtype=numpy.uint64)
        done = 0
        for stamp_chunk, page_chunk in self._blocks():
            stamps[done:done + len(stamp_chunk)] = stamp_chunk
            pages[done:done + len(page_chunk)] = page_chunk
            done += len(stamp_chunk)
        return stamps, pages


class ZipfKVWorkload:
    """One multi-tenant KV/RPC server node as a trace generator."""

    name = "zipf-kv"
    category = "irregular"

    def __init__(self, tenants=1000, server_processes=8,
                 pages_per_tenant=64, lookups_per_process=25000,
                 tenant_exponent=1.1, page_exponent=0.9,
                 skew_spread=0.5, skew_variants=16,
                 shared_pages=64, shared_fraction=0.04):
        if tenants < 1:
            raise ConfigError("tenants must be at least 1, got %r"
                              % (tenants,))
        if not 1 <= server_processes <= params.MAX_PROCESSES_PER_NIC:
            raise ConfigError(
                "server_processes must be in 1..%d (the NIC's process-tag "
                "space), got %r"
                % (params.MAX_PROCESSES_PER_NIC, server_processes))
        if pages_per_tenant < 1:
            raise ConfigError("pages_per_tenant must be at least 1, got %r"
                              % (pages_per_tenant,))
        if lookups_per_process < 1:
            raise ConfigError(
                "lookups_per_process must be at least 1, got %r"
                % (lookups_per_process,))
        if tenant_exponent <= 0 or page_exponent <= 0:
            raise ConfigError("zipf exponents must be positive")
        if not 0.0 <= skew_spread < 2.0:
            raise ConfigError("skew_spread must be in [0, 2), got %r"
                              % (skew_spread,))
        if skew_variants < 1:
            raise ConfigError("skew_variants must be at least 1, got %r"
                              % (skew_variants,))
        if shared_pages < 0:
            raise ConfigError("shared_pages must be non-negative, got %r"
                              % (shared_pages,))
        if not 0.0 <= shared_fraction < 1.0:
            raise ConfigError("shared_fraction must be in [0, 1), got %r"
                              % (shared_fraction,))
        self.tenants = tenants
        self.server_processes = server_processes
        self.pages_per_tenant = pages_per_tenant
        self.lookups_per_process = lookups_per_process
        self.tenant_exponent = tenant_exponent
        self.page_exponent = page_exponent
        self.skew_spread = skew_spread
        self.skew_variants = skew_variants
        self.shared_pages = shared_pages
        self.shared_fraction = shared_fraction
        self._check_footprint(self.tenants)

    # -- sizing -------------------------------------------------------------------

    def scaled_sizes(self, scale):
        """Effective (tenants, lookups_per_process) at a scale factor."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        tenants = max(1, int(round(self.tenants * scale)))
        lookups = max(1, int(round(self.lookups_per_process * scale)))
        return tenants, lookups

    def footprint_pages(self, scale=1.0):
        """Distinct data pages addressable at this scale (the knob-level
        footprint; a finite trace touches a zipf-weighted subset)."""
        tenants, _ = self.scaled_sizes(scale)
        return self.shared_pages + tenants * self.pages_per_tenant

    def node_lookups(self, scale=1.0):
        """Translation lookups one node's trace induces at this scale."""
        _, lookups = self.scaled_sizes(scale)
        return self.server_processes * lookups

    def _check_footprint(self, tenants):
        total = self.shared_pages + tenants * self.pages_per_tenant
        top = DATA_BASE + total * params.PAGE_SIZE
        if top > (1 << params.VA_BITS):
            raise ConfigError(
                "%d tenants x %d pages (+%d shared) overflow the %d-bit "
                "virtual address space above %#x"
                % (tenants, self.pages_per_tenant, self.shared_pages,
                   params.VA_BITS, DATA_BASE))

    # -- skew knobs ---------------------------------------------------------------

    def tenant_page_exponent(self, tenant):
        """The page-popularity exponent of one tenant (its skew knob)."""
        if self.skew_variants == 1 or self.skew_spread == 0.0:
            return self.page_exponent
        return self._variant_exponent(
            (tenant * _TENANT_MIX) % self.skew_variants)

    def _variant_exponent(self, variant):
        fraction = variant / (self.skew_variants - 1)
        return self.page_exponent * (1.0
                                     + self.skew_spread * (fraction - 0.5))

    def _tenant_offset(self, tenant):
        """Rotation of the tenant's popularity ranking onto its pages."""
        return (tenant * _TENANT_MIX) % self.pages_per_tenant

    # -- generation ----------------------------------------------------------------

    def iter_page_streams(self, node=0, seed=0, scale=1.0):
        """Per-process lazy ``(timestamp, page)`` streams with their pids.

        The pre-record form of the streaming protocol (see
        :meth:`SyntheticApp.iter_page_streams`): each stream regenerates
        independently from its own ``(seed, node, local_index)`` RNG, so
        parallel trace compilation can fan the processes out to workers
        and skip record construction.
        """
        tenants, lookups = self.scaled_sizes(scale)
        self._check_footprint(tenants)
        streams = []
        for local_index in range(self.server_processes):
            pid = node * params.MAX_PROCESSES_PER_NIC + local_index
            streams.append((pid, ZipfPageStream(
                self, (seed * 2000003 + node) * 37 + local_index,
                tenants, lookups)))
        return streams

    def iter_processes(self, node=0, seed=0, scale=1.0):
        """Per-process lazy request streams, in server-process order.

        The pre-merge form of the streaming protocol: the
        :meth:`iter_page_streams` draws wrapped into page-sized send
        records.
        """
        return [page_record_stream(node, pid, pages)
                for pid, pages in self.iter_page_streams(
                    node, seed=seed, scale=scale)]

    def iter_node(self, node=0, seed=0, scale=1.0):
        """One node's merged trace as a lazy record stream.

        The only generation path: per-process generators merged by
        timestamp, peak memory one pending record per server process
        plus the (footprint-bounded) zipf tables.
        """
        return merge_record_streams(
            self.iter_processes(node, seed=seed, scale=scale))

    def generate_node(self, node=0, seed=0, scale=1.0):
        """The eager (list) form — small instances and tests only."""
        return list(self.iter_node(node, seed=seed, scale=scale))

    def generate_cluster(self, nodes=params.TRACE_NODES, seed=0,
                         scale=1.0):
        """Per-node traces for the whole cluster: {node: [records]}."""
        return {node: self.generate_node(node, seed=seed, scale=scale)
                for node in range(nodes)}

    def streaming_node(self, node=0, seed=0, scale=1.0):
        """One node's trace as a re-iterable :class:`StreamingNodeTrace`."""
        return StreamingNodeTrace(self, node=node, seed=seed, scale=scale)

    def streaming_cluster(self, nodes=params.TRACE_NODES, seed=0,
                          scale=1.0):
        """Per-node streaming traces: ``{node: StreamingNodeTrace}``."""
        return {node: self.streaming_node(node, seed=seed, scale=scale)
                for node in range(nodes)}

    # -- reporting ---------------------------------------------------------------------

    def table3_row(self, scale=1.0):
        """Knob-level sizing summary (the Table 3 analogue)."""
        tenants, _ = self.scaled_sizes(scale)
        return {
            "application": self.name,
            "problem_size": "%d tenants x %d pages" % (tenants,
                                                       self.pages_per_tenant),
            "footprint_pages": self.footprint_pages(scale),
            "lookups": self.node_lookups(scale),
        }
