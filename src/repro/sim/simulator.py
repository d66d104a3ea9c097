"""The UTLB trace-driven simulator (Section 6).

"The simulator mimics the behavior of a network interface translation
cache, the host-side UTLB driver, and user-level library.  The simulator
reads traces, serializes the communication requests using the time stamps
in the trace, and derives detailed statistics on translation misses, and
the number of page pinnings and unpinnings."

One :func:`simulate_node` call replays one node's merged trace against a
fresh NIC (Shared UTLB-Cache) with one :class:`HierarchicalUtlb` per
process; :func:`simulate_app` runs every node of a synthetic application
and aggregates.
"""

from repro.core.shared_cache import SharedUtlbCache, ShadowedUtlbCache
from repro.core.stats import TranslationStats
from repro.core.utlb import CountingFrameDriver, HierarchicalUtlb
from repro.traces.compile import compile_streams


class NodeResult:
    """Outcome of simulating one node's trace."""

    def __init__(self, stats, per_pid, cache, breakdown=None):
        self.stats = stats              # merged TranslationStats
        self.per_pid = per_pid          # pid -> TranslationStats
        self.cache = cache              # cache stats snapshot (dict)
        self.breakdown = breakdown      # MissBreakdown or None

    def to_dict(self):
        """JSON-safe dict: the result-cache and worker-transport format."""
        return {
            "stats": self.stats.to_dict(),
            "per_pid": {str(pid): stats.to_dict()
                        for pid, stats in self.per_pid.items()},
            "cache": self.cache,
            "breakdown": (None if self.breakdown is None
                          else self.breakdown.to_dict()),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a node result from :meth:`to_dict` output."""
        from repro.cachesim.classify import MissBreakdown
        breakdown = data.get("breakdown")
        return cls(
            TranslationStats.from_dict(data["stats"]),
            {int(pid): TranslationStats.from_dict(stats)
             for pid, stats in data["per_pid"].items()},
            data["cache"],
            None if breakdown is None else MissBreakdown.from_dict(breakdown))

    def __repr__(self):
        return "NodeResult(%r)" % (self.stats,)


class ClusterResult:
    """Aggregated outcome over all nodes of one application run."""

    def __init__(self, node_results):
        self.node_results = node_results
        self.stats = TranslationStats.merged(
            r.stats for r in node_results)
        self.breakdown = None
        if node_results and node_results[0].breakdown is not None:
            from repro.cachesim.classify import MissBreakdown
            self.breakdown = MissBreakdown.merged(
                r.breakdown for r in node_results)

    @property
    def per_node(self):
        return self.node_results

    def to_dict(self):
        """JSON-safe dict (per-node; aggregates are recomputed on load)."""
        return {"nodes": [r.to_dict() for r in self.node_results]}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a cluster result from :meth:`to_dict` output."""
        return cls([NodeResult.from_dict(n) for n in data["nodes"]])


def simulate_node(records, config, check_invariants=False, compiled=None):
    """Replay one node's (timestamp-sorted) trace under ``config``.

    Dispatches on ``config.engine``: ``fast`` (the default) replays
    compiled page streams through a counter-only hot path; ``reference``
    replays record-at-a-time through the full machinery.  Both are
    bit-identical in output (``NodeResult.to_dict()`` equality — the
    differential tests enforce it).

    ``compiled`` optionally passes precompiled streams for ``records``
    (:func:`compile_streams` output); the sweep runner uses it to compile
    each node's trace once per batch instead of once per cell.  The
    reference engine ignores it.

    An enabled ``config.tracer`` forces the reference path regardless of
    engine: the fast engine's hot loop is counter-only and cannot feed an
    event stream.  With no tracer (or a NullTracer) the fast path runs
    unchanged — byte- and speed-identical to an untraced build.
    """
    if config.engine == "reference" or config.traced:
        return _simulate_node_reference(records, config, check_invariants)
    return _simulate_node_fast(records, config, check_invariants, compiled)


def _build_node(pids, config, shadowed=False, cache_factory=None):
    """One node's NIC cache, frame driver, and per-process UTLB stacks.

    ``pids`` must be sorted: registration order assigns the per-process
    index offsets, so it is part of the simulated configuration.

    ``cache_factory(config, tracer)`` optionally supplies the NIC cache
    model — how the mechanism registry swaps in Victima/Utopia/SPARTA
    designs while reusing the whole replay stack.  ``shadowed`` is
    ignored when a factory is given (the shadow fast path assumes the
    base cache's exact-key semantics).
    """
    tracer = config.tracer if config.traced else None
    if cache_factory is not None:
        cache = cache_factory(config, tracer)
    else:
        cache_cls = ShadowedUtlbCache if shadowed else SharedUtlbCache
        cache = cache_cls(
            config.cache_entries,
            associativity=config.associativity,
            offsetting=config.offsetting,
            classify=config.classify,
            tracer=tracer)
    driver = CountingFrameDriver()
    limit = config.memory_limit_pages
    utlbs = {}
    for pid in pids:
        utlbs[pid] = HierarchicalUtlb(
            pid, cache, driver=driver, cost_model=config.cost_model,
            memory_limit_pages=limit, pin_policy=config.pin_policy,
            prepin=config.prepin, prefetch=config.prefetch,
            seed=config.seed, tracer=tracer)
    return cache, utlbs


def _node_result(cache, utlbs, check_invariants):
    if check_invariants:
        for utlb in utlbs.values():
            utlb.check_invariants()
    per_pid = {pid: utlb.stats for pid, utlb in utlbs.items()}
    stats = TranslationStats.merged(per_pid.values())
    breakdown = cache.classifier.breakdown if cache.classifier else None
    return NodeResult(stats, per_pid, cache.stats.snapshot(), breakdown)


def _simulate_node_reference(records, config, check_invariants=False,
                             cache_factory=None):
    """The oracle: record-at-a-time replay, one full lookup per page."""
    pids = sorted({record.pid for record in records})
    cache, utlbs = _build_node(pids, config, cache_factory=cache_factory)

    for record in records:
        utlb = utlbs[record.pid]
        for vpage in record.pages():
            utlb.access_page(vpage)

    return _node_result(cache, utlbs, check_invariants)


def _simulate_node_fast(records, config, check_invariants=False,
                        compiled=None, cache_factory=None):
    """Compiled-stream replay with a counter-only hot path.

    The common case — page already pinned, translation already in the
    NIC cache — touches no simulation machinery at all: one or two dict/
    set probes and a counter bump.  Check misses and NIC misses fall back
    to the exact reference-path methods, so all state transitions (pin,
    evict, fill, invalidate) are byte-identical by construction.  The
    skipped per-event costs are constant increments, so they are applied
    in one exact batch at end of replay
    (:meth:`TranslationStats.charge_check_hits` /
    :meth:`~TranslationStats.charge_ni_hits`).

    The NIC-cache shadow dict is only a sound lookup substitute when a
    hit has no side effect beyond counters: direct-mapped (no within-set
    replacement state to touch) and no 3C classifier (which observes
    every access).  Other configurations still skip the user-level check
    on pinned pages but probe the real cache per lookup.

    Real traces interleave pids at record granularity (often one page per
    record), so the loop runs per lookup over the compiled interleaved
    arrays with per-pid state prebound in dense-index lists — the sets,
    shadow dicts, and bound methods are all stable objects mutated in
    place, so binding them once is sound.
    """
    if compiled is None:
        compiled = compile_streams(records)
    # A custom cache model (mechanism registry) disables the shadow-dict
    # shortcut: its lookups may have side effects (pressure clocks,
    # segment LRU order) the shadow would skip.  The non-shadow branches
    # below probe the real cache on every lookup, exactly like the
    # reference engine, so they stay byte-identical for any cache model.
    shadow_ok = (cache_factory is None
                 and config.associativity == 1 and not config.classify)
    cache, utlbs = _build_node(compiled.pids, config, shadowed=shadow_ok,
                               cache_factory=cache_factory)
    limit = config.memory_limit_pages

    # Per-pid state, indexed by the compiled dense pid index.
    order = compiled.pid_order
    pinneds = [utlbs[pid].pool.pinned_pages for pid in order]
    user_checks = [utlbs[pid].user_check_page for pid in order]
    nic_translates = [utlbs[pid].nic_translate_page for pid in order]
    check_counts = [0] * len(order)     # check hit, NIC probe still ran
    hit_counts = [0] * len(order)       # check hit + NIC hit: counters only
    pairs = zip(compiled.index_stream, compiled.page_stream)

    if shadow_ok:
        shadows = [cache.shadow[pid] for pid in order]
        if limit is None:
            # Hottest loop: no pinning limit means victim order is never
            # consulted, so policy touches can be skipped too.
            for i, vpage in pairs:
                if vpage in shadows[i]:
                    hit_counts[i] += 1
                elif vpage in pinneds[i]:
                    check_counts[i] += 1
                    nic_translates[i](vpage)
                else:
                    user_checks[i](vpage)
                    nic_translates[i](vpage)
        else:
            # A pinning limit makes eviction order observable: every
            # check hit must still touch the replacement policy.
            note_accesses = [utlbs[pid].pool.policy.on_access
                             for pid in order]
            for i, vpage in pairs:
                if vpage in shadows[i]:
                    hit_counts[i] += 1
                    note_accesses[i](vpage)
                elif vpage in pinneds[i]:
                    check_counts[i] += 1
                    note_accesses[i](vpage)
                    nic_translates[i](vpage)
                else:
                    user_checks[i](vpage)
                    nic_translates[i](vpage)
    elif limit is None:
        for i, vpage in pairs:
            if vpage in pinneds[i]:
                check_counts[i] += 1
            else:
                user_checks[i](vpage)
            nic_translates[i](vpage)
    else:
        note_accesses = [utlbs[pid].pool.policy.on_access for pid in order]
        for i, vpage in pairs:
            if vpage in pinneds[i]:
                check_counts[i] += 1
                note_accesses[i](vpage)
            else:
                user_checks[i](vpage)
            nic_translates[i](vpage)

    cm = config.cost_model
    shadow_hits = 0
    for i, pid in enumerate(order):
        stats = utlbs[pid].stats
        stats.charge_check_hits(check_counts[i] + hit_counts[i],
                                cm.user_check_hit)
        stats.charge_ni_hits(hit_counts[i], cm.ni_check_hit)
        shadow_hits += hit_counts[i]
    if shadow_hits:
        cache.credit_shadow_hits(shadow_hits)

    return _node_result(cache, utlbs, check_invariants)


def simulate_app(app, config, nodes=4, seed=0, scale=1.0,
                 check_invariants=False):
    """Simulate every node of a synthetic application; aggregate."""
    traces = app.generate_cluster(nodes=nodes, seed=seed, scale=scale)
    results = [simulate_node(traces[node], config,
                             check_invariants=check_invariants)
               for node in sorted(traces)]
    return ClusterResult(results)
