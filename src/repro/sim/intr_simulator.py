"""Trace-driven simulator for the interrupt-based baseline.

"We also developed a simulator for the interrupt-based approach where the
network interface interrupts its host CPU on a translation miss, and the
CPU handles page pinning, unpinning, and installing new translation
entries" (Section 6).  Mirror of :mod:`repro.sim.simulator` driving
:class:`~repro.core.interrupt_based.InterruptBasedNode`.
"""

from repro.core.interrupt_based import InterruptBasedNode
from repro.core.shared_cache import SharedUtlbCache
from repro.core.stats import TranslationStats
from repro.core.utlb import CountingFrameDriver
from repro.sim.simulator import ClusterResult, NodeResult
from repro.traces.compile import compile_streams


def simulate_node_intr(records, config, check_invariants=False,
                       compiled=None):
    """Replay one node's trace under the interrupt-based mechanism.

    The cache structure is identical to the UTLB runs ("we assume that
    the cache structures are the same for both cases", Section 6.2); only
    the miss handling differs.  Prefetch does not apply: the interrupt
    handler installs exactly the missed entry.  ``compiled`` optionally
    passes precompiled streams (see :func:`~repro.sim.simulator.simulate_node`).

    Engine dispatch matches the UTLB simulator: the fast counter-only
    path needs a direct-mapped cache, no classifier, and no enabled
    tracer (``config.traced`` routes through the reference path, which
    emits the full event stream).
    """
    fast = (config.engine == "fast"
            and config.associativity == 1
            and not config.classify and not config.traced)
    if not fast:
        return _simulate_node_intr_reference(records, config,
                                             check_invariants)
    return _simulate_node_intr_fast(records, config, check_invariants,
                                    compiled)


def _build_intr_node(config):
    """One node's shared cache and interrupt-based host state."""
    tracer = config.tracer if config.traced else None
    cache = SharedUtlbCache(
        config.cache_entries,
        associativity=config.associativity,
        offsetting=config.offsetting,
        classify=config.classify,
        tracer=tracer)
    node = InterruptBasedNode(cache, driver=CountingFrameDriver(),
                              cost_model=config.cost_model, tracer=tracer)
    return cache, node


def _intr_result(cache, node, pids, check_invariants):
    if check_invariants:
        node.check_invariants()
    per_pid = {pid: node.stats_for(pid) for pid in pids}
    stats = TranslationStats.merged(per_pid.values())
    breakdown = cache.classifier.breakdown if cache.classifier else None
    return NodeResult(stats, per_pid, cache.stats.snapshot(), breakdown)


def _simulate_node_intr_reference(records, config, check_invariants=False):
    """The oracle: record-at-a-time replay through the full machinery."""
    cache, node = _build_intr_node(config)
    limit = config.memory_limit_pages
    pids = sorted({record.pid for record in records})
    for pid in pids:
        node.register_process(pid, memory_limit_pages=limit)
    for record in records:
        for vpage in record.pages():
            node.access_page(record.pid, vpage)
    return _intr_result(cache, node, pids, check_invariants)


def _simulate_node_intr_fast(records, config, check_invariants=False,
                             compiled=None):
    """Compiled-stream replay with a counter-only hot path.

    Same eligibility rule as the UTLB fast engine: pinned pages and
    cached translations are the same set under this mechanism, so a dict
    probe decides hit vs miss exactly.  A hit's only effects are counters
    plus constant time increments, batched after replay; misses run the
    full interrupt path.
    """
    cache, node = _build_intr_node(config)
    limit = config.memory_limit_pages
    if compiled is None:
        compiled = compile_streams(records)
    pids = compiled.pids
    for pid in pids:
        node.register_process(pid, memory_limit_pages=limit)
    # Per-lookup loop over the interleaved arrays (pids interleave at
    # record granularity, so per-segment dispatch would dominate);
    # the pinned maps are stable dicts mutated in place.
    order = compiled.pid_order
    pinneds = [node.pinned_map(pid) for pid in order]
    hit_counts = [0] * len(order)
    access = node.access_page
    for i, vpage in zip(compiled.index_stream, compiled.page_stream):
        if vpage in pinneds[i]:
            hit_counts[i] += 1
        else:
            access(order[i], vpage)
    cm = config.cost_model
    total_hits = 0
    for i, pid in enumerate(order):
        hits = hit_counts[i]
        if hits:
            stats = node.stats_for(pid)
            stats.lookups += hits
            stats.charge_ni_hits(hits, cm.ni_check_hit)
            total_hits += hits
    if total_hits:
        cache.stats.accesses += total_hits
        cache.stats.hits += total_hits
    return _intr_result(cache, node, pids, check_invariants)


def simulate_app_intr(app, config, nodes=4, seed=0, scale=1.0,
                      check_invariants=False):
    """Simulate every node of an application under the baseline."""
    traces = app.generate_cluster(nodes=nodes, seed=seed, scale=scale)
    results = [simulate_node_intr(traces[node], config,
                                  check_invariants=check_invariants)
               for node in sorted(traces)]
    return ClusterResult(results)
