"""One-pass analytic axis solver (Mattson's stack algorithm, Section 6).

Every grid in Tables 5-8 replays the same compiled page streams once per
(cache size, memory limit, associativity) cell, so sweep cost is
O(cells x pages) even with the fast engine.  For stack-friendly
replacement — the default LRU NIC-cache line replacement and the LRU
pinned-page pool — the inclusion property collapses a whole sweep *axis*
into one pass: a single traversal of a node's :class:`CompiledStreams`
yields exact per-pid miss counts for **every** capacity at once, and the
cost model charges each event class a fixed price when ``prefetch == 1``
and ``prepin == 1``, so all ``*_time_us`` fields follow from the counts
(:func:`~repro.core.costs.accumulated_cost`).  Axis cost becomes
O(pages + cells).

Two axis kinds are solved:

* **memory axis** — cells identical except ``memory_limit_bytes``
  (Table 5), direct-mapped.  One pass computes, per pid, the LRU stack
  distance of every page reuse (distance ``d`` means the reuse is a
  check miss exactly for limits ``L <= d``), whether the reuse interval
  suffered a same-set different-key NIC-cache conflict (direct-mapped:
  any such access misses and overwrites, an ``L``-independent fact), and
  the pid-local distinct-page count ``K'`` at the interval's *first*
  conflict — an unpin at limit ``L`` finds a live NIC entry to
  invalidate iff ``min(d, K') >= L``.  Histogram suffix sums then read
  off check misses, NIC misses, unpins, invalidations, evictions, and
  final occupancy for every limit on the axis.
* **cache axis** — cells identical except ``(cache_entries,
  associativity, offsetting)`` and mechanism, with no pinning limit
  (Table 8, and the utlb/intr pairs of Tables 4 and 6).  Per distinct
  ``(num_sets, offsetting)`` geometry one pass computes each access's
  within-set LRU recency depth (bounded at the axis's largest
  associativity): depth ``>= A`` means a miss at associativity ``A``.
  The ubiquitous direct-mapped case vectorizes to a stable sort by set
  index plus adjacent comparisons.  The interrupt baseline keeps the
  same NIC cache (Section 6.2), so its NIC misses — and with them its
  interrupts and pins — are the utlb twin's; its unpins are its fills
  minus the entries still cached at the end, which the pass also
  counts per pid.

The materialized per-cell ``NodeResult`` dicts are **byte-identical** to
the fast engine's — same counters, same bit-exact float time fields
(every charged constant is accumulated in per-pid event order, and the
merged node stats sum the per-pid floats in sorted-pid order, exactly as
``TranslationStats.merged`` does).  The differential tests enforce this
cell by cell.

:func:`plan_axes` is the :class:`~repro.sim.runner.SweepRunner`'s
planner: it puts every eligible pending cell on exactly one axis — a
lone cell is an axis of one — and leaves everything else (other
mechanisms, pinning-limited intr, non-LRU policies, prefetch/prepin
batching, classification, tracing, reference engine, pinning limits on
a set-associative cache) to per-cell replay.
"""

import json
from array import array
from bisect import bisect_left

from repro import params
from repro.errors import CapacityError
from repro.sim.kernels import (
    cache_pass as _cache_pass,
    cache_dict as _cache_dict,
    materialize_cache as _materialize_cache,
    node_dict as _node_dict,
    pid_offsets as _pid_offsets,
    pid_stats_dict as _pid_stats_dict,
    stream_firsts,
)
from repro.sim.mechanisms import lookup as lookup_mechanism

#: The config fields a cache axis varies; everything else must match.
CACHE_AXIS_FIELDS = ("cache_entries", "associativity", "offsetting")


class AnalyticAxis:
    """One planned axis: the member cell indices plus a picklable spec.

    ``spec`` is what travels to workers (axis kind, geometry, the
    per-cell axis values aligned with ``indices`` — a cache axis's
    geometries carry each cell's mechanism — and the cost model's unit
    prices); ``solve_axis_node`` consumes it next to one node's compiled
    streams.
    """

    __slots__ = ("kind", "indices", "spec")

    def __init__(self, kind, indices, spec):
        self.kind = kind
        self.indices = indices
        self.spec = spec


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def cell_eligible(config, mechanism):
    """Can this cell ride an analytic axis at all (axis fields aside)?

    Asks the mechanism registry, and only on the fast engine, untraced:
    ``utlb`` opts in on its default path — unclassified, one page per
    pin call and one entry per miss fetch, LRU pinned-page replacement —
    and ``intr`` on a direct-mapped, unclassified cache with no pinning
    limit.  Everything else — including user-supplied policy
    *instances* — replays per cell.  Unknown mechanism names are simply
    ineligible (dispatch fails loudly later, in the worker).
    """
    mech = lookup_mechanism(mechanism)
    return mech is not None and mech.analytic_eligible(config)


def plan_axes(cells, pending, configs, fingerprint):
    """Put every eligible pending cell on one axis; returns ``(axes, rest)``.

    The cell's shape picks the axis kind: a cell with a pinning limit
    on a direct-mapped cache joins a memory axis, and a cell with no
    limit joins a cache axis.  Two cells share an axis when they replay
    the identical traces (by trace fingerprint) under configs that
    differ *only* in that kind's field(s): ``memory_limit_bytes``, or
    ``(cache_entries, associativity, offsetting)`` plus the mechanism —
    a trace's utlb and intr cells on one geometry share one cache pass.
    The cost model stays in the key.  An axis of one cell is solved
    too — its single pass is still cheaper than a replay.
    ``rest`` preserves ``pending``'s order for per-cell replay.
    """
    groups = {}
    for index in pending:
        cell = cells[index]
        config = configs[index]
        if config.memory_limit_bytes is None:
            kind, fields = "cache", CACHE_AXIS_FIELDS + ("mechanism",)
        elif config.associativity == 1:
            kind, fields = "memory", ("memory_limit_bytes",)
        else:
            continue
        if not cell_eligible(config, cell.mechanism):
            continue
        sig = tuple((node, fingerprint(cell.traces[node]))
                    for node in sorted(cell.traces))
        rest = config.to_dict()
        for field in fields:
            del rest[field]
        key = (kind, sig, json.dumps(rest, sort_keys=True))
        groups.setdefault(key, []).append(index)

    axes = []
    for (kind, _sig, _rest), members in groups.items():
        config0 = configs[members[0]]
        if kind == "memory":
            spec = {
                "kind": "memory",
                "num_sets": config0.cache_entries,      # direct-mapped
                "offsetting": bool(config0.offsetting),
                "limits": [configs[m].memory_limit_pages for m in members],
            }
        else:
            spec = {
                "kind": "cache",
                "geometries": [[configs[m].cache_entries,
                                configs[m].associativity,
                                bool(configs[m].offsetting),
                                cells[m].mechanism]
                               for m in members],
            }
        spec["unit_costs"] = config0.cost_model.unit_costs()
        axes.append(AnalyticAxis(kind, members, spec))

    claimed = {m for axis in axes for m in axis.indices}
    return axes, [i for i in pending if i not in claimed]


# ---------------------------------------------------------------------------
# Solving (runs in workers, one call per (axis, node))
# ---------------------------------------------------------------------------

def solve_axis_node(compiled, spec):
    """Solve one node for every cell of an axis.

    Returns a list of ``NodeResult.to_dict()``-shaped dicts, one per
    axis cell (aligned with the spec's per-cell value lists), each
    byte-identical to what fast replay of that cell would produce.
    """
    if len(compiled.pids) > params.MAX_PROCESSES_PER_NIC:
        raise CapacityError(
            "node trace has %d processes; the NIC tag space holds %d"
            % (len(compiled.pids), params.MAX_PROCESSES_PER_NIC))
    if spec["kind"] == "memory":
        return _solve_memory_axis(compiled, spec)
    return _solve_cache_axis(compiled, spec)


# -- the memory axis --------------------------------------------------------

def _solve_memory_axis(compiled, spec):
    limits = spec["limits"]
    unit = spec["unit_costs"]
    if not compiled.pids:
        empty = _node_dict([], _cache_dict(0, 0, 0, 0))
        return [empty] * len(limits)
    finite = [limit for limit in limits if limit is not None]
    lcap = max(finite) if finite else 1
    data = _memory_pass(compiled, spec["num_sets"], spec["offsetting"], lcap)
    memo = {}
    out = []
    for limit in limits:
        node = memo.get(limit)
        if node is None:
            node = memo[limit] = _materialize_memory(
                compiled, data, limit, unit)
        out.append(node)
    return out


def _memory_pass(compiled, num_sets, offsetting, lcap):
    """One analysis of a node; everything every limit on the axis needs.

    Per pid: access count, first accesses (compulsory check misses), the
    LRU stack-distance histogram of page reuses (``d`` = distinct same-
    pid pages touched since the page's previous access; a reuse at
    distance ``d`` is a check miss iff the limit ``L <= d``), split by
    whether the reuse interval had a NIC-set conflict (a different-key
    access to the page's set — under direct mapping it always misses and
    overwrites, independent of ``L``).  Globally: the invalidation
    histogram over ``min(d, K')`` — ``K'`` being the pid's distinct-page
    count at the interval's *first* conflict, measured *after* that
    access's own stack update, because a victim page is invalidated in
    the user-check phase, before the conflicting access's fill — and the
    end-of-trace stack distance of each set's final occupant (the set is
    still occupied at limit ``L`` iff that distance is ``< L``).

    The set side is numpy.  One sort of the unique ``(set << 32) | time``
    keys puts every set's accesses in time order, so an interval's first
    conflict is the opening access's same-set successor when that holds
    a different key, a reuse was conflicted iff its same-set predecessor
    holds a different key, and a set's last access is its final
    occupant.  ``K'`` never exceeds the interval's own distance (the
    snapshot is taken inside it), so a conflicted interval contributes
    ``K'`` and an unconflicted one its closing ``d`` (or, for a page's
    last interval, its end distance).  The stack side is
    :func:`_stack_pass`, one lean loop per pid that records every
    distance and answers the ``K'`` queries scheduled here.

    The trace must hold at least one lookup.  Index arrays are int32: a
    trace of ``2**31`` lookups would not fit in memory (its page stream
    alone is 16 GiB).
    """
    import numpy

    order = compiled.pid_order
    idx, pages = compiled.numpy_views()
    total = len(idx)
    i32 = numpy.int32
    width = lcap + 1

    # -- set analysis ----------------------------------------------------
    if offsetting:
        skey = pages + numpy.array(
            _pid_offsets(compiled, num_sets, True), dtype=numpy.uint64)[idx]
        skey %= numpy.uint64(num_sets)
    else:
        skey = pages % numpy.uint64(num_sets)
    skey <<= numpy.uint64(32)
    skey |= numpy.arange(total, dtype=numpy.uint64)
    skey.sort()                 # unique keys: an unstable sort is exact
    by_set = (skey & numpy.uint64(0xFFFFFFFF)).astype(i32)
    skey >>= numpy.uint64(32)
    same_set = skey[1:] == skey[:-1]
    del skey
    # Global positions of the sets' final occupants (last of each group).
    occupants = by_set[numpy.flatnonzero(numpy.append(~same_set, True))]
    sets_touched = len(occupants)
    column = idx[by_set]
    same_key = column[1:] == column[:-1]
    column = pages[by_set]
    same_key &= column[1:] == column[:-1]
    del column

    # -- pid-local coordinates: a stable sort by pid index lists each
    # pid's accesses in time order, so a position minus the pid's start
    # is the pid-local time ------------------------------------------
    by_pid = numpy.argsort(idx, kind="stable").astype(i32)
    grouped = numpy.empty(total, dtype=i32)
    grouped[by_pid] = numpy.arange(total, dtype=i32)
    # Reuses whose interval saw no conflict, by grouped position.
    unconflicted = numpy.zeros(total, dtype=bool)
    unconflicted[grouped[by_set[1:][same_key]]] = True
    # Each interval's first conflicting access (a global position), by
    # the grouped position of the access that opened it; -1 for none.
    same_set &= ~same_key
    del same_key
    conflictor = numpy.full(total, -1, dtype=i32)
    conflictor[grouped[by_set[:-1][same_set]]] = by_set[1:][same_set]
    del same_set
    occupants = numpy.sort(grouped[occupants])
    del by_set, grouped

    # -- the per-pid stack loops, then histograms by bincount ------------
    n = []
    firsts = []
    conflicted = []
    suffix_d = []
    suffix_dnc = []
    inv_hist = numpy.zeros(width, dtype=numpy.int64)
    occ_hist = numpy.zeros(width, dtype=numpy.int64)
    lo = 0
    for pid in order:
        stream = compiled.streams[pid]
        hi = lo + len(stream)
        conflicts = conflictor[lo:hi]
        opened = numpy.flatnonzero(conflicts >= 0)
        # The pid's local time at each first conflict: its last access
        # at or before the conflicting one (which may be its own).
        due = numpy.searchsorted(by_pid[lo:hi], conflicts[opened],
                                 side="right") - 1
        schedule = numpy.argsort(due, kind="stable")
        dist, ends, kprimes = _stack_pass(
            _previous_access(stream),
            array("i", due[schedule].astype(i32).tobytes()),
            array("i", opened[schedule].astype(i32).tobytes()))
        del due, schedule

        dist = numpy.frombuffer(dist, dtype=i32)
        reused = dist >= 0
        clipped = numpy.minimum(dist, lcap)
        unc = unconflicted[lo:hi]
        hist_dnc = numpy.bincount(clipped[unc], minlength=width)
        reuses = int(numpy.count_nonzero(reused))
        n.append(hi - lo)
        firsts.append(hi - lo - reuses)
        conflicted.append(reuses - int(numpy.count_nonzero(unc)))
        suffix_d.append(_suffix(
            numpy.bincount(clipped[reused], minlength=width)))
        suffix_dnc.append(_suffix(hist_dnc))
        del dist, reused, clipped, unc

        # Every interval contributes once: unconflicted closed ones
        # their distance, conflicted ones K', and a page's unconflicted
        # last interval its end distance (pages touched after it).
        ends = numpy.array(ends, dtype=i32)
        dend = numpy.arange(len(ends) - 1, -1, -1, dtype=i32)
        numpy.minimum(dend, lcap, out=dend)
        inv_hist += hist_dnc
        inv_hist += numpy.bincount(
            numpy.minimum(numpy.frombuffer(kprimes, dtype=i32), lcap),
            minlength=width)
        inv_hist += numpy.bincount(dend[conflicts[ends] < 0],
                                   minlength=width)
        first, last = numpy.searchsorted(occupants, (lo, hi))
        occ_hist += numpy.bincount(
            dend[numpy.searchsorted(ends, occupants[first:last] - lo)],
            minlength=width)
        lo = hi

    return {
        "n": n,
        "firsts": firsts,
        "conflicted": conflicted,
        "suffix_d": suffix_d,
        "suffix_dnc": suffix_dnc,
        "suffix_inv": _suffix(inv_hist),
        "suffix_occ": _suffix(occ_hist),
        "sets_touched": sets_touched,
    }


def _previous_access(stream):
    """Per access, the pid-local time of the same page's previous access
    (-1 for a first access), as an ``array('i')``."""
    import numpy

    pages = numpy.frombuffer(stream, dtype=numpy.uint64)
    by_page = numpy.argsort(pages, kind="stable").astype(numpy.int32)
    repeat = pages[by_page[1:]] == pages[by_page[:-1]]
    prev = numpy.full(len(pages), -1, dtype=numpy.int32)
    prev[by_page[1:][repeat]] = by_page[:-1][repeat]
    return array("i", prev.tobytes())


def _stack_pass(prev, due, asked):
    """One pid's LRU stack walked in local time.

    The exact stack is an ascending last-access-time list probed with
    ``bisect`` — delete-and-append keeps it sorted because clocks only
    grow.  Returns ``(dist, ends, kprimes)``: every access's stack
    distance (-1 for a first access), the final list (each page's last
    access time, ascending), and one ``K'`` per query — query ``q``
    asks, right after local time ``due[q]``, how many distinct pages
    were touched since local time ``asked[q]`` (``due`` ascending).
    """
    dist = array("i", [-1]) * len(prev)
    kprimes = array("i")
    times = []
    bl = bisect_left
    pending = len(due)
    q = 0
    next_due = due[0] if pending else -1
    for t, tprev in enumerate(prev):
        if tprev < 0:
            times.append(t)
        elif times[-1] == tprev:
            times[-1] = t
            dist[t] = 0
        else:
            pos = bl(times, tprev)
            dist[t] = len(times) - pos - 1
            del times[pos]
            times.append(t)
        while t == next_due:
            kprimes.append(len(times) - bl(times, asked[q]) - 1)
            q += 1
            next_due = due[q] if q < pending else -1
    return dist, times, kprimes


def _suffix(hist):
    """``out[k] = sum(hist[k:])`` of a numpy histogram, as a list of
    ints with a trailing zero sentinel."""
    out = hist[::-1].cumsum()[::-1].tolist()
    out.append(0)
    return out


def _materialize_memory(compiled, data, limit, unit):
    """Read one limit's exact cell results off the pass's histograms."""
    index_of = {pid: i for i, pid in enumerate(compiled.pid_order)}
    rows = []
    misses = 0
    accesses = 0
    for pid in compiled.pids:
        i = index_of[pid]
        n = data["n"][i]
        firsts = data["firsts"][i]
        if limit is None:
            # No limit: nothing is ever unpinned; a reuse only misses
            # the NIC when its interval was conflicted.
            check = firsts
            ni = firsts + data["conflicted"][i]
            unpins = 0
        else:
            check = firsts + data["suffix_d"][i][limit]
            ni = (firsts + data["conflicted"][i]
                  + data["suffix_dnc"][i][limit])
            # Pins minus the pages still pinned at the end (the limit's
            # worth, or the whole footprint if it never filled).
            unpins = check - (limit if limit < firsts else firsts)
        rows.append((pid, _pid_stats_dict(n, check, ni, unpins, unit)))
        misses += ni
        accesses += n
    if limit is None:
        invalidations = 0
        occupied = data["sets_touched"]
    else:
        invalidations = data["suffix_inv"][limit]
        occupied = data["sets_touched"] - data["suffix_occ"][limit]
    evictions = misses - invalidations - occupied
    return _node_dict(rows, _cache_dict(accesses, misses, evictions,
                                        invalidations))


# -- the cache axis ---------------------------------------------------------

def _solve_cache_axis(compiled, spec):
    geometries = [tuple(g) for g in spec["geometries"]]
    unit = spec["unit_costs"]
    if not compiled.pids:
        empty = _node_dict([], _cache_dict(0, 0, 0, 0))
        return [empty] * len(geometries)
    order = compiled.pid_order
    n = [len(compiled.streams[pid]) for pid in order]
    firsts = stream_firsts(compiled)

    # One pass per distinct (num_sets, offsetting), shared by every
    # associativity and mechanism on that geometry (Table 8's 1024/1,
    # 2048/2, 4096/4 points all have 1024 sets), bounded at the largest
    # associativity.
    passes = {}
    for entries, assoc, offsetting, _mechanism in geometries:
        key = (entries // assoc, offsetting)
        passes[key] = max(passes.get(key, 0), assoc)
    pass_data = {key: _cache_pass(compiled, key[0], key[1], amax)
                 for key, amax in passes.items()}

    memo = {}
    out = []
    for geometry in geometries:
        node = memo.get(geometry)
        if node is None:
            node = memo[geometry] = _materialize_cache(
                compiled, geometry, pass_data, n, firsts, unit)
        out.append(node)
    return out
