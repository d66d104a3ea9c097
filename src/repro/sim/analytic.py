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
  associativity, offsetting)`` with no pinning limit (Table 8).  Per
  distinct ``(num_sets, offsetting)`` geometry one pass computes each
  access's within-set LRU recency depth (bounded at the axis's largest
  associativity): depth ``>= A`` means a miss at associativity ``A``.
  The ubiquitous direct-mapped case vectorizes to a stable sort by set
  index plus adjacent comparisons.

The materialized per-cell ``NodeResult`` dicts are **byte-identical** to
the fast engine's — same counters, same bit-exact float time fields
(every charged constant is accumulated in per-pid event order, and the
merged node stats sum the per-pid floats in sorted-pid order, exactly as
``TranslationStats.merged`` does).  The differential tests enforce this
cell by cell.

:func:`plan_axes` is the :class:`~repro.sim.runner.SweepRunner`'s
planner: it puts every eligible pending cell on exactly one axis — a
lone cell is an axis of one — and leaves everything else (other
mechanisms, non-LRU policies, prefetch/prepin batching, classification,
tracing, reference engine, pinning limits on a set-associative cache)
to per-cell replay.
"""

import json
from bisect import bisect_left

from repro import params
from repro.errors import CapacityError
from repro.sim.kernels import (
    cache_pass as _cache_pass,
    cache_dict as _cache_dict,
    key_shift as _key_shift,
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
    per-cell axis values aligned with ``indices``, and the cost model's
    five unit prices); ``solve_axis_node`` consumes it next to one
    node's compiled streams.
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

    Asks the mechanism registry: today only ``utlb`` opts in, and only
    on the fast engine's default path — untraced, unclassified, one page
    per pin call and one entry per miss fetch, LRU pinned-page
    replacement.  Everything else — including user-supplied policy
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
    the identical traces (by content fingerprint) under configs that
    differ *only* in that kind's field(s): ``memory_limit_bytes``, or
    ``(cache_entries, associativity, offsetting)``.  An axis of one cell
    is solved too — its single pass is still cheaper than a replay.
    ``rest`` preserves ``pending``'s order for per-cell replay.
    """
    groups = {}
    for index in pending:
        cell = cells[index]
        config = configs[index]
        if config.memory_limit_bytes is None:
            kind, fields = "cache", CACHE_AXIS_FIELDS
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
                                bool(configs[m].offsetting)]
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
    """One traversal; everything every limit on the axis needs.

    Per pid: access count, first accesses (compulsory check misses), the
    LRU stack-distance histogram of page reuses (``d`` = distinct same-
    pid pages touched since the page's previous access; a reuse at
    distance ``d`` is a check miss iff the limit ``L <= d``), split by
    whether the reuse interval had a NIC-set conflict (a different-key
    access to the page's set — under direct mapping it always misses and
    overwrites, independent of ``L``).  Globally: the invalidation
    histogram over ``min(d, K')`` — ``K'`` being the pid's distinct-page
    count at the interval's first conflict, measured *after* that
    access's own stack update, because a victim page is invalidated in
    the user-check phase, before the conflicting access's fill — and the
    end-of-trace stack distance of each set's final occupant (the set is
    still occupied at limit ``L`` iff that distance is ``< L``).

    The exact per-pid stack is an ascending last-access-time list probed
    with ``bisect`` — delete-and-append keeps it sorted because clocks
    only grow.
    """
    order = compiled.pid_order
    npids = len(order)
    offsets = _pid_offsets(compiled, num_sets, offsetting)
    shift = _key_shift(compiled)
    keybase = [i << shift for i in range(npids)]
    mask = (1 << shift) - 1

    times_list = [[] for _ in range(npids)]
    lasts = [{} for _ in range(npids)]
    clocks = [0] * npids
    n = [0] * npids
    firsts = [0] * npids
    conflicted = [0] * npids
    hist_d = [[0] * (lcap + 1) for _ in range(npids)]
    hist_dnc = [[0] * (lcap + 1) for _ in range(npids)]
    inv_hist = [0] * (lcap + 1)
    set_last = {}               # set index -> key of its last accessor
    open_k = {}                 # key -> K' of its open interval's first conflict
    bl = bisect_left

    for i, v in zip(compiled.index_stream, compiled.page_stream):
        n[i] += 1
        times = times_list[i]
        last = lasts[i]
        t = clocks[i]
        clocks[i] = t + 1
        tprev = last.get(v)
        if tprev is None:
            firsts[i] += 1
            d = -1
        else:
            pos = (len(times) - 1 if times[-1] == tprev
                   else bl(times, tprev))
            d = len(times) - pos - 1
            del times[pos]
        times.append(t)
        last[v] = t
        key = keybase[i] | v
        s = (v + offsets[i]) % num_sets
        occupant = set_last.get(s)
        if (occupant is not None and occupant != key
                and occupant not in open_k):
            # First conflict of the occupant's open interval: snapshot
            # the occupant pid's distinct-page count since the occupant
            # page's last access (its current stack distance) — *after*
            # this access's own stack update, so a same-pid conflictor
            # that itself triggers the victim's unpin is counted.
            oi = occupant >> shift
            otimes = times_list[oi]
            open_k[occupant] = (
                len(otimes) - bl(otimes, lasts[oi][occupant & mask]) - 1)
        set_last[s] = key
        if d >= 0:
            kprime = open_k.pop(key, None)
            dc = d if d < lcap else lcap
            hist_d[i][dc] += 1
            if kprime is None:
                hist_dnc[i][dc] += 1
                inv_hist[dc] += 1
            else:
                conflicted[i] += 1
                m = d if d < kprime else kprime
                inv_hist[m if m < lcap else lcap] += 1

    # Final open intervals: one per distinct page (its last access to
    # end of trace).  An unpin inside it happens iff d_end >= L, and
    # finds a live entry iff min(d_end, K') >= L — same law as closed
    # intervals, no reuse to close them.
    dend = {}
    for i in range(npids):
        times = times_list[i]
        depth = len(times)
        kb = keybase[i]
        for v, tlast in lasts[i].items():
            de = depth - bl(times, tlast) - 1
            key = kb | v
            dend[key] = de
            kprime = open_k.get(key)
            m = de if kprime is None else (de if de < kprime else kprime)
            inv_hist[m if m < lcap else lcap] += 1

    # A set's final occupant is its last accessor (a hit leaves the
    # entry, a miss fills it), and nothing conflicts it afterwards — so
    # the set is empty at the end iff the occupant was unpinned, i.e.
    # iff its end distance reached the limit.
    occ_hist = [0] * (lcap + 1)
    for key in set_last.values():
        de = dend[key]
        occ_hist[de if de < lcap else lcap] += 1

    return {
        "n": n,
        "firsts": firsts,
        "conflicted": conflicted,
        "suffix_d": [_suffix(h) for h in hist_d],
        "suffix_dnc": [_suffix(h) for h in hist_dnc],
        "suffix_inv": _suffix(inv_hist),
        "suffix_occ": _suffix(occ_hist),
        "sets_touched": len(set_last),
    }


def _suffix(hist):
    """``out[k] = sum(hist[k:])`` with a trailing zero sentinel."""
    out = [0] * (len(hist) + 1)
    for k in range(len(hist) - 1, -1, -1):
        out[k] = out[k + 1] + hist[k]
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
    # associativity on that geometry (Table 8's 1024/1, 2048/2, 4096/4
    # points all have 1024 sets), bounded at the largest one.
    passes = {}
    for entries, assoc, offsetting in geometries:
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
