"""The pass machinery of the analytic axis solver.

:mod:`repro.sim.analytic` answers utlb and interrupt-baseline cells
from one pass over a node's compiled page streams instead of a replay.
This module holds the parts of that pass that do not depend on the axis
kind: the collision-free
``(pid, page)`` key packing, the per-process set offsets mirroring NIC
registration order, the distinct-page counts (compulsory check misses),
the NIC-cache pass itself, and the helpers that materialize a cell's
``NodeResult.to_dict()`` twin from counts.

The direct-mapped cache pass vectorizes with numpy: a stable argsort
over each lookup's set index keeps time order within every set, so an
access misses iff it is the set's first or the previous same-set access
held a different key (*previous-occurrence analysis*).  Set-associative
passes keep a bounded per-set recency list in pure Python.  The counters
then feed the same counter-to-cost tail as the fast engine, so the
materialized dicts are **byte-identical** to fast replay: same integers,
same bit-exact ``*_time_us`` floats (:func:`~repro.core.costs.accumulated_cost`).

Nothing here imports the mechanism registry or the simulators, so the
solver's machinery sits below both.  numpy is imported on first use, so
importing the package stays cheap for runs that never solve a cell.
"""

from repro import params
from repro.core.costs import accumulated_cost
from repro.core.shared_cache import SharedUtlbCache
from repro.core.stats import TranslationStats

OFFSET_MULTIPLIER = SharedUtlbCache.OFFSET_MULTIPLIER

# ---------------------------------------------------------------------------
# Shared index math
# ---------------------------------------------------------------------------


def key_shift(compiled):
    """Bits to shift a dense pid index past any page number in the trace.

    Pages are bounded by the 20-bit virtual page space in practice, but
    sizing the shift from the stream itself keeps ``(pid << shift) | page``
    collision-free for any trace replay itself would accept.
    """
    widest = max(
        params.NUM_VPAGES.bit_length(), int(max(compiled.page_stream)).bit_length()
    )
    return widest


def pid_offsets(compiled, num_sets, offsetting):
    """Per-dense-index set offsets, mirroring NIC registration order.

    ``_build_node`` registers processes in sorted-pid order, so a pid's
    tag is its rank in ``compiled.pids`` (which is sorted), and its
    offset is the golden-ratio spread of that tag (Section 6.3).
    """
    if not offsetting:
        return [0] * len(compiled.pid_order)
    tags = {pid: tag for tag, pid in enumerate(compiled.pids)}
    return [(tags[pid] * OFFSET_MULTIPLIER) % num_sets for pid in compiled.pid_order]


def stream_firsts(compiled):
    """Distinct pages per dense pid index (compulsory check misses).

    Sorts the packed ``(pid, page)`` keys once and counts boundaries per
    pid; returns plain ints.  The trace must hold at least one lookup.
    """
    import numpy

    idx, pages = compiled.numpy_views()
    shift = numpy.uint64(key_shift(compiled))
    keys = numpy.sort((idx.astype(numpy.uint64) << shift) | pages)
    new = numpy.empty(len(keys), dtype=bool)
    new[0] = True
    numpy.not_equal(keys[1:], keys[:-1], out=new[1:])
    counts = numpy.bincount(
        (keys[new] >> shift).astype(numpy.intp), minlength=len(compiled.pid_order)
    )
    return [int(count) for count in counts]


# ---------------------------------------------------------------------------
# Cache passes (previous-occurrence analysis)
# ---------------------------------------------------------------------------


def cache_pass(compiled, num_sets, offsetting, amax):
    """Per-pid within-set LRU depth histogram, per-set key counts, and
    per-pid final occupancy.

    Returns ``(hist, setkey_hist, occupancy)``: ``hist[i][j]`` counts
    pid ``i``'s accesses at within-set recency depth ``j`` (depth =
    distinct other keys touched in the set since this key's last access;
    bucket ``amax`` holds first accesses and any depth >= amax), so the
    miss count at associativity ``A <= amax`` is ``sum(hist[i][A:])``.
    ``setkey_hist[j]`` counts sets holding ``min(distinct keys, amax) == j``
    — the A-independent form of final occupancy, since every distinct
    key is filled at least once and sets only lose entries to
    invalidation (never here: no pinning limit, no unpins).
    ``occupancy[A][i]`` counts pid ``i``'s entries still cached at the
    end at associativity ``A`` (``occupancy[0]`` is all zero): the
    interrupt baseline unpins every other page it pinned.
    """
    if amax == 1:
        return _cache_pass_numpy(compiled, num_sets, offsetting)
    return _cache_pass_python(compiled, num_sets, offsetting, amax)


def _cache_pass_numpy(compiled, num_sets, offsetting):
    """Vectorized direct-mapped pass: stable sort by set, compare
    neighbours.  Within one set the stable order is time order, so an
    access misses iff it is the set's first or the previous same-set
    access used a different key, and a set's last access is its final
    occupant."""
    import numpy

    idx, pages = compiled.numpy_views()
    if offsetting:
        offsets = numpy.array(pid_offsets(compiled, num_sets, True), dtype=numpy.uint64)
        hashed = pages + offsets[idx]
    else:
        hashed = pages
    sets = hashed % numpy.uint64(num_sets)
    shift = numpy.uint64(key_shift(compiled))
    keys = (idx.astype(numpy.uint64) << shift) | pages
    sort = numpy.argsort(sets, kind="stable")
    s_sorted = sets[sort]
    k_sorted = keys[sort]
    new_set = numpy.empty(len(sort), dtype=bool)
    new_set[0] = True
    numpy.not_equal(s_sorted[1:], s_sorted[:-1], out=new_set[1:])
    miss_sorted = new_set.copy()
    miss_sorted[1:] |= k_sorted[1:] != k_sorted[:-1]
    npids = len(compiled.pid_order)
    i_sorted = idx[sort]
    misses = numpy.bincount(i_sorted[miss_sorted], minlength=npids)
    hist = [
        [len(compiled.streams[pid]) - int(misses[i]), int(misses[i])]
        for i, pid in enumerate(compiled.pid_order)
    ]
    last_of_set = numpy.append(new_set[1:], True)
    occupants = numpy.bincount(i_sorted[last_of_set], minlength=npids)
    occupancy = [[0] * npids, [int(count) for count in occupants]]
    return hist, [0, int(new_set.sum())], occupancy


def _cache_pass_python(compiled, num_sets, offsetting, amax):
    """Pure-Python pass; exact for any associativity.

    Each set keeps its ``amax`` most recently used distinct keys in
    order (the LRU inclusion property makes that list the set contents
    at *every* associativity up to ``amax`` simultaneously); a linear
    probe of a <= 4-element list is the whole per-access cost.
    """
    order = compiled.pid_order
    npids = len(order)
    offsets = pid_offsets(compiled, num_sets, offsetting)
    shift = key_shift(compiled)
    keybase = [i << shift for i in range(npids)]
    hist = [[0] * (amax + 1) for _ in range(npids)]
    recency = {}  # set index -> MRU-first key list
    seen = set()  # keys ever accessed (first-fill detection)
    setkeys = {}  # set index -> min(distinct keys, amax)

    if amax == 1:
        for i, v in zip(compiled.index_stream, compiled.page_stream):
            s = (v + offsets[i]) % num_sets
            key = keybase[i] | v
            if recency.get(s) != key:
                recency[s] = key
                hist[i][1] += 1
            else:
                hist[i][0] += 1
        occupants = [0] * npids
        for key in recency.values():
            occupants[key >> shift] += 1
        return hist, [0, len(recency)], [[0] * npids, occupants]

    for i, v in zip(compiled.index_stream, compiled.page_stream):
        s = (v + offsets[i]) % num_sets
        key = keybase[i] | v
        stack = recency.get(s)
        if stack is None:
            stack = recency[s] = []
        try:
            pos = stack.index(key)
        except ValueError:
            pos = amax
        if pos < amax:
            hist[i][pos] += 1
            if pos:
                del stack[pos]
                stack.insert(0, key)
        else:
            hist[i][amax] += 1
            stack.insert(0, key)
            if len(stack) > amax:
                stack.pop()
            if key not in seen:
                seen.add(key)
                count = setkeys.get(s, 0)
                if count < amax:
                    setkeys[s] = count + 1
    setkey_hist = [0] * (amax + 1)
    for count in setkeys.values():
        setkey_hist[count] += 1
    # The recency lists are the contents at every associativity at once:
    # at associativity A a set holds its A most recent keys.
    occupancy = [[0] * npids for _ in range(amax + 1)]
    for stack in recency.values():
        for depth, key in enumerate(stack):
            occupancy[depth + 1][key >> shift] += 1
    for assoc in range(1, amax):
        below = occupancy[assoc]
        occupancy[assoc + 1] = [a + b for a, b in zip(below, occupancy[assoc + 1])]
    return hist, setkey_hist, occupancy


# ---------------------------------------------------------------------------
# Byte-identical materialization
# ---------------------------------------------------------------------------


def pid_stats_dict(n, check_misses, ni_misses, unpins, unit):
    """One utlb pid's ``TranslationStats.to_dict()``, rebuilt from counts.

    Every fast-engine time field accumulates a single constant — check
    0.5, NIC probe 0.8, pin(1), unpin(1), miss(1) — and repeated float
    addition of one constant depends only on the count, so
    :func:`accumulated_cost` lands on the identical bits.
    """
    return {
        "lookups": n,
        "check_misses": check_misses,
        "ni_accesses": n,
        "ni_hits": n - ni_misses,
        "ni_misses": ni_misses,
        "ni_evictions": 0,
        "pin_calls": check_misses,
        "pages_pinned": check_misses,
        "unpin_calls": unpins,
        "pages_unpinned": unpins,
        "interrupts": 0,
        "entries_fetched": ni_misses,
        "check_time_us": accumulated_cost(unit["check"], n),
        "pin_time_us": accumulated_cost(unit["pin"], check_misses),
        "unpin_time_us": accumulated_cost(unit["unpin"], unpins),
        "ni_hit_time_us": accumulated_cost(unit["ni_hit"], n),
        "ni_miss_time_us": accumulated_cost(unit["miss"], ni_misses),
        "interrupt_time_us": 0.0,
    }


def intr_stats_dict(n, ni_misses, occupied, unit):
    """One interrupt-baseline pid's ``TranslationStats.to_dict()``.

    With no pinning limit every NIC miss ``m`` interrupts the host,
    which pins the page and installs it; the page is unpinned exactly
    when its entry is evicted, so the pid's unpins are its fills minus
    the ``occupied`` entries still cached at the end.  The handler runs
    in the kernel, so pin and unpin charge the kernel rates.
    """
    unpins = ni_misses - occupied
    return {
        "lookups": n,
        "check_misses": 0,
        "ni_accesses": n,
        "ni_hits": n - ni_misses,
        "ni_misses": ni_misses,
        "ni_evictions": 0,
        "pin_calls": ni_misses,
        "pages_pinned": ni_misses,
        "unpin_calls": unpins,
        "pages_unpinned": unpins,
        "interrupts": ni_misses,
        "entries_fetched": 0,
        "check_time_us": 0.0,
        "pin_time_us": accumulated_cost(unit["kernel_pin"], ni_misses),
        "unpin_time_us": accumulated_cost(unit["kernel_unpin"], unpins),
        "ni_hit_time_us": accumulated_cost(unit["ni_hit"], n),
        "ni_miss_time_us": 0.0,
        "interrupt_time_us": accumulated_cost(unit["interrupt"], ni_misses),
    }


def cache_dict(accesses, misses, evictions, invalidations):
    """A ``CacheStats.snapshot()`` twin (every lookup fills on a miss)."""
    return {
        "accesses": accesses,
        "hits": accesses - misses,
        "misses": misses,
        "evictions": evictions,
        "invalidations": invalidations,
        "fills": misses,
        "miss_rate": misses / accesses if accesses else 0.0,
    }


def node_dict(pid_rows, cache):
    """A ``NodeResult.to_dict()`` twin from sorted per-pid stat rows.

    The merged floats must sum in sorted-pid order — the order
    ``TranslationStats.merged`` sees, since the simulator builds its
    per-pid dict over sorted pids.
    """
    merged = dict.fromkeys(TranslationStats.FIELDS, 0)
    for field in TranslationStats.TIME_FIELDS:
        merged[field] = 0.0
    for _pid, row in pid_rows:
        for field in TranslationStats.FIELDS:
            merged[field] += row[field]
        for field in TranslationStats.TIME_FIELDS:
            merged[field] += row[field]
    return {
        "stats": merged,
        "per_pid": {str(pid): row for pid, row in pid_rows},
        "cache": cache,
        "breakdown": None,
    }


def materialize_cache(compiled, geometry, pass_data, n, firsts, unit):
    """Read one (entries, assoc, offsetting, mechanism) cell off its
    shared pass; the utlb and intr twins of a geometry share the pass."""
    entries, assoc, offsetting, mechanism = geometry
    hist, setkey_hist, occupancy = pass_data[(entries // assoc, offsetting)]
    index_of = {pid: i for i, pid in enumerate(compiled.pid_order)}
    rows = []
    misses = 0
    accesses = 0
    for pid in compiled.pids:
        i = index_of[pid]
        ni = sum(hist[i][assoc:])
        if mechanism == "intr":
            row = intr_stats_dict(n[i], ni, occupancy[assoc][i], unit)
        else:
            row = pid_stats_dict(n[i], firsts[i], ni, 0, unit)
        rows.append((pid, row))
        misses += ni
        accesses += n[i]
    occupied = sum(
        (assoc if j > assoc else j) * count for j, count in enumerate(setkey_hist)
    )
    evictions = misses - occupied
    return node_dict(rows, cache_dict(accesses, misses, evictions, 0))
