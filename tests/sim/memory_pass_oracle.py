"""The per-access memory-axis pass, kept as a test oracle.

This is the analytic solver's original memory pass: one pure-Python
loop over the merged trace that tracks every pid's LRU stack, every NIC
set's last accessor, and the ``K'`` snapshot of each open interval's
first conflict as it goes.  The solver now answers the same questions
with numpy set analysis plus a per-process stack loop; the tests hold
the two to an identical result dict.
"""

from bisect import bisect_left

from repro.sim.kernels import key_shift as _key_shift
from repro.sim.kernels import pid_offsets as _pid_offsets


def memory_pass(compiled, num_sets, offsetting, lcap):
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
