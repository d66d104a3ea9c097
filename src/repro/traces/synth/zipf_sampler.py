"""The zipf-kv sampler: a process's request stream decoded in blocks.

:class:`~repro.traces.synth.zipf.ZipfKVWorkload` defines each server
process's stream by a per-draw loop on the process's own
``random.Random``: a ``random()`` shared-ring check, a ``randrange``
ring page or a ``random()`` tenant and rank (``bisect_left`` over the
zipf CDFs), a ``randrange`` gap.  Every draw feeds the next, so the loop
cannot be vectorized as written; but every draw is a pure function of
the generator's raw 32-bit Mersenne Twister words.  :func:`sample_blocks`
draws those words a block at a time (``getrandbits``, from the process's
own generator), decodes every draw and every request boundary in numpy,
and walks the chain of request starts with one cheap step per request.
The stream is byte-identical to the loop's; the tests keep the loop as
their oracle.

Imported on first use (the workload registry does not pay for it), like
numpy.  It lives under ``repro/traces/synth/``, so the generator-source
digest that keys synthetic traces covers it.
"""

from array import array
import random

import numpy

from repro import params
from repro.traces.synth.base import DATA_BASE, MEAN_GAP_US
from repro.traces.synth.zipf import _TENANT_MIX, _zipf_cdf

#: Mersenne Twister words drawn per block: the sampler's transient
#: memory is a few arrays of this length, whatever the stream's length.
_BLOCK_WORDS = 1 << 14


def _draw_words(rng, count):
    """The next ``count`` 32-bit outputs of ``rng``'s Mersenne Twister,
    in draw order, as uint32.

    ``getrandbits(32 * count)`` fills its result one generator output
    per 32-bit word, least significant word first, so its little-endian
    bytes are the outputs in order, and ``rng`` advances exactly as
    ``count`` single-word draws would advance it.
    """
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return numpy.frombuffer(raw, dtype="<u4").astype(numpy.uint32,
                                                      copy=False)


def _pair_randoms(words):
    """``random()`` as drawn at every word position: entry ``i`` is
    CPython's ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over words ``i``
    and ``i + 1``, exact in float64 and so bit-identical."""
    value = (words[:-1] >> 5).astype(numpy.float64)
    value *= 67108864.0
    value += words[1:] >> 6
    value *= 1.0 / 9007199254740992.0
    return value


def _accepted(words, width):
    """Which words ``_randbelow(width)`` accepts: with ``k =
    width.bit_length()`` it takes ``w >> (32 - k)`` one word at a time
    until that is below ``width`` (``randrange`` over ``width``
    values)."""
    return (words >> (32 - width.bit_length())) < width


def _first_at_or_after(positions, queries):
    """The first of the sorted ``positions`` at or after each query
    (``positions`` ends in a sentinel no query exceeds)."""
    return positions.take(numpy.searchsorted(positions, queries))


def _request_ends(words, pairs, gap_width, shared, shared_fraction,
                  ring_accepted):
    """For every word position, where a request started there ends.

    A request draws its shared-ring check (two words, only with a
    ring), then the ring's ``randrange`` run (``ring_accepted``: the
    accepted positions, ``len(words)`` appended) or the tenant and rank
    draws (four words), then the gap's ``randrange`` run, whose run
    ends come from a reverse ``minimum.accumulate``.  One entry more
    than ``words``; an end above ``len(words)`` marks a request the
    block cuts off.
    """
    count = len(words)
    position = numpy.arange(count + 1, dtype=numpy.int32)
    gap_end = position + 1
    numpy.putmask(gap_end[:count], ~_accepted(words, gap_width), count + 1)
    gap_end[:count] = numpy.minimum.accumulate(gap_end[count - 1::-1])[::-1]
    if shared:
        ends = position + 6
        ring = numpy.flatnonzero(pairs < shared_fraction)
        ends[ring] = 1 + _first_at_or_after(ring_accepted, ring + 2)
    else:
        ends = position + 4
    numpy.minimum(ends, count, out=ends)
    return gap_end.take(ends)


def _walk(ends, limit):
    """The one sequential step: follow ``ends`` from word 0, one cheap
    step per request.  Returns ``(starts, carry)``: the starts of the
    first ``limit`` requests the block completes, and where the first
    request it cuts off starts (every request before it completes)."""
    count = len(ends) - 1
    links = array("i")
    links.frombytes(ends.view(numpy.uint8))
    chain = array("i")
    append = chain.append
    position = 0
    while position <= count:
        append(position)
        position = links[position]
    chain = numpy.frombuffer(chain, dtype=numpy.int32)
    return chain[:min(len(chain) - 1, limit)], int(chain[-1])


def sample_blocks(workload, rng_seed, tenants, lookups):
    """One server process's stream as ``(timestamps, pages)`` uint64
    chunks, in order (pages absolute, offset to the SPMD data region).

    The process draws on ``random.Random(rng_seed)``.  Its words come
    ``_BLOCK_WORDS`` at a time; for every word position the end of a
    request starting there is computed at once (:func:`_request_ends`),
    and :func:`_walk` follows the chain of request starts.  A request
    the block cuts off is carried, with its words, into the next block,
    so memory is one block plus the chunk it yields, never the stream.
    """
    rng = random.Random(rng_seed)
    timestamp = rng.randrange(0, MEAN_GAP_US)
    base_page = DATA_BASE >> params.PAGE_SHIFT
    ppt = workload.pages_per_tenant
    shared = workload.shared_pages
    shared_fraction = workload.shared_fraction
    gap_lo = MEAN_GAP_US // 2
    gap_hi = MEAN_GAP_US + MEAN_GAP_US // 2
    # randrange(gap_lo, gap_hi) is gap_lo + _randbelow(gap_width).
    gap_width = gap_hi - gap_lo
    gap_shift = 32 - gap_width.bit_length()
    shared_shift = 32 - shared.bit_length()

    tenant_cdf = numpy.array(_zipf_cdf(tenants, workload.tenant_exponent))
    tenant_total = tenant_cdf[-1]
    # tenant * _TENANT_MIX < 2**52: the footprint check bounds tenants.
    mixed = numpy.arange(tenants, dtype=numpy.int64) * _TENANT_MIX
    offsets = mixed % ppt
    if workload.skew_variants == 1 or workload.skew_spread == 0.0:
        exponents = [workload.page_exponent]
        rows = numpy.zeros(tenants, dtype=numpy.int64)
    else:
        present, rows = numpy.unique(mixed % workload.skew_variants,
                                     return_inverse=True)
        exponents = [workload._variant_exponent(int(v)) for v in present]
    del mixed
    # The rank draw is bisect_left over the tenant's variant CDF.  One
    # searchsorted answers every variant at once: complex numbers order
    # by real part (the variant row), then imaginary part (the CDF
    # value), exactly.
    page_table = numpy.empty(len(exponents) * ppt, dtype=numpy.complex128)
    page_table.real = numpy.repeat(numpy.arange(len(exponents)), ppt)
    page_table.imag = numpy.concatenate(
        [_zipf_cdf(ppt, exponent) for exponent in exponents])
    page_totals = page_table.imag[ppt - 1::ppt].copy()

    carry = numpy.empty(0, dtype=numpy.uint32)
    remaining = lookups
    while remaining:
        # A request takes under 8 words on average (a rejection run
        # over n values takes 2**bit_length(n) / n < 2): the last block
        # draws little more than it needs.
        fresh = _draw_words(rng, min(_BLOCK_WORDS, 8 * remaining + 64))
        words = numpy.concatenate((carry, fresh)) if len(carry) else fresh
        del fresh
        pairs = _pair_randoms(words)
        ring_accepted = (numpy.append(numpy.flatnonzero(
            _accepted(words, shared)), len(words)) if shared else None)
        ends = _request_ends(words, pairs, gap_width, shared,
                             shared_fraction, ring_accepted)
        start, position = _walk(ends, remaining)
        carry = words[position:].copy()
        if not len(start):
            continue
        remaining -= len(start)

        gaps = (words.take(ends.take(start) - 1) >> gap_shift).astype(
            numpy.uint64)
        gaps += gap_lo
        stamps = numpy.empty(len(start), dtype=numpy.uint64)
        stamps[0] = 0
        numpy.cumsum(gaps[:-1], out=stamps[1:])
        stamps += timestamp
        timestamp = int(stamps[-1]) + int(gaps[-1])
        del gaps, ends

        if shared:
            took_shared = pairs.take(start) < shared_fraction
            own = start[~took_shared] + 2
        else:
            own = start
        tenant = numpy.searchsorted(tenant_cdf,
                                    pairs.take(own) * tenant_total,
                                    side="left")
        row = rows.take(tenant)
        query = numpy.empty(len(own), dtype=numpy.complex128)
        query.real = row
        query.imag = pairs.take(own + 2) * page_totals.take(row)
        page = numpy.searchsorted(page_table, query, side="left")
        page -= row * ppt
        page += offsets.take(tenant)
        page %= ppt
        page += tenant * ppt
        page += base_page + shared
        if shared:
            pages = numpy.empty(len(start), dtype=numpy.uint64)
            pages[~took_shared] = page
            ring = _first_at_or_after(ring_accepted,
                                      start[took_shared] + 2)
            pages[took_shared] = base_page + (words.take(ring)
                                              >> shared_shift)
        else:
            pages = page.astype(numpy.uint64)
        # A suspended sampler (one per process in the lazy record merge)
        # keeps only its chunk and its carry.
        del words, pairs, ring_accepted, start
        yield stamps, pages
