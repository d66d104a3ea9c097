"""The per-draw zipf-kv sampler, kept as a test oracle.

This is ``ZipfKVWorkload``'s original process generator: one Python
loop of ``random()``/``randrange`` draws and ``bisect`` lookups per
request, timestamps walked one gap at a time.  The workload now draws
the same Mersenne Twister words in blocks and decodes them with numpy;
the tests hold the two to identical ``(timestamp, page)`` streams.
"""

import random
from bisect import bisect_left

from repro import params
from repro.traces.synth.base import DATA_BASE, MEAN_GAP_US
from repro.traces.synth.zipf import _zipf_cdf


def process_pages(self, rng, tenants, lookups):
    """One server process: lazy zipf-over-zipf ``(timestamp, page)``
    draws (pages absolute, offset to the SPMD data region)."""
    tenant_cdf = _zipf_cdf(tenants, self.tenant_exponent)
    tenant_total = tenant_cdf[-1]
    base_page = DATA_BASE >> params.PAGE_SHIFT
    ppt = self.pages_per_tenant
    shared = self.shared_pages
    shared_fraction = self.shared_fraction
    random_draw = rng.random
    randrange = rng.randrange
    gap_lo = MEAN_GAP_US // 2
    gap_hi = MEAN_GAP_US + MEAN_GAP_US // 2
    timestamp = randrange(0, MEAN_GAP_US)
    for _ in range(lookups):
        if shared and random_draw() < shared_fraction:
            page = randrange(shared)
        else:
            tenant = bisect_left(tenant_cdf,
                                 random_draw() * tenant_total)
            page_cdf = _zipf_cdf(ppt,
                                 self.tenant_page_exponent(tenant))
            rank = bisect_left(page_cdf, random_draw() * page_cdf[-1])
            page = (shared + tenant * ppt
                    + (self._tenant_offset(tenant) + rank) % ppt)
        yield timestamp, base_page + page
        timestamp += randrange(gap_lo, gap_hi)


def page_streams(workload, node=0, seed=0, scale=1.0):
    """``iter_page_streams`` as the oracle draws it: ``(pid, list of
    (timestamp, page))`` per server process, same RNG seeding."""
    tenants, lookups = workload.scaled_sizes(scale)
    streams = []
    for local_index in range(workload.server_processes):
        pid = node * params.MAX_PROCESSES_PER_NIC + local_index
        rng = random.Random((seed * 2000003 + node) * 37 + local_index)
        streams.append((pid, list(process_pages(workload, rng, tenants,
                                                lookups))))
    return streams
