"""The multi-tenant zipfian KV/RPC workload (datacenter regime)."""

import os
import pickle
import platform
import random
import tracemalloc
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.errors import ConfigError
from repro.sim import runner as runner_module
from repro.traces.compile import compile_in_chunks, compile_streams
from repro.traces.merge import split_by_pid
from repro.traces.record import count_lookups
from repro.traces.synth import APPS, WORKLOADS, make_workload
from repro.traces.synth import zipf as zipf_module
from repro.traces.synth import zipf_sampler
from repro.traces.synth.base import DATA_BASE, StreamingNodeTrace
from repro.traces.synth.zipf import ZipfKVWorkload
from tests.traces.zipf_oracle import page_streams as oracle_page_streams

#: Small instance most tests share: a few thousand records, generated in
#: milliseconds, still plural in tenants/variants/processes.
SMALL = dict(tenants=40, server_processes=4, pages_per_tenant=16,
             lookups_per_process=500, skew_variants=8)


def small(**overrides):
    knobs = dict(SMALL)
    knobs.update(overrides)
    return ZipfKVWorkload(**knobs)


class TestRegistry:
    def test_workloads_extend_apps(self):
        assert set(APPS) < set(WORKLOADS)
        assert "zipf-kv" in WORKLOADS

    def test_make_workload_by_name(self):
        workload = make_workload("zipf-kv")
        assert isinstance(workload, ZipfKVWorkload)
        assert workload.name == "zipf-kv"

    def test_make_workload_covers_splash_apps(self):
        assert make_workload("fft").name == "fft"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            make_workload("memcached")


class TestValidation:
    @pytest.mark.parametrize("knobs", [
        dict(tenants=0),
        dict(server_processes=0),
        dict(server_processes=params.MAX_PROCESSES_PER_NIC + 1),
        dict(pages_per_tenant=0),
        dict(lookups_per_process=0),
        dict(tenant_exponent=0.0),
        dict(page_exponent=-1.0),
        dict(skew_spread=-0.1),
        dict(skew_spread=2.0),
        dict(skew_variants=0),
        dict(shared_pages=-1),
        dict(shared_fraction=1.0),
    ])
    def test_bad_knobs_rejected(self, knobs):
        with pytest.raises(ConfigError):
            small(**knobs)

    def test_footprint_must_fit_virtual_address_space(self):
        with pytest.raises(ConfigError):
            ZipfKVWorkload(tenants=20_000_000, pages_per_tenant=64)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ConfigError):
            small().generate_node(0, seed=1, scale=0)


class TestSizing:
    def test_scaled_sizes_scale_tenants_and_lookups(self):
        workload = small()
        assert workload.scaled_sizes(1.0) == (40, 500)
        assert workload.scaled_sizes(0.5) == (20, 250)

    def test_node_lookups_is_processes_times_requests(self):
        workload = small()
        assert workload.node_lookups(1.0) == 4 * 500
        trace = workload.generate_node(0, seed=1)
        assert count_lookups(trace) == workload.node_lookups(1.0)

    def test_footprint_pages_counts_shared_ring(self):
        workload = small(shared_pages=10)
        assert workload.footprint_pages(1.0) == 10 + 40 * 16


class TestStructure:
    def test_deterministic_under_seed(self):
        workload = small()
        assert workload.generate_node(0, seed=5) == \
            workload.generate_node(0, seed=5)

    def test_seed_changes_trace(self):
        workload = small()
        assert workload.generate_node(0, seed=5) != \
            workload.generate_node(0, seed=6)

    def test_streaming_matches_eager(self):
        workload = small()
        assert list(workload.iter_node(0, seed=3)) == \
            workload.generate_node(0, seed=3)

    def test_timestamps_sorted(self):
        trace = small().generate_node(0, seed=1)
        assert all(trace[i].timestamp <= trace[i + 1].timestamp
                   for i in range(len(trace) - 1))

    def test_page_sized_sends(self):
        trace = small().generate_node(0, seed=1)
        assert all(r.nbytes == params.PAGE_SIZE for r in trace)
        assert all(r.op == "send" for r in trace)

    def test_pids_use_the_nic_tag_space(self):
        workload = small()
        pids0 = set(split_by_pid(workload.generate_node(0, seed=1)))
        pids1 = set(split_by_pid(workload.generate_node(1, seed=1)))
        assert pids0 == set(range(4))
        assert pids1 == {params.MAX_PROCESSES_PER_NIC + i
                         for i in range(4)}
        assert not pids0 & pids1

    def test_cluster_generation_distinct_nodes(self):
        traces = small().generate_cluster(nodes=2, seed=1)
        assert set(traces) == {0, 1}

    def test_addresses_stay_inside_the_footprint(self):
        workload = small()
        top = DATA_BASE + workload.footprint_pages() * params.PAGE_SIZE
        trace = workload.generate_node(0, seed=1)
        assert all(DATA_BASE <= r.vaddr < top for r in trace)


class TestSkewKnobs:
    def test_variants_spread_the_page_exponent(self):
        workload = small(skew_variants=8, skew_spread=0.5)
        exponents = {workload.tenant_page_exponent(t) for t in range(40)}
        assert len(exponents) == 8
        lo, hi = min(exponents), max(exponents)
        assert lo == pytest.approx(workload.page_exponent * 0.75)
        assert hi == pytest.approx(workload.page_exponent * 1.25)

    def test_zero_spread_means_uniform_exponent(self):
        workload = small(skew_spread=0.0)
        assert {workload.tenant_page_exponent(t) for t in range(40)} == \
            {workload.page_exponent}

    def test_traffic_is_tenant_skewed(self):
        """Zipf tenant popularity: the busiest tenant sees many times a
        uniform share of requests."""
        workload = small(shared_fraction=0.0, tenant_exponent=1.1)
        trace = workload.generate_node(0, seed=1)
        per_tenant = {}
        ppt = workload.pages_per_tenant
        for record in trace:
            page = (record.vaddr - DATA_BASE) // params.PAGE_SIZE
            tenant = (page - workload.shared_pages) // ppt
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        uniform = len(trace) / workload.tenants
        assert max(per_tenant.values()) > 4 * uniform

    def test_hot_pages_rotate_across_tenants(self):
        offsets = {small()._tenant_offset(t) for t in range(40)}
        assert len(offsets) > 1

    def test_shared_ring_takes_its_fraction(self):
        workload = small(shared_pages=8, shared_fraction=0.5)
        trace = workload.generate_node(0, seed=1)
        boundary = DATA_BASE + 8 * params.PAGE_SIZE
        shared = sum(1 for r in trace if r.vaddr < boundary)
        assert 0.4 < shared / len(trace) < 0.6


class TestStreamingCarrier:
    def test_streaming_node_is_reiterable(self):
        source = small().streaming_node(0, seed=2)
        assert isinstance(source, StreamingNodeTrace)
        assert list(source) == list(source)

    def test_streaming_node_pickles(self):
        source = small().streaming_node(0, seed=2, scale=0.5)
        clone = pickle.loads(pickle.dumps(source))
        assert list(clone) == list(source)

    def test_streaming_cluster_matches_eager_cluster(self):
        workload = small()
        eager = workload.generate_cluster(nodes=2, seed=1)
        streaming = workload.streaming_cluster(nodes=2, seed=1)
        assert set(streaming) == set(eager)
        for node in eager:
            assert list(streaming[node]) == eager[node]


#: Named in every word-source assertion: the decoding relies on how
#: CPython's ``random`` turns Mersenne Twister words into draws.
VERSIONS = "Python %s, numpy %s" % (platform.python_version(),
                                    numpy.__version__)


class TestWordSource:
    """The sampler's raw words are the process RNG's own draws."""

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_words_reproduce_getrandbits(self, bits):
        ours, theirs = random.Random(bits), random.Random(bits)
        words = zipf_sampler._draw_words(ours, 300)
        assert words.dtype == numpy.uint32
        assert (words >> (32 - bits)).tolist() == \
            [theirs.getrandbits(bits) for _ in range(300)], VERSIONS
        assert ours.getstate() == theirs.getstate(), VERSIONS

    def test_word_pairs_reproduce_random(self):
        ours, theirs = random.Random(7), random.Random(7)
        words = zipf_sampler._draw_words(ours, 400)
        pairs = zipf_sampler._pair_randoms(words)
        assert pairs[0::2].tolist() == \
            [theirs.random() for _ in range(200)], VERSIONS

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 40, 64, 65, 1000,
                                       2 ** 31, 2 ** 32 - 1])
    def test_accepted_words_reproduce_randrange(self, width):
        ours, theirs = random.Random(width), random.Random(width)
        words = zipf_sampler._draw_words(ours, 600)
        accepted = words[zipf_sampler._accepted(words, width)]
        values = (accepted >> (32 - width.bit_length())).tolist()
        assert values == [theirs.randrange(width)
                          for _ in range(len(values))], VERSIONS


def sampled(workload, node, seed, scale=1.0):
    """The sampler's streams, iterated and as arrays, checked equal."""
    streams = workload.iter_page_streams(node, seed=seed, scale=scale)
    pairs = [(pid, list(stream)) for pid, stream in streams]
    for (pid, stream), (_, listed) in zip(streams, pairs):
        stamps, pages = stream.arrays()
        assert stamps.dtype == pages.dtype == numpy.uint64
        assert list(zip(stamps.tolist(), pages.tolist())) == listed
    return pairs


class TestSamplerMatchesOracle:
    """The block sampler draws exactly what the per-draw loop drew."""

    @settings(max_examples=60, deadline=None)
    @given(tenants=st.sampled_from([1, 2, 7, 40]),
           processes=st.integers(min_value=1, max_value=3),
           ppt=st.sampled_from([1, 2, 5, 64]),
           lookups=st.integers(min_value=1, max_value=2600),
           tenant_exponent=st.sampled_from([0.5, 1.1]),
           skew_spread=st.sampled_from([0.0, 0.5, 1.9]),
           skew_variants=st.sampled_from([1, 2, 16]),
           shared_pages=st.sampled_from([0, 1, 2, 3, 7, 64]),
           shared_fraction=st.sampled_from([0.0, 0.04, 0.5, 0.95]),
           block_words=st.sampled_from([1, 5, 64, None]),
           node=st.integers(min_value=0, max_value=3),
           seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_identical_to_oracle(self, tenants, processes, ppt, lookups,
                                 tenant_exponent, skew_spread,
                                 skew_variants, shared_pages,
                                 shared_fraction, block_words, node, seed):
        if block_words is not None:
            # Tiny blocks: most requests straddle one, some span many.
            lookups = min(lookups, 60)
        workload = ZipfKVWorkload(
            tenants=tenants, server_processes=processes,
            pages_per_tenant=ppt, lookups_per_process=lookups,
            tenant_exponent=tenant_exponent, skew_spread=skew_spread,
            skew_variants=skew_variants, shared_pages=shared_pages,
            shared_fraction=shared_fraction)
        with mock.patch.object(zipf_sampler, "_BLOCK_WORDS",
                               block_words or zipf_sampler._BLOCK_WORDS):
            got = sampled(workload, node, seed)
        assert got == oracle_page_streams(workload, node, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2, 9173])
    def test_default_workload_across_block_boundaries(self, seed):
        """Scale 0.1: 2500 requests a process, ~19k words, so every
        stream crosses the first block boundary mid-request."""
        workload = make_workload("zipf-kv")
        assert sampled(workload, 1, seed, scale=0.1) == \
            oracle_page_streams(workload, 1, seed=seed, scale=0.1)


def test_ties_resolve_like_the_draw_loop():
    """A draw equal to the shared fraction is not a ring request, and a
    draw landing exactly on a CDF entry picks that entry (bisect_left).
    The tables are planted so the first request ties all three."""
    seed = 4
    rng = random.Random(seed * 2000003 * 37)
    rng.randrange(0, 40)
    check, tenant_draw, rank_draw = rng.random(), rng.random(), rng.random()
    workload = ZipfKVWorkload(tenants=2, server_processes=1,
                              pages_per_tenant=2, lookups_per_process=3,
                              tenant_exponent=1.25, page_exponent=0.75,
                              skew_variants=1, shared_pages=3,
                              shared_fraction=check)
    planted = {(2, 1.25): [tenant_draw, 1.0], (2, 0.75): [rank_draw, 1.0]}
    with mock.patch.dict(zipf_module._CDF_CACHE, planted):
        expected = oracle_page_streams(workload, 0, seed=seed)
        assert sampled(workload, 0, seed) == expected
    first_page = expected[0][1][0][1] - (DATA_BASE >> params.PAGE_SHIFT)
    assert first_page == 3 + workload._tenant_offset(0) % 2


def compiled_fields(compiled):
    return (compiled.pids,
            {pid: stream.tobytes()
             for pid, stream in compiled.streams.items()},
            compiled.pid_order,
            compiled.index_stream.tobytes(),
            compiled.page_stream.tobytes(),
            compiled.total_pages)


@pytest.mark.parametrize("scale", [0.02, 1.5, 10.0])
def test_streaming_compile_equals_record_compile(scale):
    """``compile_streams`` takes the sampler's arrays; compiling the
    merged records of the same source must give the same bytes."""
    source = make_workload("zipf-kv").streaming_node(0, seed=1, scale=scale)
    assert compiled_fields(compile_streams(source)) == \
        compiled_fields(compile_in_chunks(iter(source)))


class TestLaziness:
    def test_building_streams_draws_nothing(self):
        """The parallel compile builds the stream list once to count it
        and again per job: building it must not run the sampler."""
        draws = []

        def counting(rng, count):
            draws.append(count)
            return draw_words(rng, count)

        draw_words = zipf_sampler._draw_words
        workload = small()
        with mock.patch.object(zipf_sampler, "_draw_words", counting):
            streams = workload.iter_page_streams(0, seed=1)
            workload.iter_processes(0, seed=1)
            workload.streaming_node(0, seed=1)
            assert draws == []
            next(iter(streams[0][1]))
        assert draws


def test_sampler_files_are_in_the_synth_digest():
    """Editing the sampler must re-key every synthetic trace."""
    digested = {os.path.realpath(path)
                for path in runner_module._synth_files()}
    for module in (zipf_module, zipf_sampler):
        assert os.path.realpath(module.__file__) in digested


def _sampling_peak(lookups):
    """tracemalloc peak of one process's ``arrays()``, with its output."""
    workload = ZipfKVWorkload(tenants=1500, lookups_per_process=lookups)
    (_, stream), = workload.iter_page_streams(0, seed=1)[:1]
    stream.arrays()  # CDF tables are cached per workload shape
    tracemalloc.start()
    try:
        stamps, pages = stream.arrays()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, stamps.nbytes + pages.nbytes


def test_sampler_memory_is_per_block():
    """One zipf-sweep process (37.5k requests, ~280k words): the peak is
    its two output arrays plus one block's transients, which do not grow
    with the words drawn."""
    peak, output = _sampling_peak(37_500)
    assert peak <= 3 * output
    long_peak, long_output = _sampling_peak(4 * 37_500)
    assert long_peak - long_output <= 1.1 * (peak - output)
