"""The fast replay engine must be byte-identical to the reference engine.

The fast engine (compiled page streams + counter-only hot path) is an
optimization, not a model change: for every configuration the paper's
evaluation uses — policies, pinning limits, prefetch/prepin degrees,
associativity, offsetting, the 3C classifier — ``NodeResult.to_dict()``
must match the record-at-a-time reference engine exactly, float bits
included.  These tests enforce that, plus the coherence of the NIC-cache
shadow dicts the hot path probes.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import params
from repro.core.shared_cache import ShadowedUtlbCache
from repro.errors import ConfigError
from repro.sim.config import ENGINES, SimConfig
from repro.sim.intr_simulator import simulate_node_intr
from repro.sim.simulator import simulate_node
from repro.traces.compile import compile_streams
from repro.traces.record import OP_SEND, TraceRecord
from repro.traces.synth import make_app


def random_trace(seed, num_pids, num_pages, length):
    rng = random.Random(seed)
    return [TraceRecord(timestamp=index, node=0,
                        pid=rng.randrange(num_pids), op=OP_SEND,
                        vaddr=0x10000000 + rng.randrange(num_pages)
                        * params.PAGE_SIZE,
                        nbytes=rng.choice((1, 2, 3)) * params.PAGE_SIZE)
            for index in range(length)]


def result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_engines_agree(records, **config_kwargs):
    fast = SimConfig(engine="fast", **config_kwargs)
    ref = SimConfig(engine="reference", **config_kwargs)
    assert result_json(simulate_node(records, fast, check_invariants=True)) \
        == result_json(simulate_node(records, ref, check_invariants=True))
    assert result_json(simulate_node_intr(records, fast,
                                          check_invariants=True)) \
        == result_json(simulate_node_intr(records, ref,
                                          check_invariants=True))


#: One configuration per evaluated dimension of Tables 4-8 / Figures 7-8.
TABLE_CONFIGS = {
    "table4-defaults": dict(cache_entries=256),
    "table5-memory-limit": dict(cache_entries=256,
                                memory_limit_bytes=64 * params.PAGE_SIZE),
    "table6-small-cache": dict(cache_entries=64),
    "table7-prepinning": dict(prepin=4, cache_entries=256,
                              memory_limit_bytes=64 * params.PAGE_SIZE),
    "table8-associativity": dict(cache_entries=256, associativity=4),
    "fig7-classify": dict(cache_entries=64, classify=True),
    "fig8-prefetch": dict(cache_entries=256, prefetch=8),
    "no-offsetting": dict(cache_entries=256, offsetting=False),
    "mru-policy": dict(cache_entries=128, pin_policy="mru",
                       memory_limit_bytes=32 * params.PAGE_SIZE),
    "random-policy": dict(cache_entries=128, pin_policy="random",
                          memory_limit_bytes=32 * params.PAGE_SIZE),
}


class TestDifferentialOnAppTraces:
    @pytest.mark.parametrize("label", sorted(TABLE_CONFIGS))
    @pytest.mark.parametrize("app", ["barnes", "radix"])
    def test_engines_agree(self, app, label):
        records = make_app(app).generate_node(0, seed=3, scale=0.05)
        assert_engines_agree(records, **TABLE_CONFIGS[label])


class TestDifferentialProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           num_pids=st.integers(min_value=1, max_value=5),
           num_pages=st.integers(min_value=1, max_value=150),
           length=st.integers(min_value=0, max_value=250),
           entries=st.sampled_from([16, 64, 256]),
           associativity=st.sampled_from([1, 2, 4]),
           offsetting=st.booleans(),
           prefetch=st.sampled_from([1, 4]),
           prepin=st.sampled_from([1, 3]),
           pin_policy=st.sampled_from(["lru", "mru", "lfu", "mfu", "random"]),
           limit_pages=st.sampled_from([None, 24, 64]),
           classify=st.booleans())
    def test_fast_equals_reference(self, seed, num_pids, num_pages, length,
                                   entries, associativity, offsetting,
                                   prefetch, prepin, pin_policy, limit_pages,
                                   classify):
        records = random_trace(seed, num_pids, num_pages, length)
        limit = (None if limit_pages is None
                 else limit_pages * params.PAGE_SIZE)
        assert_engines_agree(
            records, cache_entries=entries, associativity=associativity,
            offsetting=offsetting, prefetch=prefetch, prepin=prepin,
            pin_policy=pin_policy, memory_limit_bytes=limit,
            classify=classify)


class TestPrecompiledStreams:
    def test_compiled_argument_matches_inline_compilation(self):
        records = make_app("fft").generate_node(0, seed=2, scale=0.05)
        config = SimConfig(cache_entries=256)
        compiled = compile_streams(records)
        assert result_json(simulate_node(records, config,
                                         compiled=compiled)) \
            == result_json(simulate_node(records, config))
        assert result_json(simulate_node_intr(records, config,
                                              compiled=compiled)) \
            == result_json(simulate_node_intr(records, config))


def shadow_is_coherent(cache):
    """The shadow of every pid is exactly its cached translations."""
    real = {pid: {} for pid in cache.shadow}
    for (pid, vpage), frame in cache._cache.items():
        real.setdefault(pid, {})[vpage] = frame
    return cache.shadow == real


class TestShadowCoherence:
    def make_cache(self, entries=4, pids=(1, 2)):
        cache = ShadowedUtlbCache(entries, associativity=1, offsetting=False)
        for pid in pids:
            cache.register_process(pid)
        return cache

    def test_fill_mirrors_into_shadow(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        assert cache.shadow[1] == {0x10: 7}
        assert shadow_is_coherent(cache)

    def test_eviction_removes_victim_from_shadow(self):
        cache = self.make_cache(entries=4)
        cache.fill(1, 0x10, 7)
        cache.fill(2, 0x14, 9)     # same set (index 0x14 % 4 == 0x10 % 4)
        assert 0x10 not in cache.shadow[1]
        assert cache.shadow[2] == {0x14: 9}
        assert shadow_is_coherent(cache)

    def test_payload_update_keeps_single_entry(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        cache.fill(1, 0x10, 8)
        assert cache.shadow[1] == {0x10: 8}
        assert shadow_is_coherent(cache)

    def test_invalidate_removes_from_shadow(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        assert cache.invalidate(1, 0x10)
        assert cache.shadow[1] == {}
        assert shadow_is_coherent(cache)

    def test_invalidate_absent_leaves_shadow_alone(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        assert not cache.invalidate(1, 0x11)
        assert cache.shadow[1] == {0x10: 7}
        assert shadow_is_coherent(cache)

    def test_invalidate_process_clears_only_that_pid(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        cache.fill(2, 0x11, 9)
        cache.invalidate_process(1)
        assert cache.shadow[1] == {}
        assert cache.shadow[2] == {0x11: 9}
        assert shadow_is_coherent(cache)

    def test_shadow_dict_object_is_stable(self):
        """Hot loops bind shadow[pid] once; mutations must happen in
        place, never by rebinding."""
        cache = self.make_cache()
        bound = cache.shadow[1]
        cache.fill(1, 0x10, 7)
        cache.invalidate_process(1)
        cache.fill(1, 0x11, 8)
        assert cache.shadow[1] is bound
        assert bound == {0x11: 8}

    def test_fill_block_mirrors_valid_entries(self):
        cache = self.make_cache()
        cache.fill_block(1, [(0x10, 7), (0x11, None), (0x12, 9)])
        assert cache.shadow[1] == {0x10: 7, 0x12: 9}
        assert shadow_is_coherent(cache)

    def test_credit_shadow_hits_matches_per_lookup_counters(self):
        cache = self.make_cache()
        cache.fill(1, 0x10, 7)
        cache.credit_shadow_hits(5)
        assert cache.stats.accesses == 5
        assert cache.stats.hits == 5
        assert cache.stats.misses == 0


class TestEngineKnob:
    def test_engines_constant(self):
        assert ENGINES == ("fast", "reference")

    def test_retired_kernel_engine_rejected(self):
        # The per-cell kernel tier is gone; the analytic planner solves
        # single eligible cells under the default engine.
        retired = "kernel"
        with pytest.raises(ConfigError, match="'kernel'"):
            SimConfig(engine=retired)

    def test_default_is_fast(self):
        assert SimConfig().engine == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(engine="warp")

    def test_replace_switches_engine_only(self):
        config = SimConfig(cache_entries=64)
        other = config.replace(engine="reference")
        assert other.engine == "reference"
        assert other.cache_entries == 64

    def test_engine_in_dict_and_describe(self):
        config = SimConfig(engine="reference")
        assert config.to_dict()["engine"] == "reference"
        assert "engine=reference" in config.describe()
