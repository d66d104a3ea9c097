"""Simulation configuration."""

import pytest

from repro.errors import ConfigError
from repro.sim.config import SimConfig


class TestDefaults:
    def test_headline_configuration(self):
        config = SimConfig()
        assert config.cache_entries == 8192
        assert config.associativity == 1
        assert config.offsetting
        assert config.prefetch == 1
        assert config.prepin == 1
        assert config.memory_limit_pages is None
        assert config.pin_policy == "lru"


class TestValidation:
    def test_bad_cache_entries(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_entries=0)

    def test_indivisible_associativity(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_entries=10, associativity=4)

    def test_bad_prefetch(self):
        with pytest.raises(ConfigError):
            SimConfig(prefetch=0)

    def test_bad_memory_limit(self):
        with pytest.raises(ConfigError):
            SimConfig(memory_limit_bytes=-1)

    def test_unknown_pin_policy_fails_at_construction(self):
        # Eagerly, naming the bad value and the valid choices — not a
        # KeyError thousands of lookups into a replay when the first
        # limit eviction finally asks the policy factory.
        with pytest.raises(ConfigError) as excinfo:
            SimConfig(pin_policy="fifo")
        message = str(excinfo.value)
        assert "'fifo'" in message
        for name in ("lru", "mru", "lfu", "mfu", "random"):
            assert name in message

    def test_pin_policy_instances_pass_through(self):
        # examples/custom_replacement_policy.py injects policy
        # *instances*; only string names are validated.
        class Custom:
            pass

        instance = Custom()
        assert SimConfig(pin_policy=instance).pin_policy is instance


class TestDerived:
    def test_memory_limit_pages(self):
        config = SimConfig(memory_limit_bytes=4 * 1024 * 1024)
        assert config.memory_limit_pages == 1024

    def test_replace_overrides_one_field(self):
        base = SimConfig()
        changed = base.replace(cache_entries=1024)
        assert changed.cache_entries == 1024
        assert changed.prefetch == base.prefetch
        assert base.cache_entries == 8192       # original untouched

    def test_describe_mentions_key_fields(self):
        text = SimConfig(memory_limit_bytes=4 * 1024 * 1024).describe()
        assert "4MB" in text and "cache=8192" in text

    def test_describe_shows_classify(self):
        # Classified cells replay (the solver has no 3C model), so the
        # label must tell them apart from the plain cells of a sweep.
        assert "classify" not in SimConfig().describe()
        assert SimConfig(classify=True).describe().endswith(" classify")
