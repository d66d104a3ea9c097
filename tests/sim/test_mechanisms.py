"""The mechanism registry and the three modern translation designs.

The registry (``repro.sim.mechanisms``) replaced the scattered
``"utlb"``/``"intr"`` string dispatch: everything — ``SimConfig``, the
sweep runner, the analytic solver, the CLI — resolves mechanism names
through one ordered table.  These tests pin the registry contract
(unknown names fail eagerly with the choices listed, instances pass
through, eligibility predicates gate the fast paths) and hold the three
new designs — Victima-style pressure, Utopia-style hybrid placement,
SPARTA-style range segments — to the same differential and parity gates
as the paper's mechanisms.
"""

import json

import pytest

from repro import params
from repro.core.costs import DEFAULT_COST_MODEL, CostModel
from repro.core.sparta import SpartaRangeCache
from repro.core.utopia import UtopiaCache
from repro.core.victima import VictimaCache
from repro.errors import ConfigError
from repro.sim import mechanisms
from repro.sim.config import SimConfig
from repro.sim.mechanisms import (
    Mechanism,
    lookup,
    mechanism_names,
    resolve,
)
from repro.sim.runner import MECHANISMS, SweepCell, SweepRunner
from repro.traces.synth import make_app

ALL_NAMES = ("utlb", "intr", "pp", "victima", "utopia", "sparta-range")
NEW_NAMES = ("victima", "utopia", "sparta-range")


def app_records(name="fft", seed=3, scale=0.05):
    return make_app(name).generate_node(0, seed=seed, scale=scale)


def result_json(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# The registry contract
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_registration_order(self):
        assert mechanism_names() == ALL_NAMES
        assert MECHANISMS == ALL_NAMES

    def test_resolve_known_names(self):
        for name in ALL_NAMES:
            assert resolve(name).name == name

    def test_resolve_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as err:
            resolve("magic")
        assert "magic" in str(err.value)
        for name in ALL_NAMES:
            assert name in str(err.value)

    def test_resolve_passes_instances_through(self):
        mech = Mechanism("adhoc", simulate=lambda *a, **k: None)
        assert resolve(mech) is mech

    def test_lookup_is_total(self):
        assert lookup("nonsense") is None
        assert lookup("utlb") is resolve("utlb")
        mech = Mechanism("adhoc", simulate=lambda *a, **k: None)
        assert lookup(mech) is mech

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            mechanisms.register(
                Mechanism("utlb", simulate=lambda *a, **k: None))

    def test_every_mechanism_has_a_description(self):
        for name in ALL_NAMES:
            assert resolve(name).description

    def test_streams_eligibility_gated_on_engine(self):
        fast = SimConfig(engine="fast")
        ref = SimConfig(engine="reference")
        for name in ("utlb",) + NEW_NAMES:
            assert resolve(name).streams_eligible(fast)
            assert not resolve(name).streams_eligible(ref)

    def test_pp_has_no_fast_paths(self):
        config = SimConfig(mechanism="pp")
        assert not resolve("pp").streams_eligible(config)
        assert not resolve("pp").analytic_eligible(config)

    def test_analytic_is_utlb_and_unlimited_intr(self):
        config = SimConfig()
        assert resolve("utlb").analytic_eligible(config)
        intr = config.replace(mechanism="intr")
        assert resolve("intr").analytic_eligible(intr)
        # Pinning-limited intr unpins FIFO: not a stack algorithm.
        assert not resolve("intr").analytic_eligible(
            intr.replace(memory_limit_bytes=64 * 4096))
        for name in NEW_NAMES:
            assert not resolve(name).analytic_eligible(
                config.replace(mechanism=name))


# ---------------------------------------------------------------------------
# SimConfig integration: eager validation, default cost models
# ---------------------------------------------------------------------------

class TestConfigIntegration:
    def test_default_mechanism_is_utlb(self):
        config = SimConfig()
        assert config.mechanism == "utlb"
        assert config.to_dict()["mechanism"] == "utlb"

    def test_unknown_mechanism_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            SimConfig(mechanism="magic")

    def test_describe_names_non_default_mechanisms(self):
        assert "mech=" not in SimConfig().describe()
        assert "mech=victima" in SimConfig(mechanism="victima").describe()

    def test_default_cost_models_per_mechanism(self):
        assert SimConfig().cost_model is DEFAULT_COST_MODEL
        assert SimConfig(mechanism="victima").cost_model.ni_check_hit \
            == mechanisms.VICTIMA_COST_MODEL.ni_check_hit
        assert SimConfig(mechanism="utopia").cost_model.ni_check_hit \
            == mechanisms.UTOPIA_COST_MODEL.ni_check_hit
        assert SimConfig(mechanism="sparta-range").cost_model.ni_check_hit \
            == mechanisms.SPARTA_COST_MODEL.ni_check_hit

    def test_replace_rederives_defaulted_cost_model(self):
        config = SimConfig()
        swapped = config.replace(mechanism="utopia")
        assert swapped.cost_model.ni_check_hit \
            == mechanisms.UTOPIA_COST_MODEL.ni_check_hit

    def test_replace_keeps_explicit_cost_model(self):
        explicit = CostModel(ni_check_hit=9.9)
        config = SimConfig(cost_model=explicit)
        swapped = config.replace(mechanism="utopia")
        assert swapped.cost_model.ni_check_hit == 9.9

    def test_intr_fast_rejects_associativity(self):
        with pytest.raises(ConfigError):
            SimConfig(mechanism="intr", associativity=4, cache_entries=256)
        # The reference engine honours it.
        config = SimConfig(mechanism="intr", associativity=4,
                           cache_entries=256, engine="reference")
        assert config.associativity == 4

    def test_sparta_rejects_associativity(self):
        with pytest.raises(ConfigError):
            SimConfig(mechanism="sparta-range", associativity=2,
                      cache_entries=256)

    def test_utopia_needs_a_splittable_budget(self):
        with pytest.raises(ConfigError):
            SimConfig(mechanism="utopia", cache_entries=1)
        with pytest.raises(ConfigError):
            # flexible half = 3 entries, not divisible by 2 ways
            SimConfig(mechanism="utopia", cache_entries=6, associativity=2)

    @pytest.mark.parametrize("name", NEW_NAMES)
    def test_new_mechanisms_reject_classify(self, name):
        with pytest.raises(ConfigError):
            SimConfig(mechanism=name, classify=True, engine="reference")

    def test_sweep_cell_syncs_config_mechanism(self):
        config = SimConfig(cache_entries=64)
        cell = SweepCell(("x",), [], config, "victima")
        assert cell.config.mechanism == "victima"
        assert cell.config.cost_model.ni_check_hit \
            == mechanisms.VICTIMA_COST_MODEL.ni_check_hit

    def test_sweep_cell_rejects_unknown_mechanism(self):
        with pytest.raises(ConfigError):
            SweepCell(("x",), [], SimConfig(), "magic")


# ---------------------------------------------------------------------------
# Differential gates: fast == reference for the three new designs
# ---------------------------------------------------------------------------

MECH_CONFIGS = {
    "defaults": dict(cache_entries=256),
    "small-cache": dict(cache_entries=32),
    "memory-limit": dict(cache_entries=256,
                         memory_limit_bytes=64 * params.PAGE_SIZE),
    "prefetch-prepin": dict(cache_entries=256, prefetch=4, prepin=4),
    "nohash": dict(cache_entries=256, offsetting=False),
}


class TestDifferential:
    @pytest.mark.parametrize("label", sorted(MECH_CONFIGS))
    @pytest.mark.parametrize("name", NEW_NAMES)
    def test_fast_equals_reference(self, name, label):
        records = app_records()
        simulate = resolve(name).simulate
        kwargs = dict(MECH_CONFIGS[label], mechanism=name)
        fast = simulate(records, SimConfig(engine="fast", **kwargs),
                        check_invariants=True)
        ref = simulate(records, SimConfig(engine="reference", **kwargs),
                       check_invariants=True)
        assert result_json(fast) == result_json(ref)

    @pytest.mark.parametrize("name", NEW_NAMES)
    def test_serial_equals_parallel(self, name):
        records = app_records(scale=0.03)
        traces = {0: records}
        config = SimConfig(cache_entries=64, mechanism=name)
        cells = [SweepCell((name,), traces, config)]
        serial = SweepRunner(workers=1).run_cells(cells)
        parallel = SweepRunner(workers=2).run_cells(cells)
        assert result_json(serial[0]) == result_json(parallel[0])


# ---------------------------------------------------------------------------
# Cache-model behaviour units
# ---------------------------------------------------------------------------

class TestVictimaCache:
    def make(self, entries=16, period=4):
        cache = VictimaCache(entries, pressure_period=period)
        cache.register_process(1)
        return cache

    def test_pressure_evicts_translations(self):
        cache = self.make()
        for vpage in range(16):
            cache.fill(1, vpage, vpage + 100)
        for _ in range(16):
            cache.lookup(1, 0)
        assert cache.pressure_evictions > 0
        assert len(cache) < 16

    def test_pressure_counted_as_evictions(self):
        cache = self.make()
        for vpage in range(16):
            cache.fill(1, vpage, vpage + 100)
        before = cache.stats.evictions
        for _ in range(16):
            cache.lookup(1, 0)
        assert cache.stats.evictions - before == cache.pressure_evictions

    def test_pressure_is_deterministic(self):
        def run():
            cache = self.make()
            for vpage in range(16):
                cache.fill(1, vpage, vpage + 100)
            for step in range(64):
                cache.lookup(1, step % 16)
            return (cache.pressure_evictions,
                    sorted(cache.entries_for(1)))
        assert run() == run()

    def test_empty_set_pressure_is_a_noop(self):
        cache = self.make()
        for _ in range(16):
            cache.lookup(1, 0)
        assert cache.pressure_evictions == 0


class TestUtopiaCache:
    def make(self, entries=16):
        cache = UtopiaCache(entries)
        cache.register_process(1)
        return cache

    def test_budget_split(self):
        cache = self.make(16)
        assert cache.restrictive_slots == 8
        assert cache.num_entries == 16

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            UtopiaCache(1)

    def test_restrictive_fill_and_hit(self):
        cache = self.make()
        cache.fill(1, 0x10, 7)
        assert cache.restrictive_fills == 1
        hit, frame = cache.lookup(1, 0x10)
        assert hit and frame == 7
        assert cache.stats.hits == 1

    def test_conflicting_pages_spill_to_flexible(self):
        cache = self.make()
        slots = cache.restrictive_slots
        cache.fill(1, 0x10, 7)
        cache.fill(1, 0x10 + slots, 8)   # same restrictive slot
        assert cache.restrictive_fills == 1
        assert (1, 0x10 + slots) in cache
        hit, frame = cache.lookup(1, 0x10 + slots)
        assert hit and frame == 8

    def test_single_copy_invariant(self):
        cache = self.make()
        slots = cache.restrictive_slots
        cache.fill(1, 0x10, 7)
        cache.fill(1, 0x10 + slots, 8)   # spills
        cache.invalidate(1, 0x10)        # restrictive slot now free
        cache.fill(1, 0x10 + slots, 9)   # refill: must update, not copy
        assert len(cache) == 1
        hit, frame = cache.lookup(1, 0x10 + slots)
        assert hit and frame == 9

    def test_invalidate_finds_either_half(self):
        cache = self.make()
        slots = cache.restrictive_slots
        cache.fill(1, 0x10, 7)           # restrictive
        cache.fill(1, 0x10 + slots, 8)   # flexible
        assert cache.invalidate(1, 0x10)
        assert cache.invalidate(1, 0x10 + slots)
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_invalidate_process_clears_both_halves(self):
        cache = self.make()
        slots = cache.restrictive_slots
        cache.fill(1, 0x10, 7)
        cache.fill(1, 0x10 + slots, 8)
        assert cache.invalidate_process(1) == 2
        assert len(cache) == 0


class TestSpartaRangeCache:
    def make(self, entries=8):
        cache = SpartaRangeCache(entries)
        cache.register_process(1)
        return cache

    def test_rejects_associative_or_classified_geometry(self):
        with pytest.raises(ConfigError):
            SpartaRangeCache(8, associativity=2)
        with pytest.raises(ConfigError):
            SpartaRangeCache(8, classify=True)

    def test_segment_capacity_accounts_entry_cost(self):
        cache = self.make(8)
        assert cache.segment_capacity \
            == 8 // params.SPARTA_RANGE_ENTRY_COST

    def test_contiguous_fills_coalesce(self):
        cache = self.make()
        for vpage in range(6):
            cache.fill(1, vpage, 100 + vpage)
        assert cache.num_segments == 1
        assert len(cache) == 6
        for vpage in range(6):
            hit, frame = cache.lookup(1, vpage)
            assert hit and frame == 100 + vpage

    def test_physically_discontiguous_pages_do_not_coalesce(self):
        cache = self.make()
        cache.fill(1, 0, 100)
        cache.fill(1, 1, 205)            # virtually adjacent, wrong frame
        assert cache.num_segments == 2

    def test_interior_unpin_punches_a_hole(self):
        cache = self.make()
        for vpage in range(4):
            cache.fill(1, vpage, 100 + vpage)
        assert cache.invalidate(1, 2)
        assert (1, 2) not in cache
        assert cache.lookup(1, 1) == (True, 101)
        assert cache.lookup(1, 3) == (True, 103)

    def test_lru_eviction_drops_whole_segments(self):
        cache = self.make(4)             # capacity: 2 segments
        cache.fill(1, 0, 100)
        cache.fill(1, 10, 200)
        cache.fill(1, 20, 300)           # evicts the (1, 0) segment
        assert cache.num_segments == 2
        assert (1, 0) not in cache
        assert cache.stats.evictions == 1

    def test_fragmented_fills_degenerate_to_page_entries(self):
        cache = self.make()
        for vpage in (0, 10, 20, 30):
            cache.fill(1, vpage, vpage * 7)
        assert cache.num_segments == 4


# ---------------------------------------------------------------------------
# The N-way comparison sweep
# ---------------------------------------------------------------------------

class TestMechanismTable:
    def test_small_grid_covers_every_mechanism(self):
        from repro.sim import experiments as exp
        data = exp.mechanism_table(
            scale=0.02, nodes=1, sizes=(64,),
            mechanisms=("utlb", "intr", "victima"),
            runner=SweepRunner(workers=1))
        for app in data:
            cell = data[app][64]
            assert set(cell) == {"utlb", "intr", "victima"}
            for mech in cell:
                assert cell[mech]["ni_misses"] >= 0.0
        text = exp.render_mechanism_table(data)
        assert "victima" in text and "Mechanism comparison" in text

    def test_compare_mechanisms_findings_pass(self):
        from repro.sim.compare import compare_mechanisms
        findings, text = compare_mechanisms(
            scale=0.02, nodes=1, sizes=(64, 256),
            mechanisms=("utlb", "intr", "victima"),
            runner=SweepRunner(workers=1))
        assert findings
        assert all(passed for _, passed in findings)
        assert "mechanism criteria" in text and "FAIL" not in text
