"""The translation-mechanism registry.

Mechanism selection used to be string dispatch scattered across
``SimConfig``, the sweep runner, and the simulators.  This module makes
a mechanism a first-class object: a :class:`Mechanism` descriptor
bundles the name, the node-replay entry point, the eligibility
predicates the planner consults (fast/stream-store path, analytic axis
solver, event tracing), the eager configuration validator, and the
default cost model.  Everything that used to switch on a name string now
asks the descriptor.

Registered designs
------------------

``utlb``
    The paper's Hierarchical UTLB (Section 3-4): user-level check,
    pin-on-demand, shared NIC translation cache.
``intr``
    The interrupt-based baseline (Section 6.2): the host CPU handles
    every NIC translation miss; pinned pages and cached translations
    are the same set.
``pp``
    Per-process NIC SRAM partitions (the Section 2 strawman).
``victima``
    Cache-resident translation à la Victima: the NIC cache shares
    capacity with modeled data traffic, which periodically steals ways
    back (:class:`~repro.core.victima.VictimaCache`).
``utopia``
    Hybrid restrictive/flexible mapping à la Utopia: half the entries
    form a direct-indexed no-conflict region, spillover goes to a
    conventional flexible table (:class:`~repro.core.utopia.UtopiaCache`).
``sparta-range``
    Range translation à la SPARTA: contiguous pinned extents collapse
    into base+bounds segments, fragments cost one segment per page
    (:class:`~repro.core.sparta.SpartaRangeCache`).

The three modern designs reuse the UTLB host stack (user-level check,
pin-on-demand, prefetch) and both replay engines wholesale — they differ
only in the NIC cache model, injected via the simulator's
``cache_factory`` hook — so every differential, invariant, and parity
gate applies to them unchanged.

Adding a mechanism: build a :class:`Mechanism` and :func:`register` it
(see ``docs/mechanisms.md``).  The registry is ordered (insertion
order), and everything downstream — CLI choices, the CI mechanism
matrix, the N-way comparison — enumerates it, so a new entry is picked
up everywhere at once.
"""

from repro.core.costs import DEFAULT_COST_MODEL, CostModel
from repro.core.sparta import SpartaRangeCache
from repro.core.utopia import UtopiaCache
from repro.core.victima import VictimaCache
from repro.errors import ConfigError
from repro.sim import intr_simulator as _intr
from repro.sim import pp_simulator as _pp
from repro.sim import simulator as _sim


class Mechanism:
    """One translation mechanism: entry point, predicates, defaults.

    Parameters
    ----------
    name:
        The registry key; what ``SimConfig(mechanism=...)`` and the CLI
        accept, and what travels in cache keys and metrics.
    simulate:
        ``simulate(records, config, check_invariants=False, compiled=None)``
        replaying one node's trace to a
        :class:`~repro.sim.simulator.NodeResult`.
    description:
        One line for ``--help`` and the comparison table.
    traceable:
        True when the reference path emits the ``repro.obs`` event
        stream (the runner's ``trace_dir`` skips non-traceable cells).
    validate:
        ``validate(config)`` raising :class:`~repro.errors.ConfigError`
        for configurations this mechanism cannot honour — called eagerly
        from ``SimConfig.__init__``, so an ineligible combination fails
        at construction instead of silently degrading deep in a replay.
    streams_eligible:
        ``predicate(config)`` — may this unit ship as a compiled-stream
        key over the shared store (no records pickled)?  Checked only
        after the engine gate (``fast`` and untraced).
    analytic_eligible:
        ``predicate(config)`` — may the one-pass axis solver answer
        cells of this mechanism?  Checked after the same engine gate.
    cost_model:
        Zero-argument factory for the default
        :class:`~repro.core.costs.CostModel` when the config passes
        none; defaults to the paper-calibrated model.
    """

    __slots__ = ("name", "simulate", "description", "traceable",
                 "_validate", "_streams", "_analytic", "_cost_model")

    def __init__(self, name, simulate, description="", traceable=False,
                 validate=None, streams_eligible=None,
                 analytic_eligible=None, cost_model=None):
        self.name = name
        self.simulate = simulate
        self.description = description
        self.traceable = traceable
        self._validate = validate
        self._streams = streams_eligible
        self._analytic = analytic_eligible
        self._cost_model = cost_model

    def validate(self, config):
        """Raise :class:`ConfigError` if ``config`` is unusable here."""
        if self._validate is not None:
            self._validate(config)

    def streams_eligible(self, config):
        """True when replay consumes compiled streams (fast engine,
        untraced, plus any mechanism-specific structural requirements)."""
        if config.engine != "fast" or config.traced:
            return False
        if self._streams is None:
            return False
        return self._streams(config)

    def analytic_eligible(self, config):
        """True when the analytic axis solver models this cell exactly."""
        if config.engine != "fast" or config.traced:
            return False
        if self._analytic is None:
            return False
        return self._analytic(config)

    def default_cost_model(self):
        """The cost model used when the config passes none."""
        if self._cost_model is None:
            return DEFAULT_COST_MODEL
        return self._cost_model()

    def __repr__(self):
        return "Mechanism(%r)" % (self.name,)


#: Name -> :class:`Mechanism`, in registration order (the order every
#: enumeration — CLI choices, comparison tables, the CI matrix — uses).
REGISTRY = {}


def register(mechanism):
    """Add ``mechanism`` to the registry; the name must be free."""
    if mechanism.name in REGISTRY:
        raise ConfigError(
            "mechanism %r is already registered" % (mechanism.name,))
    REGISTRY[mechanism.name] = mechanism
    return mechanism


def resolve(mechanism):
    """The :class:`Mechanism` for a name; instances pass through.

    An unknown name raises :class:`ConfigError` naming the value and the
    registered choices — the registry-wide analogue of the eager
    ``pin_policy`` validation.
    """
    if isinstance(mechanism, Mechanism):
        return mechanism
    try:
        return REGISTRY[mechanism]
    except KeyError:
        raise ConfigError(
            "unknown mechanism %r (use one of %s)"
            % (mechanism, tuple(REGISTRY))) from None


def lookup(mechanism):
    """Like :func:`resolve` but returns None for unknown names.

    For planner predicates that must stay total (a corrupted cell should
    fail at dispatch, in the worker, not while planning).
    """
    if isinstance(mechanism, Mechanism):
        return mechanism
    return REGISTRY.get(mechanism)


def mechanism_names():
    """Registered mechanism names, in registration order."""
    return tuple(REGISTRY)


# ---------------------------------------------------------------------------
# Validators and predicates
# ---------------------------------------------------------------------------

def _validate_intr(config):
    # The interrupt baseline's fast path needs a direct-mapped,
    # unclassified cache; anything else must ask for the reference
    # engine explicitly instead of silently falling back to it.
    if config.engine == "fast" and (config.associativity != 1
                                    or config.classify):
        raise ConfigError(
            "mechanism 'intr' has no fast path for associativity=%d "
            "classify=%r; use engine=\"reference\""
            % (config.associativity, config.classify))


def _no_classifier(name):
    def validate(config):
        if config.classify:
            raise ConfigError(
                "mechanism %r has no 3C miss classifier "
                "(classify=True is only modeled for 'utlb')" % (name,))
    return validate


def _validate_victima(config):
    _no_classifier("victima")(config)


def _validate_utopia(config):
    _no_classifier("utopia")(config)
    flexible = config.cache_entries - config.cache_entries // 2
    if config.cache_entries < 2:
        raise ConfigError(
            "mechanism 'utopia' needs at least 2 cache entries to split "
            "restrictive/flexible, got %d" % (config.cache_entries,))
    if flexible % config.associativity:
        raise ConfigError(
            "mechanism 'utopia': the flexible half (%d entries) is not "
            "divisible by associativity=%d"
            % (flexible, config.associativity))


def _validate_sparta(config):
    _no_classifier("sparta-range")(config)
    if config.associativity != 1:
        raise ConfigError(
            "mechanism 'sparta-range' is a bounds-register file "
            "(associativity must be 1, got %d)" % (config.associativity,))


def _utlb_analytic(config):
    # Exactly the fast engine's default path: unclassified, one page per
    # pin call and one entry per miss fetch, LRU pinned-page replacement
    # by *name* (policy instances may diverge from the modeled LRU).
    return (not config.classify
            and config.prefetch == 1
            and config.prepin == 1
            and config.pin_policy == "lru")


# ---------------------------------------------------------------------------
# Cache factories and simulate wrappers for the cache-model mechanisms
# ---------------------------------------------------------------------------

def _victima_cache(config, tracer):
    return VictimaCache(
        config.cache_entries,
        associativity=config.associativity,
        offsetting=config.offsetting,
        classify=config.classify,
        tracer=tracer)


def _utopia_cache(config, tracer):
    return UtopiaCache(
        config.cache_entries,
        associativity=config.associativity,
        offsetting=config.offsetting,
        classify=config.classify,
        tracer=tracer)


def _sparta_cache(config, tracer):
    return SpartaRangeCache(
        config.cache_entries,
        associativity=config.associativity,
        offsetting=config.offsetting,
        classify=config.classify,
        tracer=tracer)


def _cache_model_simulate(cache_factory):
    """A ``simulate`` entry point: the UTLB stack over a custom NIC cache.

    Dispatches exactly like :func:`repro.sim.simulator.simulate_node`,
    resolving the engine functions through the module at call time so
    the suite-wide invariant-checking monkeypatch covers these
    mechanisms too.
    """
    def simulate(records, config, check_invariants=False, compiled=None):
        if config.engine == "reference" or config.traced:
            return _sim._simulate_node_reference(
                records, config, check_invariants,
                cache_factory=cache_factory)
        return _sim._simulate_node_fast(
            records, config, check_invariants, compiled,
            cache_factory=cache_factory)
    return simulate


# ---------------------------------------------------------------------------
# Default cost models
# ---------------------------------------------------------------------------

#: Victima probes a big shared cache (tag walk + way steal arbitration),
#: so a NIC-side hit costs more than the dedicated SRAM array's.
VICTIMA_COST_MODEL = CostModel(ni_check_hit=1.6)

#: Utopia's restrictive region is direct-indexed — most hits skip the
#: tag walk entirely, so the blended hit cost undercuts the base array.
UTOPIA_COST_MODEL = CostModel(ni_check_hit=0.4)

#: SPARTA compares a handful of bounds registers per probe: cheaper than
#: a full indexed lookup, dearer than Utopia's computed slot.
SPARTA_COST_MODEL = CostModel(ni_check_hit=0.6)


# ---------------------------------------------------------------------------
# Built-in registrations (ordered: the paper pair, the strawman, then
# the modern designs)
# ---------------------------------------------------------------------------

register(Mechanism(
    "utlb", _sim.simulate_node,
    description="Hierarchical UTLB: user check + shared NIC cache (paper)",
    traceable=True,
    streams_eligible=lambda config: True,
    analytic_eligible=_utlb_analytic,
))

register(Mechanism(
    "intr", _intr.simulate_node_intr,
    description="Interrupt-based baseline: host CPU services NIC misses",
    traceable=True,
    validate=_validate_intr,
    streams_eligible=lambda config: (config.associativity == 1
                                     and not config.classify),
))

register(Mechanism(
    "pp", _pp.simulate_node_pp,
    description="Per-process NIC SRAM partitions (Section 2 strawman)",
))

register(Mechanism(
    "victima", _cache_model_simulate(_victima_cache),
    description="Cache-resident translation under data-fill pressure "
                "(Victima)",
    traceable=True,
    validate=_validate_victima,
    streams_eligible=lambda config: True,
    cost_model=lambda: VICTIMA_COST_MODEL,
))

register(Mechanism(
    "utopia", _cache_model_simulate(_utopia_cache),
    description="Hybrid restrictive/flexible mapping (Utopia)",
    traceable=True,
    validate=_validate_utopia,
    streams_eligible=lambda config: True,
    cost_model=lambda: UTOPIA_COST_MODEL,
))

register(Mechanism(
    "sparta-range", _cache_model_simulate(_sparta_cache),
    description="Base+bounds segments over contiguous pinned extents "
                "(SPARTA)",
    traceable=True,
    validate=_validate_sparta,
    streams_eligible=lambda config: True,
    cost_model=lambda: SPARTA_COST_MODEL,
))
