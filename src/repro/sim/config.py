"""Simulation configuration for the trace-driven analysis (Section 6)."""

from repro import params
from repro.core.policies import PIN_POLICIES
from repro.errors import ConfigError
from repro.sim.mechanisms import resolve


#: Valid trace-replay engines: ``fast`` (compiled page streams with a
#: counter-only hot path) and ``reference`` (record-at-a-time replay
#: through the full :class:`HierarchicalUtlb` machinery).  Both are
#: bit-identical in output; ``reference`` exists as the oracle.
ENGINES = ("fast", "reference")


class SimConfig:
    """Parameters of one trace-driven simulation run.

    Defaults reproduce the headline configuration of Table 4: an 8K-entry
    direct-mapped NIC cache with index offsetting, no prefetch, no
    pre-pinning, infinite host memory, LRU pinned-page replacement.
    """

    def __init__(self,
                 cache_entries=params.DEFAULT_UTLB_CACHE_ENTRIES,
                 associativity=1,
                 offsetting=True,
                 prefetch=1,
                 prepin=1,
                 memory_limit_bytes=None,
                 pin_policy="lru",
                 classify=False,
                 cost_model=None,
                 seed=0,
                 engine="fast",
                 tracer=None,
                 mechanism="utlb"):
        if cache_entries <= 0:
            raise ConfigError("cache_entries must be positive")
        if associativity <= 0 or cache_entries % associativity:
            raise ConfigError("associativity must divide cache_entries")
        if prefetch <= 0 or prepin <= 0:
            raise ConfigError("prefetch and prepin degrees must be positive")
        if memory_limit_bytes is not None and memory_limit_bytes <= 0:
            raise ConfigError("memory limit must be positive or None")
        if engine not in ENGINES:
            raise ConfigError("unknown engine %r (choose from %s)"
                              % (engine, list(ENGINES)))
        # Fail at construction, not thousands of lookups into a replay
        # when the first pinning-limit eviction finally asks the policy
        # factory for an unknown name.  Policy *instances* (user-defined
        # replacement, as in examples/custom_replacement_policy.py) pass
        # through untouched — only string names are checked.
        if isinstance(pin_policy, str) and pin_policy not in PIN_POLICIES:
            raise ConfigError("unknown pin policy %r (choose from %s)"
                              % (pin_policy, sorted(PIN_POLICIES)))
        # Mechanism names resolve through the registry (unknown names
        # raise ConfigError with the valid choices); Mechanism instances
        # pass through.  Only the *name* is stored — the config stays a
        # plain picklable value object.
        mech = resolve(mechanism)
        self.mechanism = mech.name
        self.cache_entries = cache_entries
        self.associativity = associativity
        self.offsetting = offsetting
        self.prefetch = prefetch
        self.prepin = prepin
        self.memory_limit_bytes = memory_limit_bytes
        self.pin_policy = pin_policy
        self.classify = classify
        #: Remember whether the cost model was defaulted: ``replace()``
        #: re-derives a defaulted model, so switching mechanism picks up
        #: the new mechanism's default instead of freezing the old one.
        self._defaulted_cost_model = cost_model is None
        self.cost_model = (cost_model if cost_model is not None
                           else mech.default_cost_model())
        self.seed = seed
        self.engine = engine
        #: Optional :class:`repro.obs.tracer.Tracer` receiving the run's
        #: event stream.  None (or a disabled tracer, e.g. NullTracer)
        #: keeps the fast engine's counter-only hot loop byte- and
        #: speed-identical; an enabled tracer routes replay through the
        #: event-emitting reference path.  Never part of the simulated
        #: configuration: results are identical with or without it.
        self.tracer = tracer
        # Last, with the full state assembled: the mechanism's own eager
        # validation.  An engine/geometry combination the mechanism's
        # eligibility rules out fails here, at construction — not by
        # silently degrading to the reference path deep in the runner.
        mech.validate(self)

    @property
    def traced(self):
        """True when an enabled tracer is attached (events will flow)."""
        return self.tracer is not None and getattr(
            self.tracer, "enabled", True)

    @property
    def memory_limit_pages(self):
        """The per-process pinning limit in pages (None = unlimited)."""
        if self.memory_limit_bytes is None:
            return None
        return max(1, self.memory_limit_bytes // params.PAGE_SIZE)

    def replace(self, **overrides):
        """A copy of this config with some fields overridden."""
        fields = dict(
            cache_entries=self.cache_entries,
            associativity=self.associativity,
            offsetting=self.offsetting,
            prefetch=self.prefetch,
            prepin=self.prepin,
            memory_limit_bytes=self.memory_limit_bytes,
            pin_policy=self.pin_policy,
            classify=self.classify,
            # A defaulted cost model stays defaulted, so
            # replace(mechanism=...) re-derives the new mechanism's
            # default instead of carrying the old one across.
            cost_model=(None if self._defaulted_cost_model
                        else self.cost_model),
            seed=self.seed,
            engine=self.engine,
            tracer=self.tracer,
            mechanism=self.mechanism,
        )
        fields.update(overrides)
        return SimConfig(**fields)

    def to_dict(self):
        """Every field as a JSON-safe dict (cost model expanded).

        This is the cache-fingerprint form: any change to any field —
        including a cost-model constant — yields a different dict and
        therefore a different cache key.
        """
        return {
            "mechanism": self.mechanism,
            "cache_entries": self.cache_entries,
            "associativity": self.associativity,
            "offsetting": self.offsetting,
            "prefetch": self.prefetch,
            "prepin": self.prepin,
            "memory_limit_bytes": self.memory_limit_bytes,
            "pin_policy": self.pin_policy,
            "classify": self.classify,
            "cost_model": self.cost_model.to_dict(),
            "seed": self.seed,
            "engine": self.engine,
            # Tracers never change results, but a traced cell must not be
            # answered from the result cache (the events would be lost) —
            # the runner skips caching for traced cells, and the distinct
            # fingerprint is belt-and-braces on top.
            "tracer": (type(self.tracer).__name__ if self.traced else None),
        }

    def describe(self):
        limit = ("inf" if self.memory_limit_bytes is None
                 else "%dMB" % (self.memory_limit_bytes // (1024 * 1024)))
        hashing = "offset" if self.offsetting else "nohash"
        text = ("cache=%d assoc=%d %s prefetch=%d prepin=%d mem=%s policy=%s "
                "engine=%s"
                % (self.cache_entries, self.associativity, hashing,
                   self.prefetch, self.prepin, limit, self.pin_policy,
                   self.engine))
        if self.mechanism != "utlb":
            text += " mech=%s" % (self.mechanism,)
        if self.classify:
            text += " classify"
        if self.traced:
            text += " traced"
        return text

    def __repr__(self):
        return "SimConfig(%s)" % (self.describe(),)
