"""The calibrated cost model (microseconds) from the paper's measurements.

Every constant here is a number the paper publishes for its Myrinet /
300 MHz Pentium-II / Windows NT 4.0 implementation:

* Table 1 — host-side costs: user-level bit-map check (min/max), page
  pinning, page unpinning, as functions of the number of pages per call.
* Table 2 — network-interface costs: a constant 0.8 µs cache-hit lookup,
  and DMA/total-miss costs as functions of the number of translation
  entries fetched per miss.
* Section 6.2 — the lookup-cost equations, a 0.5 µs user-level check, a
  10 µs cost to invoke the system interrupt handler, and the note that the
  interrupt-based mechanism's pin/unpin run in kernel context ("adjusted to
  factor out context switches").

Batch costs are stored as measurement tables and interpolated piecewise-
linearly; outside the measured range the last segment's slope extrapolates.
The linear fits are excellent (pinning is ~24 µs + 2.8 µs/page), matching
the paper's observation that DMA setup / syscall entry dominates small
batches.
"""

import math

from repro.errors import ConfigError

#: Measured batch sizes common to Tables 1 and 2.
MEASURED_SIZES = (1, 2, 4, 8, 16, 32)

#: Table 1 rows (µs).
CHECK_MIN_TABLE = (0.2, 0.2, 0.2, 0.2, 0.2, 0.2)
CHECK_MAX_TABLE = (0.4, 0.6, 0.6, 0.6, 0.6, 0.7)
PIN_TABLE = (27.0, 30.0, 36.0, 47.0, 70.0, 115.0)
UNPIN_TABLE = (25.0, 30.0, 36.0, 50.0, 80.0, 139.0)

#: Table 2 rows (µs).
DMA_TABLE = (1.5, 1.6, 1.6, 1.9, 2.1, 2.5)
MISS_TABLE = (1.8, 1.9, 1.9, 2.3, 2.8, 3.2)


def _interpolate(table, n):
    """Piecewise-linear interpolation of ``table`` over MEASURED_SIZES."""
    if n <= 0:
        raise ConfigError("batch size must be positive, got %r" % (n,))
    sizes = MEASURED_SIZES
    if n <= sizes[0]:
        return table[0]
    for i in range(1, len(sizes)):
        if n <= sizes[i]:
            lo_n, hi_n = sizes[i - 1], sizes[i]
            lo_v, hi_v = table[i - 1], table[i]
            return lo_v + (hi_v - lo_v) * (n - lo_n) / (hi_n - lo_n)
    # Extrapolate beyond the last measured point with the final slope.
    slope = (table[-1] - table[-2]) / (sizes[-1] - sizes[-2])
    return table[-1] + slope * (n - sizes[-1])


def accumulated_cost(unit_cost_us, count, start=0.0):
    """Total simulated time after charging ``unit_cost_us``, ``count`` times.

    Bit-identical to the per-event accumulation loop::

        total = start
        for _ in range(count):
            total += unit_cost_us

    but usually O(log(total / unit)) instead of O(count), which is what
    lets the fast replay engine drop per-lookup float additions from its
    hot path and still reproduce the reference engine's stats exactly.
    (``count * unit`` is not bit-identical to repeated addition, and
    ``sum()`` uses compensated summation on new Pythons, so neither is a
    substitute.)

    The shortcut: while the accumulator stays inside one binade, its ulp
    is constant, so adding the same non-negative constant rounds to the
    same fixed multiple of that ulp every time — an exact arithmetic
    progression that collapses into one multiply-add.  Regimes where the
    constant-increment argument does not hold (round-half-even ties,
    non-positive values, subnormals, binade boundaries) step one
    addition at a time, so the function is never less exact than — and
    at worst a small constant factor slower than — the plain loop.
    """
    if count < 0:
        raise ConfigError("count must be non-negative, got %r" % (count,))
    total = start + 0.0
    unit = unit_cost_us + 0.0
    remaining = count
    while remaining > 0:
        stepped = total + unit
        remaining -= 1
        if stepped == total:
            # Fixpoint: the cost is absorbed by rounding (or is zero), so
            # every later addition leaves the accumulator unchanged too.
            return stepped
        total = stepped
        if remaining == 0 or unit <= 0.0 or total <= 0.0:
            continue
        ulp = math.ulp(total)
        ratio = unit / ulp              # exact: ulp is a power of two
        if not math.isfinite(ratio):
            continue                    # subnormal accumulator; step plainly
        whole = math.floor(ratio)
        fraction = ratio - whole        # exact for the same reason
        if fraction == 0.5:
            continue                    # tie — increment depends on parity
        per_add = (whole + 1 if fraction > 0.5 else whole) * ulp
        if per_add <= 0.0:
            continue
        # Constant increments are only valid while every exact sum stays
        # below the binade boundary; stop a few increments short of it.
        boundary = math.ldexp(1.0, math.frexp(total)[1])
        jump = int((boundary - total) / per_add) - 3
        if jump > remaining:
            jump = remaining
        if jump < 1:
            continue
        # jump * per_add is a multiple of ulp below the boundary, so the
        # multiply and the add are both exact.
        total += jump * per_add
        remaining -= jump
    return total


class CostModel:
    """Microsecond costs for every primitive the simulators charge.

    All parameters default to the paper's published values; experiments
    that explore other hardware points (ablations) override them.

    Parameters
    ----------
    user_check_hit:
        Host-side cost of a user-level lookup that finds all pages pinned
        (Section 6.2 uses 0.5 µs).
    ni_check_hit:
        NIC-side cost of a translation-cache hit (0.8 µs, Table 2).
    interrupt_cost:
        Cost to invoke the host interrupt handler from the NIC (10 µs).
    context_switch_cost:
        The protection-domain crossing included in the user-level pin/unpin
        measurements but absent when pinning from an interrupt handler;
        subtracted to derive the kernel rates (Section 6.2).
    """

    def __init__(self,
                 user_check_hit=0.5,
                 ni_check_hit=0.8,
                 interrupt_cost=10.0,
                 context_switch_cost=10.0,
                 pin_table=PIN_TABLE,
                 unpin_table=UNPIN_TABLE,
                 dma_table=DMA_TABLE,
                 miss_table=MISS_TABLE,
                 check_min_table=CHECK_MIN_TABLE,
                 check_max_table=CHECK_MAX_TABLE):
        for name, table in (("pin_table", pin_table),
                            ("unpin_table", unpin_table),
                            ("dma_table", dma_table),
                            ("miss_table", miss_table),
                            ("check_min_table", check_min_table),
                            ("check_max_table", check_max_table)):
            if len(table) != len(MEASURED_SIZES):
                raise ConfigError(
                    "%s must have %d points" % (name, len(MEASURED_SIZES)))
        self.user_check_hit = user_check_hit
        self.ni_check_hit = ni_check_hit
        self.interrupt_cost = interrupt_cost
        self.context_switch_cost = context_switch_cost
        self._pin = tuple(pin_table)
        self._unpin = tuple(unpin_table)
        self._dma = tuple(dma_table)
        self._miss = tuple(miss_table)
        self._check_min = tuple(check_min_table)
        self._check_max = tuple(check_max_table)
        # Interpolation is pure, and replay asks for the same handful of
        # batch sizes millions of times — memoize per (table, size).
        self._memo = {}

    def _interpolated(self, name, table, n):
        key = (name, n)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = _interpolate(table, n)
        return value

    def to_dict(self):
        """Every calibration constant as a JSON-safe dict.

        Used by the sweep result cache to fingerprint a configuration: two
        cost models with identical parameters hash identically.
        """
        return {
            "user_check_hit": self.user_check_hit,
            "ni_check_hit": self.ni_check_hit,
            "interrupt_cost": self.interrupt_cost,
            "context_switch_cost": self.context_switch_cost,
            "pin_table": list(self._pin),
            "unpin_table": list(self._unpin),
            "dma_table": list(self._dma),
            "miss_table": list(self._miss),
            "check_min_table": list(self._check_min),
            "check_max_table": list(self._check_max),
        }

    def unit_costs(self):
        """The eight per-event constants of the batch solver's cells.

        On the solver's paths every charged event is one fixed price, so
        a whole replay's time fields are reproducible from event
        *counts* alone (via :func:`accumulated_cost`).  The analytic
        axis solver ships this dict to its workers instead of the full
        model.  Which mechanism charges which:

        * both: ``ni_hit``, the NIC probe every lookup pays;
        * utlb (``prefetch == 1``, ``prepin == 1``): ``check`` (the
          user-level check), ``pin`` and ``unpin`` (one page, user
          rates) and ``miss`` (fetch one entry);
        * intr: ``interrupt`` (every NIC miss), ``kernel_pin`` and
          ``kernel_unpin`` (one page, from the interrupt handler).
        """
        return {
            "check": self.user_check_hit,
            "ni_hit": self.ni_check_hit,
            "pin": self.pin_cost(1),
            "unpin": self.unpin_cost(1),
            "miss": self.miss_cost(1),
            "interrupt": self.interrupt_cost,
            "kernel_pin": self.kernel_pin_cost(1),
            "kernel_unpin": self.kernel_unpin_cost(1),
        }

    # -- host-side ----------------------------------------------------------

    def check_cost(self, num_pages, worst_case=False):
        """Cost of the user-level bit-map check over ``num_pages`` pages."""
        if worst_case:
            return self._interpolated("check_max", self._check_max, num_pages)
        return self._interpolated("check_min", self._check_min, num_pages)

    def pin_cost(self, num_pages):
        """User-level (ioctl) cost to pin ``num_pages`` pages in one call."""
        return self._interpolated("pin", self._pin, num_pages)

    def unpin_cost(self, num_pages):
        """User-level (ioctl) cost to unpin ``num_pages`` pages."""
        return self._interpolated("unpin", self._unpin, num_pages)

    def kernel_pin_cost(self, num_pages):
        """Pin cost when already in kernel mode (interrupt-based baseline)."""
        return max(0.0, self.pin_cost(num_pages) - self.context_switch_cost)

    def kernel_unpin_cost(self, num_pages):
        """Unpin cost when already in kernel mode."""
        return max(0.0, self.unpin_cost(num_pages) - self.context_switch_cost)

    # -- NIC-side -----------------------------------------------------------

    def dma_cost(self, num_entries):
        """NIC cost to DMA ``num_entries`` translation entries from host
        memory over the I/O bus (Table 2, 'DMA cost')."""
        return self._interpolated("dma", self._dma, num_entries)

    def miss_cost(self, num_entries):
        """Total NIC cost of a translation-cache miss that fetches
        ``num_entries`` entries (Table 2, 'total miss cost'): the
        second-level table address computation plus the DMA."""
        return self._interpolated("miss", self._miss, num_entries)

    def ni_probe_cost(self, associativity, miss_rate):
        """Average per-lookup probe cost of a set-associative cache.

        "Since the Shared UTLB-Cache is implemented in Myrinet firmware,
        the network interface processor can only check one cache entry at
        a time.  Therefore, the cost per translation lookup is higher in
        a set-associative UTLB cache than a direct-mapped cache"
        (Section 6.3).  A hit checks (associativity+1)/2 entries on
        average; a miss checks all of them.  Each probe costs the
        measured direct-mapped hit time (0.8 µs = one probe).
        """
        if associativity < 1:
            raise ConfigError("associativity must be at least 1")
        if not 0.0 <= miss_rate <= 1.0:
            raise ConfigError("miss rate must be in [0, 1]")
        hit_probes = (associativity + 1) / 2.0
        expected = ((1.0 - miss_rate) * hit_probes
                    + miss_rate * associativity)
        return self.ni_check_hit * expected

    # -- the Section 6.2 lookup-cost equations --------------------------------

    def utlb_lookup_cost(self, check_miss_rate, ni_miss_rate, unpin_rate,
                         pages_per_pin=1, pages_per_unpin=1,
                         entries_per_miss=1):
        """Average per-lookup cost of the UTLB mechanism.

        Implements ``lookup_utlb`` from Section 6.2::

            user_check_hit
            + user_pin_cost  * check_miss_rate
            + ni_check_hit
            + ni_miss_cost   * ni_miss_rate
            + user_unpin_cost * unpin_rate

        Rates are per-lookup averages, exactly as Tables 4 and 5 report
        them.  ``pages_per_pin`` amortizes pre-pinning: a check miss that
        pins k pages pays ``pin_cost(k)`` but the rate already reflects the
        reduced number of pin calls.
        """
        return (self.user_check_hit
                + self.pin_cost(pages_per_pin) * check_miss_rate
                + self.ni_check_hit
                + self.miss_cost(entries_per_miss) * ni_miss_rate
                + self.unpin_cost(pages_per_unpin) * unpin_rate)

    def intr_lookup_cost(self, ni_miss_rate, unpin_rate,
                         pages_per_pin=1, pages_per_unpin=1):
        """Average per-lookup cost of the interrupt-based mechanism.

        Implements ``lookup_intr`` from Section 6.2::

            ni_check
            + (intr_cost + kernel_pin_cost) * ni_miss_rate
            + unpin_kernel_cost * unpin_rate
        """
        return (self.ni_check_hit
                + (self.interrupt_cost
                   + self.kernel_pin_cost(pages_per_pin)) * ni_miss_rate
                + self.kernel_unpin_cost(pages_per_unpin) * unpin_rate)


#: A shared default instance with the paper's calibration.
DEFAULT_COST_MODEL = CostModel()
