"""One function per paper table/figure (the per-experiment index lives in
DESIGN.md).

Every function returns plain data (dicts keyed by application / cache
size) and has a ``render_*`` companion that formats it the way the paper
prints it.  ``run_all`` executes the whole evaluation section and returns
the rendered report — that is what EXPERIMENTS.md records.

Scaling: ``scale`` shrinks every application's footprint and lookup count
proportionally (useful for quick runs); per-process memory limits (Tables
5 and 7) are scaled by the same factor so the pressure ratio — limit vs
footprint — matches the paper's setup at any scale.

Execution: every replay-backed function takes a ``runner`` — a
:class:`~repro.sim.runner.SweepRunner` — and submits its whole grid of
cells at once, so one call fans out over worker processes and reuses the
on-disk result cache.  With no runner the shared serial default is used;
``run_all`` builds its own (workers from ``REPRO_WORKERS``, cache under
``REPRO_CACHE_DIR`` or the user cache directory) so re-running the
evaluation only replays cells whose inputs changed.
"""

from repro import params
from repro.core.costs import DEFAULT_COST_MODEL, MEASURED_SIZES
from repro.sim.config import SimConfig
from repro.sim.report import (
    format_table,
    render_breakdown_chart,
    render_line_chart,
)
from repro.sim.runner import (
    SweepCell,
    SweepRunner,
    default_cache_dir,
    default_runner,
    trace_census,
    workers_from_env,
)
from repro.sim.sweep import (
    generate_traces,
    sweep_associativity,
    sweep_prefetch,
)
from repro.traces.synth import TABLE_ORDER, make_app

#: Default experiment geometry (the paper's cluster).
DEFAULT_NODES = params.TRACE_NODES
DEFAULT_SEED = 1

#: Cache sizes of Tables 4/5/8.
SIZES = params.CACHE_SIZE_SWEEP


def _scaled_limit_pages(limit_bytes, scale):
    """A memory limit in pages, shrunk with the trace scale."""
    pages = limit_bytes // params.PAGE_SIZE
    return max(16, int(round(pages * scale)))


def _apps(names=None):
    return [make_app(name) for name in (names or TABLE_ORDER)]


# ---------------------------------------------------------------------------
# Table 1 — host-side operation costs
# ---------------------------------------------------------------------------

def table1(cost_model=None):
    """Host overheads: check (min/max), pin, unpin vs pages per call."""
    cm = cost_model or DEFAULT_COST_MODEL
    return {
        "num_pages": list(MEASURED_SIZES),
        "check_min": [cm.check_cost(n) for n in MEASURED_SIZES],
        "check_max": [cm.check_cost(n, worst_case=True)
                      for n in MEASURED_SIZES],
        "pin": [cm.pin_cost(n) for n in MEASURED_SIZES],
        "unpin": [cm.unpin_cost(n) for n in MEASURED_SIZES],
    }


def render_table1(data):
    headers = ["num pages"] + [str(n) for n in data["num_pages"]]
    rows = [
        ["check min (us)"] + [round(v, 1) for v in data["check_min"]],
        ["check max (us)"] + [round(v, 1) for v in data["check_max"]],
        ["pin (us)"] + [round(v, 1) for v in data["pin"]],
        ["unpin (us)"] + [round(v, 1) for v in data["unpin"]],
    ]
    return format_table(headers, rows,
                        title="Table 1: UTLB overhead on the host processor",
                        precision=1)


# ---------------------------------------------------------------------------
# Table 2 — network-interface costs
# ---------------------------------------------------------------------------

def table2(cost_model=None):
    """NIC overheads: DMA and total miss cost vs entries fetched."""
    cm = cost_model or DEFAULT_COST_MODEL
    return {
        "num_entries": list(MEASURED_SIZES),
        "dma_cost": [cm.dma_cost(n) for n in MEASURED_SIZES],
        "miss_cost": [cm.miss_cost(n) for n in MEASURED_SIZES],
        "hit_cost": cm.ni_check_hit,
    }


def render_table2(data):
    headers = ["num entries"] + [str(n) for n in data["num_entries"]]
    rows = [
        ["DMA cost (us)"] + [round(v, 1) for v in data["dma_cost"]],
        ["total miss cost (us)"] + [round(v, 1) for v in data["miss_cost"]],
    ]
    table = format_table(
        headers, rows,
        title="Table 2: UTLB overhead on the network interface",
        precision=1)
    return table + "\n(hit cost is a constant %.1f us)" % data["hit_cost"]


# ---------------------------------------------------------------------------
# Table 3 — workload characteristics
# ---------------------------------------------------------------------------

def table3(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED):
    """Problem size, per-node footprint and lookup count of each app."""
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        census = [trace_census(t) for t in traces.values()]
        fp = sum(footprint for _, footprint in census) / len(census)
        lk = sum(lookups for lookups, _ in census) / len(census)
        data[app.name] = {
            "problem_size": app.problem_size,
            "footprint_pages": fp,
            "lookups": lk,
            "target_footprint": app.footprint_pages,
            "target_lookups": app.lookups,
        }
    return data


def render_table3(data):
    headers = ["Application", "Problem Size", "Footprint (4KB pages)",
               "# translation lookups"]
    rows = [[name,
             data[name]["problem_size"],
             int(round(data[name]["footprint_pages"])),
             int(round(data[name]["lookups"]))]
            for name in data]
    return format_table(
        headers, rows,
        title="Table 3: Application problem size, communication memory "
              "footprint, lookup frequency (per node)")


# ---------------------------------------------------------------------------
# Tables 4 and 5 — UTLB vs interrupt-based
# ---------------------------------------------------------------------------

def _utlb_vs_intr(scale, nodes, seed, sizes, memory_limit_bytes,
                  runner=None):
    runner = runner or default_runner()
    limit = (None if memory_limit_bytes is None
             else _scaled_limit_pages(memory_limit_bytes, scale)
             * params.PAGE_SIZE)
    base = SimConfig(memory_limit_bytes=limit)
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        cells = []
        for size in sizes:
            config = base.replace(cache_entries=size)
            cells.append(SweepCell((app.name, size, "utlb"), traces,
                                   config, "utlb"))
            cells.append(SweepCell((app.name, size, "intr"), traces,
                                   config, "intr"))
        results = runner.run_cells(cells)
        per_size = {}
        for index, size in enumerate(sizes):
            utlb = results[2 * index].stats
            intr = results[2 * index + 1].stats
            per_size[size] = {
                "utlb": {
                    "check_misses": utlb.check_miss_rate,
                    "ni_misses": utlb.ni_miss_rate,
                    "unpins": utlb.unpin_rate,
                    "stats": utlb,
                },
                "intr": {
                    "ni_misses": intr.ni_miss_rate,
                    "unpins": intr.unpin_rate,
                    "stats": intr,
                },
            }
        data[app.name] = per_size
    return data


def table4(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED, sizes=SIZES,
           runner=None):
    """UTLB vs Intr per-lookup rates with infinite host memory."""
    return _utlb_vs_intr(scale, nodes, seed, sizes, None, runner=runner)


def table5(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED, sizes=SIZES,
           memory_limit_bytes=params.TABLE5_MEMORY_LIMIT_BYTES, runner=None):
    """UTLB vs Intr per-lookup rates with a 4 MB per-process limit."""
    return _utlb_vs_intr(scale, nodes, seed, sizes, memory_limit_bytes,
                         runner=runner)


def _render_utlb_vs_intr(data, title):
    apps = list(data)
    sizes = list(next(iter(data.values())))
    headers = (["Cache", "Characteristic"]
               + ["%s:UTLB" % a for a in apps]
               + ["%s:Intr" % a for a in apps])
    rows = []
    for size in sizes:
        for metric, label in (("check_misses", "check misses"),
                              ("ni_misses", "NI misses"),
                              ("unpins", "unpins")):
            row = ["%dK" % (size // 1024) if metric == "check_misses" else "",
                   label]
            for app in apps:
                cell = data[app][size]["utlb"].get(metric)
                row.append("" if cell is None else round(cell, 2))
            for app in apps:
                cell = data[app][size]["intr"].get(metric)
                row.append("" if cell is None else round(cell, 2))
            rows.append(row)
    return format_table(headers, rows, title=title)


def render_table4(data):
    return _render_utlb_vs_intr(
        data,
        "Table 4: UTLB vs Intr per-lookup rates (infinite host memory, "
        "direct-mapped cache with index offsetting, no prefetch)")


def render_table5(data):
    return _render_utlb_vs_intr(
        data,
        "Table 5: UTLB vs Intr per-lookup rates (4 MB host memory limit, "
        "direct-mapped cache with index offsetting, no prefetch)")


# ---------------------------------------------------------------------------
# Table 6 — average lookup cost
# ---------------------------------------------------------------------------

def table6(table4_data=None, scale=1.0, nodes=DEFAULT_NODES,
           seed=DEFAULT_SEED, sizes=(1024, 4096, 16384),
           apps=("barnes", "fft"), cost_model=None, runner=None):
    """Average translation lookup cost (us): UTLB vs Intr.

    Applies the Section 6.2 cost equations to the measured Table 4 rates,
    and also reports the simulator's directly accumulated per-lookup time
    (the two agree — that is a built-in cross-check of the cost model).
    """
    cm = cost_model or DEFAULT_COST_MODEL
    if table4_data is None:
        table4_data = _utlb_vs_intr(scale, nodes, seed, sizes, None,
                                    runner=runner)
    data = {}
    for app in apps:
        per_size = {}
        for size in sizes:
            cell = table4_data[app][size]
            utlb = cell["utlb"]
            intr = cell["intr"]
            per_size[size] = {
                "utlb_us": cm.utlb_lookup_cost(
                    utlb["check_misses"], utlb["ni_misses"], utlb["unpins"]),
                "intr_us": cm.intr_lookup_cost(
                    intr["ni_misses"], intr["unpins"]),
                "utlb_measured_us": utlb["stats"].avg_lookup_cost_us,
                "intr_measured_us": intr["stats"].avg_lookup_cost_us,
            }
        data[app] = per_size
    return data


def render_table6(data):
    apps = list(data)
    sizes = list(next(iter(data.values())))
    headers = ["Cache Entries"]
    for app in apps:
        headers += ["%s:UTLB" % app, "%s:Intr" % app]
    rows = []
    for size in sizes:
        row = ["%dK" % (size // 1024)]
        for app in apps:
            row.append("%.1f us" % data[app][size]["utlb_us"])
            row.append("%.1f us" % data[app][size]["intr_us"])
        rows.append(row)
    return format_table(
        headers, rows,
        title="Table 6: Average lookup cost, UTLB vs Intr (infinite host "
              "memory, no prefetch, index offsetting)")


# ---------------------------------------------------------------------------
# Table 7 — sequential pre-pinning
# ---------------------------------------------------------------------------

def table7(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED,
           cache_entries=params.DEFAULT_UTLB_CACHE_ENTRIES,
           memory_limit_bytes=params.TABLE7_MEMORY_LIMIT_BYTES,
           prepin_degrees=(1, 16), runner=None):
    """Amortized pin/unpin cost per lookup for pre-pinning strategies.

    The paper's "16 MB limit" is read as a per-node budget shared by the
    node's five processes (the SVM processes share one memory pool on
    each SMP): that is the reading under which the limit binds for the
    large-footprint applications and FFT's published pre-pinning
    pathology (unpin cost exploding to ~93 us/lookup) reproduces.
    """
    runner = runner or default_runner()
    per_process = memory_limit_bytes // params.TRACE_PROCESSES_PER_NODE
    limit = (_scaled_limit_pages(per_process, scale)
             * params.PAGE_SIZE)
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        cells = [SweepCell((app.name, "prepin", degree), traces,
                           SimConfig(cache_entries=cache_entries,
                                     memory_limit_bytes=limit,
                                     prepin=degree), "utlb")
                 for degree in prepin_degrees]
        results = runner.run_cells(cells)
        per_degree = {}
        for degree, result in zip(prepin_degrees, results):
            stats = result.stats
            per_degree[degree] = {
                "pin_us": stats.amortized_pin_cost_us,
                "unpin_us": stats.amortized_unpin_cost_us,
                "pages_pinned": stats.pages_pinned,
                "pages_unpinned": stats.pages_unpinned,
                "ni_misses": stats.ni_miss_rate,
            }
        data[app.name] = per_degree
    return data


def render_table7(data):
    apps = list(data)
    degrees = list(next(iter(data.values())))
    headers = ["Cost", "pages"] + apps
    rows = []
    for metric, label in (("pin_us", "pin"), ("unpin_us", "unpin")):
        for index, degree in enumerate(degrees):
            row = [label if index == 0 else "", degree]
            row += [round(data[app][degree][metric], 1) for app in apps]
            rows.append(row)
    return format_table(
        headers, rows,
        title="Table 7: Amortized pinning and unpinning cost (us/lookup) "
              "per page-pinning strategy (16 MB limit)",
        precision=1)


# ---------------------------------------------------------------------------
# Table 8 — cache size and associativity
# ---------------------------------------------------------------------------

def table8(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED, sizes=SIZES,
           runner=None):
    """Overall Shared UTLB-Cache miss rates vs size and associativity."""
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        grid = sweep_associativity(traces, sizes, SimConfig(), runner=runner)
        data[app.name] = {
            key: result.stats.ni_miss_rate for key, result in grid.items()
        }
    return data


def render_table8(data):
    apps = list(data)
    keys = list(next(iter(data.values())))
    sizes = sorted({size for size, _ in keys})
    labels = ("direct", "2-way", "4-way", "direct-nohash")
    headers = ["Cache", "Associativity"] + apps
    rows = []
    for size in sizes:
        for index, label in enumerate(labels):
            row = ["%dK" % (size // 1024) if index == 0 else "", label]
            row += [round(data[app][(size, label)], 2) for app in apps]
            rows.append(row)
    return format_table(
        headers, rows,
        title="Table 8: Overall miss rates in the Shared UTLB-Cache vs "
              "cache size and associativity")


# ---------------------------------------------------------------------------
# Figure 7 — miss-class breakdown
# ---------------------------------------------------------------------------

def figure7(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED,
            sizes=(1024, 4096, 8192, 16384), runner=None):
    """3C breakdown of NIC translation-cache misses per app and size."""
    runner = runner or default_runner()
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        cells = [SweepCell((app.name, "3c", size), traces,
                           SimConfig(cache_entries=size, classify=True),
                           "utlb")
                 for size in sizes]
        results = runner.run_cells(cells)
        data[app.name] = {size: result.breakdown.rates()
                          for size, result in zip(sizes, results)}
    return data


def render_figure7(data):
    entries = []
    for app, per_size in data.items():
        for size, rates in per_size.items():
            entries.append(("%s %2dK" % (app, size // 1024), rates))
    chart = render_breakdown_chart(entries)
    return ("Figure 7: Breakdown of translation cache miss rates\n"
            "(infinite host memory, direct-mapped, no prefetch)\n" + chart)


# ---------------------------------------------------------------------------
# Figure 8 — prefetching
# ---------------------------------------------------------------------------

def figure8(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED,
            sizes=SIZES, degrees=params.PREFETCH_SWEEP, app_name="radix",
            runner=None):
    """Radix miss rate and lookup cost vs prefetch degree and size."""
    app = make_app(app_name)
    traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
    grid = sweep_prefetch(traces, sizes, degrees, SimConfig(),
                          runner=runner)
    data = {}
    for (size, degree), result in grid.items():
        data.setdefault(size, {})[degree] = {
            "miss_rate": result.stats.ni_miss_rate,
            "lookup_cost_us": result.stats.avg_lookup_cost_us,
        }
    return data


def render_figure8(data):
    miss_series = {}
    cost_series = {}
    for size, per_degree in data.items():
        label = "%dK" % (size // 1024)
        miss_series[label] = sorted(
            (degree, cell["miss_rate"])
            for degree, cell in per_degree.items())
        cost_series[label] = sorted(
            (degree, cell["lookup_cost_us"])
            for degree, cell in per_degree.items())
    return (
        "Figure 8a: RADIX cache miss rate vs prefetch degree\n"
        + render_line_chart(miss_series, x_label="entries fetched per miss",
                            y_label="miss rate")
        + "\n\nFigure 8b: RADIX average lookup cost (us) vs prefetch degree\n"
        + render_line_chart(cost_series, x_label="entries fetched per miss",
                            y_label="lookup cost (us)"))


# ---------------------------------------------------------------------------
# Table 8 companion — effective NIC lookup cost per organisation
# ---------------------------------------------------------------------------

def table8_cost(table8_data, cost_model=None):
    """Turn Table 8's miss rates into effective NIC lookup costs.

    "When the actual cost of lookup is considered, the set-associative
    caches lose to the direct-map cache" (Section 6.3): the firmware
    probes set entries serially, so each extra way costs another 0.8 µs
    probe on average.  Effective cost per lookup =
    probe cost(assoc, miss rate) + miss_cost(1) * miss rate.

    Returns {app: {(size, org): cost_us}} over the Table 8 grid.
    """
    cm = cost_model or DEFAULT_COST_MODEL
    assoc_of = {"direct": 1, "2-way": 2, "4-way": 4, "direct-nohash": 1}
    data = {}
    for app, cells in table8_data.items():
        out = {}
        for (size, org), miss_rate in cells.items():
            assoc = assoc_of[org]
            out[(size, org)] = (cm.ni_probe_cost(assoc, miss_rate)
                                + cm.miss_cost(1) * miss_rate)
        data[app] = out
    return data


def render_table8_cost(data):
    apps = list(data)
    keys = list(next(iter(data.values())))
    sizes = sorted({size for size, _ in keys})
    labels = ("direct", "2-way", "4-way", "direct-nohash")
    headers = ["Cache", "Associativity"] + apps
    rows = []
    for size in sizes:
        for index, label in enumerate(labels):
            row = ["%dK" % (size // 1024) if index == 0 else "", label]
            row += [round(data[app][(size, label)], 2) for app in apps]
            rows.append(row)
    return format_table(
        headers, rows,
        title="Table 8 companion: effective NIC lookup cost (us) with "
              "serial firmware probing — the Section 6.3 argument for "
              "direct mapping")


# ---------------------------------------------------------------------------
# Extension: N-way mechanism comparison over the Table 4 grid
# ---------------------------------------------------------------------------

#: The default comparison set: the paper's two evaluated designs plus
#: the three modern translation mechanisms from the registry.  ``pp``
#: (per-process UTLB) joins when callers ask for ``all`` — its numbers
#: are flat across cache sizes because it has no shared cache.
COMPARE_MECHANISMS = ("utlb", "intr", "victima", "utopia", "sparta-range")


def mechanism_table(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED,
                    sizes=(1024, 16384), mechanisms=None, runner=None,
                    apps=None):
    """Table-4-style grid replayed once per registered mechanism.

    Every application runs at every cache size under every mechanism in
    ``mechanisms`` (default :data:`COMPARE_MECHANISMS`), through the same
    :class:`~repro.sim.runner.SweepRunner` fan-out as the paper tables.
    ``apps`` overrides the workload list (default: Table 3 order) —
    the hook the post-paper families (``zipf-kv``) ride in on.  Returns
    ``{app: {size: {mechanism: {"ni_misses", "unpins",
    "lookup_cost_us", "stats"}}}}``.
    """
    runner = runner or default_runner()
    mechanisms = tuple(mechanisms or COMPARE_MECHANISMS)
    data = {}
    for app in (apps if apps is not None else _apps()):
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        cells = []
        for size in sizes:
            for mechanism in mechanisms:
                config = SimConfig(cache_entries=size, mechanism=mechanism)
                cells.append(SweepCell((app.name, size, mechanism),
                                       traces, config))
        results = runner.run_cells(cells)
        per_size = {}
        index = 0
        for size in sizes:
            per_mech = {}
            for mechanism in mechanisms:
                stats = results[index].stats
                index += 1
                per_mech[mechanism] = {
                    "ni_misses": stats.ni_miss_rate,
                    "unpins": stats.unpin_rate,
                    "lookup_cost_us": stats.avg_lookup_cost_us,
                    "stats": stats,
                }
            per_size[size] = per_mech
        data[app.name] = per_size
    return data


def render_mechanism_table(data):
    apps = list(data)
    sizes = list(next(iter(data.values())))
    mechanisms = list(next(iter(next(iter(data.values())).values())))
    headers = (["Cache", "Mechanism"]
               + ["%s:NI" % a for a in apps]
               + ["%s:us" % a for a in apps])
    rows = []
    for size in sizes:
        for index, mechanism in enumerate(mechanisms):
            row = ["%dK" % (size // 1024) if index == 0 else "", mechanism]
            for app in apps:
                row.append(round(data[app][size][mechanism]["ni_misses"], 2))
            for app in apps:
                row.append(
                    round(data[app][size][mechanism]["lookup_cost_us"], 2))
            rows.append(row)
    return format_table(
        headers, rows,
        title="Mechanism comparison: NI miss rate and average lookup "
              "cost (us/lookup) per mechanism over the Table 4 grid")


# ---------------------------------------------------------------------------
# Extension: per-component cost breakdown (not a paper table; explains
# *why* Table 6 comes out the way it does)
# ---------------------------------------------------------------------------

def cost_breakdown(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED,
                   cache_entries=params.DEFAULT_UTLB_CACHE_ENTRIES,
                   runner=None):
    """Per-lookup time split into its components, per app and mechanism.

    Components: user check, pinning, NIC hit, NIC miss handling,
    unpinning, interrupts — the terms of the Section 6.2 equations,
    measured separately.
    """
    runner = runner or default_runner()
    data = {}
    for app in _apps():
        traces = generate_traces(app, nodes=nodes, seed=seed, scale=scale)
        config = SimConfig(cache_entries=cache_entries)
        mechanisms = ("utlb", "intr")
        results = runner.run_cells(
            [SweepCell((app.name, "breakdown", mechanism), traces, config,
                       mechanism)
             for mechanism in mechanisms])
        per_mech = {}
        for mechanism, result in zip(mechanisms, results):
            stats = result.stats
            lookups = stats.lookups or 1
            per_mech[mechanism] = {
                "check_us": stats.check_time_us / lookups,
                "pin_us": stats.pin_time_us / lookups,
                "ni_hit_us": stats.ni_hit_time_us / lookups,
                "ni_miss_us": stats.ni_miss_time_us / lookups,
                "unpin_us": stats.unpin_time_us / lookups,
                "interrupt_us": stats.interrupt_time_us / lookups,
                "total_us": stats.avg_lookup_cost_us,
            }
        data[app.name] = per_mech
    return data


BREAKDOWN_COMPONENTS = ("check_us", "pin_us", "ni_hit_us", "ni_miss_us",
                        "unpin_us", "interrupt_us")


def render_cost_breakdown(data):
    headers = (["app", "mechanism"]
               + [c[:-3] for c in BREAKDOWN_COMPONENTS] + ["total"])
    rows = []
    for app, per_mech in data.items():
        for mechanism, cell in per_mech.items():
            rows.append([app, mechanism]
                        + [round(cell[c], 2) for c in BREAKDOWN_COMPONENTS]
                        + [round(cell["total_us"], 2)])
    return format_table(
        headers, rows,
        title="Per-lookup cost breakdown (us) by component "
              "(the Section 6.2 equation terms, measured)")


# ---------------------------------------------------------------------------
# Run everything
# ---------------------------------------------------------------------------

def make_runner(workers=None, cache_dir=None, trace_dir=None):
    """The evaluation's default :class:`SweepRunner`.

    ``workers=None`` reads ``REPRO_WORKERS`` (default 1).
    ``cache_dir=None`` enables the cache at its default location
    (``REPRO_CACHE_DIR`` or the user cache dir); pass ``cache_dir=False``
    to disable caching.  ``trace_dir`` (a directory path) dumps one JSONL
    event stream per traceable cell — see
    :class:`~repro.sim.runner.SweepRunner`.
    """
    if workers is None:
        workers = workers_from_env()
    if cache_dir is None:
        cache_dir = default_cache_dir()
    elif cache_dir is False:
        cache_dir = None
    return SweepRunner(workers=workers, cache_dir=cache_dir,
                       trace_dir=trace_dir)


def run_all(scale=1.0, nodes=DEFAULT_NODES, seed=DEFAULT_SEED, stream=None,
            runner=None, workers=None, cache_dir=None):
    """Run the full evaluation; returns the rendered report string.

    ``stream`` (e.g. sys.stdout) receives each section as it finishes so
    long runs show progress.  With no ``runner``, one is built via
    :func:`make_runner` — parallel if ``workers`` (or ``REPRO_WORKERS``)
    says so, caching on by default so a re-run only replays cells whose
    inputs changed.  The runner's ``metrics`` attribute holds the
    machine-readable per-cell report afterwards.
    """
    owned = runner is None
    if owned:
        runner = make_runner(workers=workers, cache_dir=cache_dir)
    sections = []

    def emit(text):
        sections.append(text)
        if stream is not None:
            stream.write(text + "\n\n")
            stream.flush()

    try:
        emit(render_table1(table1()))
        emit(render_table2(table2()))
        emit(render_table3(table3(scale=scale, nodes=nodes, seed=seed)))
        t4 = table4(scale=scale, nodes=nodes, seed=seed, runner=runner)
        emit(render_table4(t4))
        emit(render_table5(table5(scale=scale, nodes=nodes, seed=seed,
                                  runner=runner)))
        emit(render_table6(table6(table4_data=t4)))
        emit(render_table7(table7(scale=scale, nodes=nodes, seed=seed,
                                  runner=runner)))
        t8 = table8(scale=scale, nodes=nodes, seed=seed, runner=runner)
        emit(render_table8(t8))
        emit(render_table8_cost(table8_cost(t8)))
        emit(render_figure7(figure7(scale=scale, nodes=nodes, seed=seed,
                                    runner=runner)))
        emit(render_figure8(figure8(scale=scale, nodes=nodes, seed=seed,
                                    runner=runner)))
    finally:
        if owned:
            runner.close()
    return "\n\n".join(sections)
