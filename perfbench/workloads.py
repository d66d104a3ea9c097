"""The benchmark's workloads, driven through the product's entry points.

Each workload is one closed-loop sweep from a single process with a
``SweepRunner`` pool of :data:`WORKERS` workers:

* ``paper-eval-cold``: ``repro.sim.experiments.run_all`` (what
  ``python -m repro`` runs) into a fresh, empty result cache;
* ``paper-eval-warm``: the same call against a cache that a cold run of
  the same commit filled during set-up;
* ``zipf-sweep``: one large ``zipf-kv`` node trace swept through
  ``SweepRunner.run_cells`` as five cells.

Each timed call runs in a fresh interpreter, as ``python -m repro``
does: the call's process builds the runner and the call (``setup``,
which returns both) and reports its cell digests.  The benchmark's own
process fills the warm cache (``prepare``), checks each call's digests
(``check``) and, after the timed calls, re-answers a sample of cells
another way (``verify``).
The unit of work, and of failure, is the cell.
"""

import hashlib
import json
import os
import shutil

from repro import paperdata, params
from repro.sim import compare
from repro.sim import experiments as exp
from repro.sim.config import SimConfig
from repro.sim.runner import SweepCell, SweepRunner
from repro.traces.synth import make_workload

#: Pool size of every timed run.  Fixed rather than the host's CPU
#: count, so runs on different hosts drive the same program.
WORKERS = 2

#: Scale and cluster size of the paper evaluation.  At 0.1 a cold run
#: takes about 8 s on 2 CPUs, so a 30 s run repeats it three times and
#: reports medians.
PAPER_SCALE = 0.1
PAPER_NODES = 4

#: ``zipf-kv`` scale of the sweep (300k lookups over ~96k pages, six
#: times the largest 16K-entry NIC cache; about 7 s on 2 CPUs) and of
#: its reference check.
ZIPF_SCALE = 1.5
ZIPF_CHECK_SCALE = 0.02
ZIPF_SIZES = (1024, 4096, 16384)


def cell_digest(label, mechanism, result_dict):
    """Content hash of one answered cell: its label, mechanism, result."""
    blob = json.dumps({"label": str(label), "mechanism": mechanism,
                       "result": result_dict},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def text_digest(text):
    """Content hash of a rendered report."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(cell_digests):
    """One hash over a run's cell digests, in submission order."""
    return hashlib.sha256("\n".join(cell_digests).encode("ascii")).hexdigest()


class RecordingRunner(SweepRunner):
    """A ``SweepRunner`` that keeps every answered cell with its result,
    so results can be digested after the timed call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answered = []

    def run_cells(self, cells):
        cells = [c if isinstance(c, SweepCell) else SweepCell(*c)
                 for c in cells]
        results = super().run_cells(cells)
        self.answered.extend(zip(cells, results))
        return results

    def digests(self):
        return [cell_digest(cell.label, cell.mechanism, result.to_dict())
                for cell, result in self.answered]


class Checks:
    """Cells attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def cells(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append("FAIL %s: %d of %d cells" % (what, failed,
                                                           attempted))

    def compare(self, digests, expected, what):
        """Count cells whose digest differs from, or is missing in, the
        expected list."""
        failed = sum(1 for got, want in zip(digests, expected)
                     if got != want)
        failed += abs(len(expected) - len(digests))
        self.cells(max(len(digests), len(expected)), failed, what)


def reference_check(answered, samples, checks):
    """Re-answer sample cells through the reference engine.

    ``samples`` is ``[(description, predicate on a SweepCell)]``; the
    first answered cell matching each predicate is replayed again with
    ``SimConfig(engine="reference")``, serially and uncached, and must
    give the identical result dict.
    """
    with SweepRunner(workers=1, analytic=False) as runner:
        for what, matches in samples:
            found = [(cell, result) for cell, result in answered
                     if matches(cell)]
            if not found:
                checks.cells(1, 1, "reference sample %s missing" % what)
                continue
            cell, result = found[0]
            again = runner.run_cells([SweepCell(
                cell.label, cell.traces,
                cell.config.replace(engine="reference"), cell.mechanism)])
            same = again[0].to_dict() == result.to_dict()
            checks.cells(1, 0 if same else 1,
                         "reference engine on %s" % what)


def paper_error_pp(table4_data):
    """Mean |measured - published| of the Table 4 UTLB check-miss and
    NI-miss rates over the published apps and cache sizes, in
    percentage points."""
    errors = []
    for app, per_size in paperdata.TABLE4.items():
        for size, published in per_size.items():
            measured = table4_data[app][size]["utlb"]
            errors.append(abs(measured["check_misses"]
                              - published["utlb"][0]))
            errors.append(abs(measured["ni_misses"] - published["utlb"][1]))
    return 100.0 * sum(errors) / len(errors)


class PaperEval:
    """The full paper evaluation, ``run_all``, cold or warm."""

    #: One cell per mechanism and replay tier, on radix at 1K entries.
    SAMPLES = (
        ("analytic utlb (Table 4)",
         lambda c: c.label == ("radix", 1024, "utlb")
         and c.config.memory_limit_bytes is None),
        ("pinning-limited utlb (Table 5)",
         lambda c: c.label == ("radix", 1024, "utlb")
         and c.config.memory_limit_bytes is not None),
        ("intr (Table 4)",
         lambda c: c.label == ("radix", 1024, "intr")
         and c.config.memory_limit_bytes is None),
        ("fast utlb, prefetch 4 (Figure 8)",
         lambda c: c.label == (1024, 4) and c.mechanism == "utlb"),
    )

    def __init__(self, warm):
        self.warm = warm
        self.fill = None
        if warm:
            self.name = "paper-eval-warm"
            self.why = ("the same evaluation on a cache a cold run "
                        "filled: nothing replays, so trace regeneration "
                        "dominates, then cache reads and fingerprints")
        else:
            self.name = "paper-eval-cold"
            self.why = ("python -m repro at scale 0.1: every table and "
                        "figure, 352 cells, into an empty result cache; "
                        "pool replay and trace generation dominate")

    @staticmethod
    def _evaluate(runner, seed):
        return exp.run_all(scale=PAPER_SCALE, nodes=PAPER_NODES, seed=seed,
                           runner=runner)

    def prepare(self, seed, run_dir):
        """Warm only: fill a result cache in ``run_dir`` with a cold run
        of this code, and keep its digests and rendered text."""
        if not self.warm:
            return
        cache_dir = os.path.join(run_dir, "fill")
        with RecordingRunner(workers=WORKERS, cache_dir=cache_dir) as runner:
            text = self._evaluate(runner, seed)
        self.fill = {"text_sha256": text_digest(text),
                     "digests": runner.digests(), "cache_dir": cache_dir}

    def cache_dir(self, run_dir, iteration):
        if self.warm:
            return self.fill["cache_dir"]
        return os.path.join(run_dir, "call-%d" % iteration)

    def setup(self, seed, cache_dir):
        runner = RecordingRunner(workers=WORKERS, cache_dir=cache_dir)
        return runner, lambda: self._evaluate(runner, seed)

    def check(self, call, reference, checks):
        """Compare one call with the reference: the fill when warm, else
        the first call."""
        if not self.warm:
            checks.compare(call["digests"], reference or call["digests"],
                           "results differ between calls")
            return
        checks.compare(call["digests"], self.fill["digests"],
                       "warm results differ from the cold fill")
        if call["text_sha256"] != self.fill["text_sha256"]:
            checks.cells(1, 1, "warm output text differs from the cold fill")
        checks.cells(0, call["replayed"], "warm call replayed cells")

    def release(self, cache_dir):
        if not self.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def verify(self, seed, cache_dir, checks):
        """Check the results a timed call left in ``cache_dir``.

        Reads, all as cache hits, the Table 4/8 comparisons with their
        shape criteria, Table 4 for the paper error, and Table 5 and
        Figure 8 for the remaining reference samples; then re-answers the
        samples through the reference engine.  Returns ``paper_err_pp``.
        """
        with RecordingRunner(workers=1, cache_dir=cache_dir) as runner:
            for name, criteria in (("Table 4", compare.compare_table4),
                                   ("Table 8", compare.compare_table8)):
                before = len(runner.answered)
                findings, _ = criteria(PAPER_SCALE, PAPER_NODES, seed,
                                       runner=runner)
                cells = len(runner.answered) - before
                failing = [label for label, passed in findings
                           if not passed]
                checks.cells(cells, cells if failing else 0,
                             "%s shape criteria (%s)"
                             % (name, "; ".join(failing)))
            table4 = exp.table4(scale=PAPER_SCALE, nodes=PAPER_NODES,
                                seed=seed, runner=runner)
            exp.table5(scale=PAPER_SCALE, nodes=PAPER_NODES, seed=seed,
                       runner=runner)
            exp.figure8(scale=PAPER_SCALE, nodes=PAPER_NODES, seed=seed,
                        runner=runner)
        replayed = runner.metrics.cache_misses
        if replayed:
            checks.notes.append("note: %d checked cells were not in the "
                                "timed call's cache" % replayed)
        reference_check(runner.answered, self.SAMPLES, checks)
        return paper_error_pp(table4)


class ZipfSweep:
    """Five cells over one large ``zipf-kv`` node trace."""

    name = "zipf-sweep"
    why = ("one zipf-kv trace, 300k lookups over 96k pages, in 5 cells: "
           "generating the trace and the straggling pinning-limited "
           "replay dominate")

    @staticmethod
    def cells(seed, scale):
        """utlb at three cache sizes, intr, and utlb under a per-process
        pinning limit a quarter of each process's share of the
        footprint."""
        workload = make_workload("zipf-kv")
        traces = {0: workload.streaming_node(0, seed=seed, scale=scale)}
        limit_pages = max(16, workload.footprint_pages(scale)
                          // workload.server_processes // 4)
        cells = [SweepCell(("utlb", size), traces,
                           SimConfig(cache_entries=size), "utlb")
                 for size in ZIPF_SIZES]
        cells.append(SweepCell(("intr",), traces, SimConfig(), "intr"))
        cells.append(SweepCell(
            ("utlb", "pinning-limited"), traces,
            SimConfig(memory_limit_bytes=limit_pages * params.PAGE_SIZE),
            "utlb"))
        return cells

    def prepare(self, seed, run_dir):
        pass

    def cache_dir(self, run_dir, iteration):
        return os.path.join(run_dir, "call-%d" % iteration)

    def setup(self, seed, cache_dir):
        runner = RecordingRunner(workers=WORKERS, cache_dir=cache_dir)
        cells = self.cells(seed, ZIPF_SCALE)
        return runner, lambda: runner.run_cells(cells)

    def check(self, call, reference, checks):
        checks.compare(call["digests"], reference or call["digests"],
                       "results differ between calls")

    def release(self, cache_dir):
        shutil.rmtree(cache_dir, ignore_errors=True)

    def verify(self, seed, cache_dir, checks):
        """Every cell of the sweep on a small instance of the same trace,
        through the reference engine; then the paper error of a Table 4
        run at the paper evaluation's scale and this seed."""
        with RecordingRunner(workers=1) as runner:
            runner.run_cells(self.cells(seed, ZIPF_CHECK_SCALE))
        reference_check(runner.answered,
                        [(str(cell.label), lambda c, cell=cell: c is cell)
                         for cell, _ in runner.answered], checks)
        with SweepRunner(workers=WORKERS) as runner:
            table4 = exp.table4(scale=PAPER_SCALE, nodes=PAPER_NODES,
                                seed=seed, runner=runner)
        return paper_error_pp(table4)


WORKLOADS = {w.name: w for w in (PaperEval(warm=False), PaperEval(warm=True),
                                 ZipfSweep())}
