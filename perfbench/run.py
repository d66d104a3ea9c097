"""The repository's benchmark: the paper evaluation and a zipf-kv sweep,
run through the product's entry points, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-eval-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``paper-eval-cold``, ``paper-eval-warm``, ``zipf-sweep`` (see
``workloads.py``).  A run repeats the workload's timed call, each in a
fresh interpreter, until ``--seconds`` would be exceeded (at least
:data:`MIN_CALLS` times), checks every call's results, re-answers
sample cells another way, and prints a report followed, as its last
line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, as medians over the
calls; ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics of the traced ones (``layers.py``), with
the spans written to ``.perfbench_work/``.  Operations are cells.

The product is imported from ``src/`` beside this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import argparse
import contextlib
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Timed calls per run, at the least; more while ``--seconds`` allows.
#: Metrics are medians over them.
MIN_CALLS = 3

#: Set-ups measured per run: the untraced calls' set-ups, topped up by
#: interpreters that only set up, since a few calls give a noisy median.
SETUP_SAMPLES = 11

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "lookups_per_s": "lookups/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "paper_err_pp": "pp",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The timed call's own process: its result cache, its run id and,
    # when traced, the file its spans are appended to.
    parser.add_argument("--call", metavar="CACHE_DIR",
                        help=argparse.SUPPRESS)
    parser.add_argument("--run", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--span-file", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


#: ``prctl`` option that makes this process adopt its orphaned
#: descendants (Linux), so it can wait for them before it exits.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds to wait for leftover child processes to end before killing
#: them.
REAP_TIMEOUT_S = 20.0


def stop_resource_tracker():
    """Stop this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it to end.

    Publishing a shared-memory stream block starts the tracker, a child
    process that otherwise outlives the process that started it.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def adopt_orphans():
    """Become the reaper of this process's orphaned descendants, where
    the platform allows, so :func:`reap_children` waits for them too."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids():
    """Process ids whose parent is this process (Linux ``/proc``)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry, "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name, in parentheses, may hold spaces.
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children(timeout=REAP_TIMEOUT_S):
    """Wait until every child of this process has ended; kill those
    still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def measure(runner, call, recorder=None):
    """Run one timed call: the product call plus ``runner.close()``.

    CPU time and peak RSS include the pool workers, which the runner has
    reaped once ``close()`` returns; the peak is this process's, whose
    only work is the one call.  With a ``recorder`` the product's layer
    boundaries are wrapped in spans for the call's duration.
    """
    from layers import ROOT as ROOT_SPAN, install

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            install(recorder, stack)
            root = recorder.open(ROOT_SPAN)
        start = time.perf_counter()
        try:
            output = call()
            runner.close()
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.close(root)
    own_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (cpu_seconds(own_after) - cpu_seconds(own)
           + cpu_seconds(children_after) - cpu_seconds(children))
    peak_mb = max(own_after.ru_maxrss, children_after.ru_maxrss) / 1024.0
    return output, {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb}


def summarize(samples):
    """``(median, q1, q3, n)`` of a list of numbers."""
    values = sorted(samples)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def print_table(rows, moves=None):
    print("%-34s %-10s %14s %14s %14s %3s" % (
        "metric", "unit", "median", "q1", "q3", "n"))
    for name, unit, (median, q1, q3, n) in rows:
        line = "%-34s %-10s %14.6g %14.6g %14.6g %3d" % (
            name, unit, median, q1, q3, n)
        if moves:
            line += "  moves %s on %s" % moves[name]
        print(line)


def timed_call(args, workload):
    """The ``--call`` side: one timed call in this fresh interpreter.

    Prints one JSON object: when set-up finished (``ready``, on the
    system-wide monotonic clock, so the parent can subtract its spawn
    time), the call's costs, its cell digests, and with ``--span-file``
    its per-layer metrics, its spans appended to that file.
    """
    import layers
    import workloads
    from spans import SpanRecorder

    runner, call = workload.setup(args.seed, args.call)
    recorder = None
    if args.span_file:
        recorder = SpanRecorder()
        recorder.run = args.run
    ready = time.monotonic()
    if args.setup_only:
        runner.close()
        print(json.dumps({"ready": ready}))
        return
    output, measured = measure(runner, call, recorder)
    report = runner.metrics.to_dict()
    measured.update(
        ready=ready,
        lookups=sum(cell["lookups"] for cell in report["cells"]),
        replayed=runner.metrics.cache_misses,
        digests=runner.digests(),
        text_sha256=(workloads.text_digest(output)
                     if isinstance(output, str) else None))
    if recorder is not None:
        measured["layers"] = layers.layer_metrics(recorder, report,
                                                  measured["wall_s"])
        with open(args.span_file, "a", encoding="utf-8") as handle:
            recorder.dump(handle)
    print(json.dumps(measured))


def spawn_call(args, cache_dir, run, span_file, setup_only=False):
    """Run one timed call in a fresh interpreter, or with ``setup_only``
    only its set-up; returns its report with ``setup_s``, the time from
    spawn to the end of its set-up."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--call", cache_dir,
               "--run", str(run)]
    if span_file:
        command += ["--span-file", span_file]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    finished = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                              text=True)
    call = json.loads(finished.stdout.strip().splitlines()[-1])
    call["setup_s"] = call["ready"] - spawned
    return call


def main(argv=None):
    """Run the benchmark; every process it starts has ended on return."""
    args = parse_args(argv)
    if not args.call:
        adopt_orphans()
    try:
        return _main(args)
    finally:
        stop_resource_tracker()
        if not args.call:
            reap_children()


def _main(args):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: the product source %s is missing" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.call:
        timed_call(args, workload)
        return 0

    run_dir = os.path.join(WORK, "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    span_file = None
    if args.trace:
        span_file = os.path.join(WORK, "spans-%s-seed%d.jsonl"
                                 % (workload.name, args.seed))
        open(span_file, "w").close()
    workload.prepare(args.seed, run_dir)

    checks = workloads.Checks()
    reference = None
    untraced = []
    traced = []
    previous = None
    calls = 0
    loop_start = time.monotonic()
    while True:
        cache_dir = workload.cache_dir(run_dir, calls)
        tracing = args.trace and calls % 2 == 1
        try:
            call = spawn_call(args, cache_dir, calls,
                              span_file if tracing else None)
        except subprocess.CalledProcessError:
            # The call raised: all of its cells count as failed.
            cells = len(reference) if reference else 1
            checks.cells(cells, cells, "call %d raised" % calls)
            call = None
        if call is not None:
            workload.check(call, reference, checks)
            if reference is None:
                reference = call["digests"]
            if tracing:
                traced.append(call["layers"])
            else:
                call["lookups_per_s"] = call["lookups"] / call["wall_s"]
                untraced.append(call)
        if previous is not None:
            workload.release(previous)
        previous = cache_dir
        calls += 1
        elapsed = time.monotonic() - loop_start
        if calls >= MIN_CALLS and elapsed + elapsed / calls > args.seconds:
            break

    if not untraced or (args.trace and not traced):
        print("perfbench: no timed call completed", file=sys.stderr)
        return 1
    loop_s = time.monotonic() - loop_start
    setups = [call["setup_s"] for call in untraced]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn_call(args, os.path.join(run_dir, "setup"),
                                 calls, None, setup_only=True)["setup_s"])
    paper_err_pp = workload.verify(args.seed, previous, checks)
    shutil.rmtree(run_dir)

    print("workload %s (seed %d): %s" % (workload.name, args.seed,
                                         workload.why))
    print("pool of %d workers; %d timed calls (%d traced), one fresh "
          "interpreter each, in %.1f s; %d set-ups measured" % (
              workloads.WORKERS, calls, len(traced), loop_s, len(setups)))
    print("cells per call: %d; result digest %s"
          % (len(reference), workloads.run_digest(reference)))
    if workload.name == "paper-eval-warm":
        print("cold fill digest %s"
              % workloads.run_digest(workload.fill["digests"]))
    for note in checks.notes:
        print(note)
    print("paper_err_pp is the model's error against the paper's "
          "published simulation (Table 4), not against hardware")

    if args.trace:
        overhead = (
            summarize([s["bench.traced_wall_s"] for s in traced])[0]
            - summarize([c["wall_s"] for c in untraced])[0])
        for sample in traced:
            sample["bench.tracing_overhead_s"] = overhead
        rows = [(name, unit, summarize([s[name] for s in traced]))
                for name, unit, _better, _moves, _on in layers.LAYER_METRICS]
        moves = {name: (metric_moves, on) for name, _unit, _better,
                 metric_moves, on in layers.LAYER_METRICS}
        share = min(sample["bench.accounted_share"] for sample in traced)
        accounted = share >= layers.ACCOUNTED_SHARE_MIN
        print("named layer self times plus pool wait cover %.1f%% of the "
              "traced wall_s (required: %.0f%%)%s"
              % (100 * share, 100 * layers.ACCOUNTED_SHARE_MIN,
                 "" if accounted else " -- NOT MET, so correct is false"))
        print_table(rows, moves)
        print("spans written to %s" % os.path.relpath(span_file, ROOT))
    else:
        accounted = True
        rows = []
        for name, unit in END_TO_END.items():
            if name == "paper_err_pp":
                values = [paper_err_pp]
            elif name == "setup_s":
                values = setups
            else:
                values = [call[name] for call in untraced]
            rows.append((name, unit, summarize(values)))
        print_table(rows)

    print(json.dumps({
        "correct": checks.failed == 0 and accounted,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": stats[0], "unit": unit}
                    for name, unit, stats in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
