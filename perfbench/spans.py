"""In-memory spans recorded around a program's layer boundaries.

The benchmark's traced run replaces selected functions of the product
with wrappers that open a span on entry and close it on exit.  Spans are
kept in memory as ``Span`` records (name, start, end, parent, run id)
and written out once, when the benchmark ends.  A layer's *self time* is
its span's duration minus the part of that interval its child spans
cover, so the self times of one run's spans add up to the duration of
its root span.

Nothing here knows the product; ``layers.py`` says which functions to
wrap.
"""

import collections
import json
import time
from itertools import islice

#: Records pulled from a lazy trace source per generation span.  Big
#: enough that span bookkeeping is noise next to generating the records,
#: small enough that buffering them costs no measurable memory.
GENERATION_CHUNK = 4096


class Span:
    """One timed call: ``end`` is None while the call is still open."""

    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name, start, end, parent, run):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run}


class SpanRecorder:
    """Spans and counters of one process, single-threaded.

    ``run`` is the identifier stamped on every span opened while it is
    set; the benchmark sets it to the iteration being traced.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        #: Records in one full pass over each distinct lazy trace source.
        self.trace_records = {}
        self.run = None
        self._stack = []

    def open(self, name):
        """Start a span under the innermost open one; returns its id."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.run))
        self._stack.append(index)
        return index

    def close(self, index):
        """End the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span %r closed out of order"
                               % (self.spans[index].name,))
        self._stack.pop()
        self.spans[index].end = self.clock()

    def add(self, name, start, end):
        """Record an already finished span under the innermost open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.run))

    def wrap(self, name, function, on_return=None):
        """``function`` timed as a span named ``name``.

        ``on_return(recorder, args, result)`` runs after the call, outside
        the span, to turn the result into counts.
        """
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_return is not None:
                on_return(recorder, args, result)
            return result

        return traced

    def timed_iteration(self, name, open_source, identity):
        """Iterate ``open_source()`` with its production time as spans.

        Records are pulled in chunks of :data:`GENERATION_CHUNK`; each
        pull is one span under whatever span is open at that moment (the
        consumer's), so the consumer's self time excludes generation.
        Opening the source is timed with the first pull, since a
        generator may do its set-up eagerly.  Counts records produced,
        and remembers the length of a completed pass per ``identity`` so
        wasted passes can be counted.
        """
        source = None
        produced = 0
        while True:
            start = self.clock()
            if source is None:
                source = open_source()
            block = list(islice(source, GENERATION_CHUNK))
            self.add(name, start, self.clock())
            if not block:
                break
            produced += len(block)
            self.counts[name + ".records"] += len(block)
            yield from block
        self.trace_records[identity] = max(
            produced, self.trace_records.get(identity, 0))

    def dump(self, handle):
        """Write every span to ``handle`` as one JSON object per line."""
        for index, span in enumerate(self.spans):
            handle.write(json.dumps(span.to_dict(index)) + "\n")


def covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        intervals = [(c.start, c.end) for c in children.get(index, ())]
        out.append(span.end - span.start
                   - covered(intervals, span.start, span.end))
    return out


def totals_by_name(spans, run):
    """``{name: (self seconds, calls)}`` over the spans of one run."""
    selfs = self_times(spans)
    totals = collections.defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, selfs):
        if span.run == run:
            entry = totals[span.name]
            entry[0] += own
            entry[1] += 1
    return {name: (seconds, calls) for name, (seconds, calls)
            in totals.items()}

