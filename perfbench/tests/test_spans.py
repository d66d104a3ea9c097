"""Span self-time arithmetic and the traced-run wrappers."""

import pytest

import layers
from spans import Span, SpanRecorder, covered, self_times, totals_by_name


class StepClock:
    """A clock that returns the given readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(4.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 3.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == 8.0


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("gen", 1.5, 2.5, 1, 1),
        Span("b", 5.0, 9.0, 0, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # The self times of one run add up to its root's duration.
    assert sum(self_times(spans)) == 10.0


def test_totals_by_name_sums_self_time_and_calls_within_one_run():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("load", 1.0, 2.0, 0, 1),
        Span("load", 3.0, 5.0, 0, 1),
        Span("root", 20.0, 21.0, None, 2),
        Span("load", 20.0, 20.5, 3, 2),
    ]
    totals = totals_by_name(spans, 1)
    assert totals == {"root": (7.0, 1), "load": (3.0, 2)}
    assert totals_by_name(spans, 2) == {"root": (0.5, 1), "load": (0.5, 1)}


def test_recorder_nests_spans_under_the_open_one():
    recorder = SpanRecorder(clock=StepClock(0.0, 1.0, 3.0, 4.0))
    recorder.run = 7
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert [(s.name, s.start, s.end, s.parent, s.run)
            for s in recorder.spans] == [("outer", 0.0, 4.0, None, 7),
                                         ("inner", 1.0, 3.0, 0, 7)]
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_wrap_times_the_call_and_counts_its_result():
    recorder = SpanRecorder()

    def on_return(rec, args, result):
        rec.counts["bytes"] += result

    traced = recorder.wrap("publish", lambda n: n * 2, on_return)
    assert traced(21) == 42
    assert recorder.counts["bytes"] == 42
    assert [s.name for s in recorder.spans] == ["publish"]
    assert recorder.spans[0].end >= recorder.spans[0].start


def test_timed_iteration_attributes_generation_to_the_consumer():
    recorder = SpanRecorder()
    consumer = recorder.open("fingerprint")
    records = list(recorder.timed_iteration(
        "gen", lambda: iter(range(10000)), identity="t"))
    recorder.close(consumer)
    assert records == list(range(10000))
    generation = [s for s in recorder.spans if s.name == "gen"]
    # 4096-record chunks plus the empty pull that ends the pass.
    assert len(generation) == 4
    assert all(s.parent == consumer for s in generation)
    assert recorder.counts["gen.records"] == 10000
    assert recorder.trace_records == {"t": 10000}
    selfs = self_times(recorder.spans)
    total = recorder.spans[0].end - recorder.spans[0].start
    assert selfs[0] == pytest.approx(
        total - sum(s.end - s.start for s in generation))


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert layers.percentile(values, 50) == 50
    assert layers.percentile(values, 95) == 95
    assert layers.percentile([3.0], 95) == 3.0
    assert layers.percentile([], 50) == 0.0
