"""Synthetic SPLASH-2-like generators: Table 3 fidelity and structure."""

import pytest

from repro import params
from repro.errors import ConfigError
from repro.traces.record import count_lookups, footprint_pages
from repro.traces.merge import split_by_pid
from repro.traces.synth import APPS, TABLE_ORDER, all_apps, make_app


class TestRegistry:
    def test_seven_applications(self):
        assert len(APPS) == 7
        assert set(TABLE_ORDER) == set(APPS)

    def test_make_app_by_name(self):
        assert make_app("fft").name == "fft"

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            make_app("cholesky")

    def test_categories_match_paper(self):
        """Section 6.5: FFT and LU are regular, the rest irregular."""
        for app in all_apps():
            expected = "regular" if app.name in ("fft", "lu") else "irregular"
            assert app.category == expected


@pytest.mark.parametrize("name", sorted(APPS))
class TestTable3Fidelity:
    def test_footprint_within_two_percent(self, name):
        app = make_app(name)
        trace = app.generate_node(0, seed=1)
        achieved = footprint_pages(trace)
        assert abs(achieved - app.footprint_pages) <= \
            0.02 * app.footprint_pages

    def test_lookups_within_one_percent(self, name):
        app = make_app(name)
        trace = app.generate_node(0, seed=1)
        achieved = count_lookups(trace)
        assert abs(achieved - app.lookups) <= 0.01 * app.lookups


@pytest.mark.parametrize("name", sorted(APPS))
class TestStructure:
    def test_deterministic_under_seed(self, name):
        app = make_app(name)
        a = app.generate_node(0, seed=5, scale=0.1)
        b = app.generate_node(0, seed=5, scale=0.1)
        assert a == b

    def test_seed_changes_trace(self, name):
        app = make_app(name)
        a = app.generate_node(0, seed=5, scale=0.1)
        b = app.generate_node(0, seed=6, scale=0.1)
        assert a != b

    def test_timestamps_sorted(self, name):
        trace = make_app(name).generate_node(0, seed=1, scale=0.1)
        assert all(trace[i].timestamp <= trace[i + 1].timestamp
                   for i in range(len(trace) - 1))

    def test_five_processes_per_node(self, name):
        trace = make_app(name).generate_node(0, seed=1, scale=0.1)
        assert len(split_by_pid(trace)) == params.TRACE_PROCESSES_PER_NODE

    def test_page_sized_sends(self, name):
        """SVM moves one 4 KB page per request."""
        trace = make_app(name).generate_node(0, seed=1, scale=0.1)
        assert all(r.nbytes == params.PAGE_SIZE for r in trace)
        assert all(r.op == "send" for r in trace)

    def test_cluster_generation_distinct_nodes(self, name):
        traces = make_app(name).generate_cluster(nodes=2, seed=1, scale=0.1)
        assert set(traces) == {0, 1}
        pids0 = set(split_by_pid(traces[0]))
        pids1 = set(split_by_pid(traces[1]))
        assert not pids0 & pids1        # cluster-unique pids

    def test_scale_shrinks_trace(self, name):
        app = make_app(name)
        small = count_lookups(app.generate_node(0, seed=1, scale=0.1))
        full = app.lookups
        assert small < full * 0.2

    def test_nonpositive_scale_rejected(self, name):
        with pytest.raises(ConfigError):
            make_app(name).generate_node(0, seed=1, scale=0)

    def test_tiny_scale_clamped_to_minimum(self, name):
        trace = make_app(name).generate_node(0, seed=1, scale=1e-6)
        assert footprint_pages(trace) >= 32


@pytest.mark.parametrize("name", sorted(APPS))
class TestStreamingProtocol:
    """The streaming record protocol: lazy generation must be invisible."""

    def test_iter_node_matches_generate_node(self, name):
        app = make_app(name)
        assert list(app.iter_node(0, seed=2, scale=0.1)) == \
            app.generate_node(0, seed=2, scale=0.1)

    def test_streaming_node_is_reiterable(self, name):
        source = make_app(name).streaming_node(0, seed=2, scale=0.1)
        assert list(source) == list(source)

    def test_streaming_node_pickles(self, name):
        import pickle
        source = make_app(name).streaming_node(0, seed=2, scale=0.1)
        clone = pickle.loads(pickle.dumps(source))
        assert list(clone) == list(source)

    def test_streaming_cluster_matches_eager_cluster(self, name):
        app = make_app(name)
        eager = app.generate_cluster(nodes=2, seed=1, scale=0.1)
        streaming = app.streaming_cluster(nodes=2, seed=1, scale=0.1)
        assert set(streaming) == set(eager)
        for node in eager:
            assert list(streaming[node]) == eager[node]


class TestSharedLayout:
    def test_all_processes_use_common_base(self):
        """Every process maps its region at DATA_BASE — the SPMD layout
        that makes no-offset caches collide across processes."""
        from repro.traces.synth import DATA_BASE
        trace = make_app("barnes").generate_node(0, seed=1, scale=0.1)
        for pid, records in split_by_pid(trace).items():
            assert min(r.vaddr for r in records) >= DATA_BASE


class TestPatternShape:
    def test_fft_is_strided(self):
        """FFT's transpose phases access pages with a large stride: the
        pattern that defeats 16-page pre-pinning."""
        from repro.traces.synth.fft import FftApp
        import random
        pages = list(FftApp()._pattern(random.Random(0), 400, 1600))
        sweep = pages[:400]
        assert sweep == sorted(sweep)            # row-major first pass
        transpose = pages[400:460]
        deltas = [abs(b - a) for a, b in zip(transpose, transpose[1:])]
        assert max(deltas) >= 15                 # strided jumps

    def test_lu_pairs_touches(self):
        from repro.traces.synth.lu import LuApp
        import random
        pages = list(LuApp()._pattern(random.Random(0), 64, 128))
        # Every page appears exactly twice per pass (fetch + update).
        assert pages.count(pages[0]) == 2

    def test_barnes_has_hot_working_set(self):
        from repro.traces.synth.barnes import BarnesApp
        import random
        pages = list(BarnesApp()._pattern(random.Random(0), 400, 6400))
        steady = pages[400:]
        hot = [p for p in steady if p < 40]      # footprint // 10
        assert len(hot) > len(steady) * 0.8


class TestStreamingNodeTraceArguments:
    """Bad trace coordinates fail when the source is built, by value."""

    @pytest.mark.parametrize("field, value", [
        ("node", 1.5), ("node", "0"), ("node", True), ("node", None),
        ("seed", 2.0), ("seed", "7"), ("seed", False),
        ("scale", 0), ("scale", -0.5), ("scale", float("nan")),
        ("scale", float("inf")), ("scale", "0.1"), ("scale", True),
    ])
    def test_bad_value_names_itself(self, field, value):
        from repro.traces.synth.base import StreamingNodeTrace
        kwargs = {"node": 0, "seed": 0, "scale": 0.1, field: value}
        with pytest.raises(ConfigError) as excinfo:
            StreamingNodeTrace(make_app("fft"), **kwargs)
        assert repr(value) in str(excinfo.value)

    def test_values_are_normalized(self):
        numpy = pytest.importorskip("numpy")
        source = make_app("fft").streaming_node(
            numpy.int64(1), seed=numpy.int32(2), scale=numpy.float64(0.1))
        assert (type(source.node), type(source.seed), type(source.scale)) \
            == (int, int, float)
        assert (source.node, source.seed, source.scale) == (1, 2, 0.1)
        assert list(source) == make_app("fft").generate_node(1, seed=2,
                                                             scale=0.1)
