"""Pipeline-level tests for the observability layer.

The contract under test: observing a run never changes its verdicts or
simulated timings, every checked commit yields one span tree, and the
serialized trees (hence ``--trace-out``) are deterministic for any
``--jobs`` value.
"""

import json
import sys

import pytest

from repro.evalsuite import runner
from repro.evalsuite.runner import EvaluationSession
from repro.obs.export import chrome_trace, span_count, write_chrome_trace
from repro.service.service import ServiceConfig


@pytest.fixture(scope="module")
def corpus(small_corpus):
    """The shared session corpus (see ``tests/conftest.py``)."""
    return small_corpus


@pytest.fixture(scope="module")
def observed(corpus):
    return EvaluationSession(corpus, observe=True).run(limit=12)


#: span attributes that legitimately differ between drivers: the lane,
#: and cache hits (each worker warms its own copy of the cache)
VOLATILE = ("worker", "cached", "cache_hits")


def assert_trees_match(a, b):
    """Rebased span trees agree up to last-bit sim-time drift."""
    assert a["name"] == b["name"]
    assert a["status"] == b["status"]
    assert a["sim_start"] == pytest.approx(b["sim_start"])
    assert a["sim_duration"] == pytest.approx(b["sim_duration"])
    a_attrs = {k: v for k, v in a.get("attributes", {}).items()
               if k not in VOLATILE}
    b_attrs = {k: v for k, v in b.get("attributes", {}).items()
               if k not in VOLATILE}
    assert a_attrs == b_attrs
    a_kids = a.get("children", [])
    b_kids = b.get("children", [])
    assert len(a_kids) == len(b_kids)
    for a_kid, b_kid in zip(a_kids, b_kids):
        assert_trees_match(a_kid, b_kid)


def assert_counters_match(a, b):
    """Integer counters agree exactly; histogram sums are float
    accumulations and may drift in the last bit, so compare counts."""
    assert a.to_dict()["counters"] == b.to_dict()["counters"]
    for name, histogram in a.to_dict()["histograms"].items():
        serial = b.to_dict()["histograms"][name]
        assert histogram["counts"] == serial["counts"]
        assert histogram["sum"] == pytest.approx(serial["sum"])


class TestObservedRun:
    def test_one_span_tree_per_checked_commit(self, observed):
        assert observed.span_trees is not None
        assert len(observed.span_trees) == len(observed.patches)
        for tree, patch in zip(observed.span_trees, observed.patches):
            assert tree["name"] == "jmake.check_commit"
            assert tree["attributes"]["commit"] == patch.commit_id
            assert span_count(tree) >= 1

    def test_trees_carry_index_and_worker_lane(self, observed):
        for index, tree in enumerate(observed.span_trees):
            assert tree["attributes"]["commit.index"] == index
            assert tree["attributes"]["worker"] == 0  # serial: one lane

    def test_metrics_cover_the_run(self, observed):
        counters = observed.metrics.to_dict()["counters"]
        assert counters["patches.checked"] == len(observed.patches)
        certified = sum(1 for patch in observed.patches if patch.certified)
        assert counters["patches.certified"] == certified
        assert counters["arch.selections"] > 0
        histograms = observed.metrics.to_dict()["histograms"]
        assert histograms["patch.elapsed_sim_seconds"]["count"] == \
            len(observed.patches)

    def test_observation_does_not_perturb_verdicts(self, corpus, observed):
        plain = EvaluationSession(corpus).run(limit=12)
        assert plain.span_trees is None
        assert plain.metrics is None
        assert plain.canonical_records() == observed.canonical_records()

    def test_sim_durations_match_patch_elapsed(self, observed):
        for tree, patch in zip(observed.span_trees, observed.patches):
            assert tree["sim_duration"] == \
                pytest.approx(patch.elapsed_seconds)

    def test_trees_are_json_serializable(self, observed):
        json.dumps(observed.span_trees)


@pytest.mark.skipif(sys.platform == "win32",
                    reason="fork start method required")
class TestParallelObservation:
    def test_parallel_trace_deterministic_across_runs(self, corpus,
                                                      tmp_path):
        first = EvaluationSession(corpus, observe=True).run(limit=12,
                                                           jobs=2)
        second = EvaluationSession(corpus, observe=True).run(limit=12,
                                                            jobs=2)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_chrome_trace(a, first.span_trees)
        write_chrome_trace(b, second.span_trees)
        assert open(a).read() == open(b).read()

    def test_parallel_lanes_and_order(self, corpus):
        result = EvaluationSession(corpus, observe=True).run(limit=12,
                                                            jobs=3)
        for index, tree in enumerate(result.span_trees):
            assert tree["attributes"]["commit.index"] == index
            assert tree["attributes"]["worker"] == index % 3

    def test_parallel_trees_match_serial(self, corpus, observed):
        """Rebased per-commit trees are pure functions of the commit.

        Simulated durations compare approximately: a worker's clock
        starts at 0 while the serial clock carries the offset of every
        earlier commit, so rebased floats can drift in the last bit
        (the same reason ``test_parallel_equals_serial`` uses approx).
        Cache-hit attributes are excluded: the serial run warms one
        cache sequentially while each forked worker warms its own copy,
        so hit patterns differ even though replay-clock timings do not.
        """
        parallel = EvaluationSession(corpus, observe=True).run(limit=12,
                                                              jobs=2)
        assert len(parallel.span_trees) == len(observed.span_trees)
        for a, b in zip(parallel.span_trees, observed.span_trees):
            assert_trees_match(a, b)

    def test_parallel_counters_match_serial(self, corpus, observed):
        parallel = EvaluationSession(corpus, observe=True).run(limit=12,
                                                              jobs=2)
        assert_counters_match(parallel.metrics, observed.metrics)

    def test_parallel_verdicts_unchanged_by_observation(self, corpus):
        """The acceptance surface: observe on/off at the same jobs."""
        plain = EvaluationSession(corpus).run(limit=12, jobs=2)
        observed = EvaluationSession(corpus, observe=True).run(limit=12,
                                                              jobs=2)
        assert observed.canonical_records() == plain.canonical_records()


class TestServiceObservation:
    def test_every_service_run_is_observed(self, corpus, observed):
        """``service=True`` (the in-process asyncio transport) returns
        one tree per commit and the serial run's pipeline counters."""
        result = EvaluationSession(corpus, observe=True).run(
            limit=12, service=True)
        assert result.span_trees is not None
        assert len(result.span_trees) == len(result.patches) == \
            len(observed.span_trees)
        for index, (a, b) in enumerate(zip(result.span_trees,
                                           observed.span_trees)):
            assert a["attributes"]["commit.index"] == index
            assert a["attributes"]["worker"] == 0  # one in-process lane
            assert_trees_match(a, b)
        assert_counters_match(result.metrics, observed.metrics)
        assert not [name for name in result.metrics.to_dict()["counters"]
                    if name.startswith("service.")]

    def test_the_service_keeps_no_spans(self, corpus, monkeypatch):
        """The tracer the runner hands the service only asks for span
        trees: after an observed ``run(jobs=2)`` it holds no root spans,
        and a config the caller passed is left as it was."""
        tracers = []

        class RecordingTracer(runner.Tracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracers.append(self)

        monkeypatch.setattr(runner, "Tracer", RecordingTracer)
        EvaluationSession(corpus, observe=True).run(limit=12, jobs=2)
        assert len(tracers) == 1
        assert tracers[0].roots == []

        config = ServiceConfig()
        EvaluationSession(corpus, observe=True).run(limit=4,
                                                    service=config)
        assert config.tracer is None


class TestChromeExport:
    def test_export_is_perfetto_shaped(self, observed, tmp_path):
        path = str(tmp_path / "trace.json")
        events = write_chrome_trace(path, observed.span_trees)
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]
        assert len(trace["traceEvents"]) == events
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0

    def test_every_commit_has_a_track(self, observed):
        trace = chrome_trace(observed.span_trees)
        threads = [event for event in trace["traceEvents"]
                   if event["ph"] == "M"
                   and event["name"] == "thread_name"]
        assert len(threads) == len(observed.patches)
