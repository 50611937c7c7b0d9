"""Tests for the hierarchical span tracer."""

import pytest

from repro.obs.tracer import (NULL_TRACER, NullTracer, Tracer,
                              STATUS_ERROR, STATUS_OK)
from repro.util.simclock import SimClock


class TestNesting:
    def test_children_follow_call_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                with tracer.span("leaf"):
                    pass
        roots = tracer.drain()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner.a",
                                                            "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_sequential_roots_accumulate(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.drain()] == ["first", "second"]
        assert tracer.drain() == []  # drain pops

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        root = tracer.drain()[0]
        assert [span.name for span in root.walk()] == ["a", "b", "c", "d"]


class TestExceptions:
    def test_exception_marks_status_and_type(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        outer = tracer.drain()[0]
        assert outer.status == STATUS_ERROR
        assert outer.error_type == "ValueError"
        inner = outer.children[0]
        assert inner.status == STATUS_ERROR
        assert inner.error_type == "ValueError"

    def test_handled_exception_leaves_parent_ok(self):
        tracer = Tracer()
        with tracer.span("outer"):
            try:
                with tracer.span("inner"):
                    raise KeyError("lost")
            except KeyError:
                pass
        outer = tracer.drain()[0]
        assert outer.status == STATUS_OK
        assert outer.children[0].status == STATUS_ERROR
        assert outer.children[0].error_type == "KeyError"

    def test_error_type_survives_serialization(self):
        tracer = Tracer()
        try:
            with tracer.span("step"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        record = tracer.drain()[0].to_dict()
        assert record["status"] == "error"
        assert record["error_type"] == "RuntimeError"


class TestClocks:
    def test_sim_duration_reads_but_never_charges(self):
        clock = SimClock()
        tracer = Tracer(sim_clock=clock)
        with tracer.span("build") as span:
            clock.charge("make_i", 7.5)
        assert span.sim_duration == pytest.approx(7.5)
        # the span itself charged nothing: only our explicit charge exists
        assert [s.label for s in clock.spans] == ["make_i"]

    def test_wall_duration_is_positive(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            pass
        assert span.wall_duration >= 0.0

    def test_no_sim_clock_means_zero_sim_duration(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            pass
        assert span.sim_duration == 0.0


class TestSerialization:
    def test_to_dict_rebases_to_own_start(self):
        clock = SimClock()
        clock.charge("warmup", 100.0)  # tree must not see this offset
        tracer = Tracer(sim_clock=clock)
        with tracer.span("root"):
            clock.charge("step", 2.0)
            with tracer.span("child"):
                clock.charge("step", 3.0)
        record = tracer.drain()[0].to_dict()
        assert record["sim_start"] == pytest.approx(0.0)
        assert record["sim_duration"] == pytest.approx(5.0)
        child = record["children"][0]
        assert child["sim_start"] == pytest.approx(2.0)
        assert child["sim_duration"] == pytest.approx(3.0)

    def test_attributes_and_set_round_trip(self):
        tracer = Tracer()
        with tracer.span("op", path="a.c") as span:
            span.set("cached", True)
        record = tracer.drain()[0].to_dict()
        assert record["attributes"] == {"path": "a.c", "cached": True}

    def test_event_records_instant_child(self):
        clock = SimClock()
        tracer = Tracer(sim_clock=clock)
        with tracer.span("op") as span:
            clock.charge("x", 1.0)
            span.event("marker", kind="test")
        record = tracer.drain()[0].to_dict()
        marker = record["children"][0]
        assert marker["name"] == "marker"
        assert marker["sim_duration"] == 0.0
        assert marker["sim_start"] == pytest.approx(1.0)


class TestNullTracer:
    def test_api_parity_with_real_tracer(self):
        null = NullTracer()
        assert null.enabled is False
        assert Tracer().enabled is True
        with null.span("anything", key="value") as span:
            span.set("k", 1)
            span.event("e")
        assert null.current is None
        assert null.drain() == []
        null.event("top-level")
        assert null.drain() == []

    def test_span_returns_shared_handle(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")

    def test_module_singleton_has_no_clock(self):
        assert NULL_TRACER.sim_clock is None
        assert NULL_TRACER.worker_id == 0

    def test_null_span_survives_exceptions_silently(self):
        null = NullTracer()
        with pytest.raises(ValueError):
            with null.span("op"):
                raise ValueError("propagates, but records nothing")
        assert null.drain() == []
