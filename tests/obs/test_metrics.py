"""Tests for the metrics registry and its snapshot/merge/delta algebra."""

import pickle

import pytest

from repro.obs.metrics import (DEFAULT_BUCKETS, NULL_METRICS, Gauge,
                               Histogram, MetricsRegistry,
                               NullMetricsRegistry)


class TestCounter:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.counter("tokens.found").inc()
        registry.counter("tokens.found").inc(4)
        assert registry.counter("tokens.found").value == 5

    def test_created_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("fresh").value == 0
        assert "fresh" in registry.counters


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("level")
        gauge.set(10)
        gauge.inc(2)
        assert gauge.value == 12

    def test_merge_takes_max(self):
        a, b = Gauge("g", 3), Gauge("g", 7)
        a.merge(b)
        assert a.value == 7


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("t", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1]  # third is overflow
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(110.5 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram("t").mean == 0.0

    def test_merge_requires_matching_buckets(self):
        a = Histogram("t", buckets=(1.0,))
        b = Histogram("t", buckets=(2.0,))
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge(b)

    def test_default_buckets(self):
        assert Histogram("t").buckets == DEFAULT_BUCKETS


class TestAlgebra:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(5)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        return registry

    def test_snapshot_is_independent(self):
        registry = self._populated()
        snap = registry.snapshot()
        registry.counter("a").inc(10)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        assert snap.counter("a").value == 3
        assert snap.histogram("h", buckets=(1.0, 2.0)).count == 1

    def test_merge_sums_counters_and_histograms(self):
        a, b = self._populated(), self._populated()
        b.counter("only_b").inc()
        a.merge(b)
        assert a.counter("a").value == 6
        assert a.counter("only_b").value == 1
        assert a.histogram("h", buckets=(1.0, 2.0)).count == 2

    def test_merge_is_commutative(self):
        """The property parallel aggregation relies on."""
        def build(seed):
            registry = MetricsRegistry()
            registry.counter("c").inc(seed)
            registry.gauge("g").set(seed * 2)
            registry.histogram("h").observe(seed)
            return registry
        ab = build(1)
        ab.merge(build(2))
        ba = build(2)
        ba.merge(build(1))
        assert ab.to_dict() == ba.to_dict()

    def test_delta_round_trips_through_merge(self):
        base = self._populated()
        snap = base.snapshot()
        base.counter("a").inc(7)
        base.histogram("h", buckets=(1.0, 2.0)).observe(0.1)
        delta = base.delta(snap)
        assert delta.counter("a").value == 7
        rebuilt = snap.snapshot()
        rebuilt.merge(delta)
        assert rebuilt.to_dict() == base.to_dict()

    def test_delta_handles_instruments_missing_from_base(self):
        registry = MetricsRegistry()
        registry.counter("new").inc(2)
        delta = registry.delta(MetricsRegistry())
        assert delta.counter("new").value == 2


class TestExport:
    def test_to_dict_is_sorted_and_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        record = registry.to_dict()
        assert list(record["counters"]) == ["a", "z"]
        assert set(record) == {"counters", "gauges", "histograms"}

    def test_histogram_to_value_shape(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        value = registry.to_dict()["histograms"]["h"]
        assert value == {"buckets": [1.0], "counts": [1, 0],
                         "sum": 0.5, "count": 1}

    def test_render_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("tokens.found").inc(3)
        registry.histogram("elapsed").observe(1.0)
        text = registry.render()
        assert "tokens.found" in text
        assert "elapsed" in text

    def test_registry_pickles_across_process_boundaries(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(3.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.to_dict() == registry.to_dict()


class TestNullRegistry:
    def test_api_parity(self):
        null = NullMetricsRegistry()
        assert null.enabled is False
        assert MetricsRegistry().enabled is True
        null.counter("a").inc(5)
        null.gauge("b").set(1)
        null.histogram("c").observe(2.0)
        assert null.to_dict() == {"counters": {}, "gauges": {},
                                  "histograms": {}}
        assert null.snapshot() is null
        assert null.delta(null) is null

    def test_instruments_are_shared(self):
        assert NULL_METRICS.counter("a") is NULL_METRICS.counter("b")
        assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("h")
