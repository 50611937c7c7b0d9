"""Differential tests: one cached ``KindStats`` view per kind.

``CacheStats.kind`` now makes one view per kind on its first call and
returns it after, and a view names its counters once. The oracle is the
pair before, copied verbatim: a new view and two f-strings on every
counter access. Hypothesis drives both through the same operations
(increments, reads, new kinds, merges, deltas and copies) and compares
every answer, the registries and the rendered tables; a cold and a warm
evaluation of both shared corpora leave the same counters either way.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.buildcache import cache as cache_module
from repro.buildcache.cache import BuildCache
from repro.buildcache.stats import FIELDS, KINDS, LOAD_ERRORS, CacheStats
from repro.evalsuite.runner import EvaluationSession
from repro.obs.metrics import MetricsRegistry

# -- the oracle: the views before ------------------------------------------------


class ParentKindStats:
    """Counters for one artifact kind (a view over a registry).

    Standalone construction (``KindStats(hits=3)``) owns a private
    registry; :meth:`CacheStats.kind` hands out views bound to the
    shared one.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0,
                 bytes_saved: int = 0, sim_seconds_saved: float = 0.0, *,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "cache._") -> None:
        self._registry = registry if registry is not None \
            else MetricsRegistry()
        self._prefix = prefix
        if registry is None:
            for name, value in zip(FIELDS, (hits, misses, evictions,
                                            bytes_saved, sim_seconds_saved)):
                if value:
                    self._registry.counter(f"{prefix}.{name}").value = value

    def _get(self, name: str):
        return self._registry.counter(f"{self._prefix}.{name}").value

    def _set(self, name: str, value) -> None:
        self._registry.counter(f"{self._prefix}.{name}").value = value

    @property
    def probes(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """hits / probes, 0.0 when never probed."""
        return self.hits / self.probes if self.probes else 0.0


def _field_property(name: str) -> property:
    def fget(self):
        return self._get(name)

    def fset(self, value):
        self._set(name, value)

    return property(fget, fset)


for _name in FIELDS:
    setattr(ParentKindStats, _name, _field_property(_name))
del _name


class ParentCacheStats(CacheStats):
    """``CacheStats`` with the view-per-call ``kind`` before."""

    def kind(self, name: str) -> ParentKindStats:
        """The counter set for one kind (registered on demand)."""
        self._kind_names.add(name)
        return ParentKindStats(registry=self.registry, prefix=f"cache.{name}")

    def delta(self, since: "CacheStats") -> "ParentCacheStats":
        """Counter-wise ``self - since`` across all instruments."""
        result = ParentCacheStats(self.registry.delta(since.registry))
        result._kind_names = self._kind_names | since._kind_names
        return result

    def copy(self) -> "ParentCacheStats":
        """A deep, independent copy."""
        result = ParentCacheStats(self.registry.snapshot())
        result._kind_names = set(self._kind_names)
        return result


# -- the comparison ------------------------------------------------------------

KIND_NAMES = list(KINDS) + ["custom", "other"]


def _state(stats) -> tuple:
    return (stats.registry.to_dict(), stats.kind_names, stats.render(),
            stats.hits, stats.misses, stats.evictions, stats.bytes_saved,
            stats.sim_seconds_saved, stats.load_errors)


operations = st.lists(st.tuples(
    st.sampled_from(["inc", "read", "rate", "held", "merge", "delta",
                     "copy", "load_error"]),
    st.sampled_from(KIND_NAMES), st.sampled_from(FIELDS),
    st.integers(0, 5)), max_size=30)


def _run(stats, ops) -> list:
    """Apply ``ops``; every answer along the way, then the final state."""
    answers = []
    held = stats.kind(KIND_NAMES[0])
    for op, kind, field, amount in ops:
        if op == "inc":
            view = stats.kind(kind)
            setattr(view, field, getattr(view, field) + amount)
        elif op == "read":
            answers.append(getattr(stats.kind(kind), field))
        elif op == "rate":
            answers.append((stats.kind(kind).probes,
                            stats.kind(kind).hit_rate))
        elif op == "held":
            # a view taken earlier still reads and writes the counters
            setattr(held, field, getattr(held, field) + amount)
            answers.append(getattr(stats.kind(KIND_NAMES[0]), field))
        elif op == "merge":
            other = type(stats)()
            other.kind(kind).hits += amount
            stats.merge(other)
        elif op == "delta":
            stats = stats.delta(type(stats)())
            held = stats.kind(KIND_NAMES[0])
        elif op == "copy":
            stats = stats.copy()
            held = stats.kind(KIND_NAMES[0])
        else:
            stats.registry.counter(LOAD_ERRORS).inc()
        answers.append(_state(stats))
    return answers


class TestViewsMatchParent:
    @given(operations)
    @settings(max_examples=300, deadline=None)
    def test_operations(self, ops):
        assert _run(CacheStats(), ops) == _run(ParentCacheStats(), ops)

    def test_one_view_per_kind(self):
        stats = CacheStats()
        assert stats.kind("object") is stats.kind("object")
        stats.kind("custom").hits += 2
        assert stats.kind_names == sorted([*KINDS, "custom"])
        assert stats.registry.counter("cache.custom.hits").value == 2


@pytest.mark.parametrize("corpus_name", ["small_corpus", "midsize_corpus"])
def test_evaluations_leave_the_same_counters(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)

    def cold_then_warm(stats_class):
        with mock.patch.object(cache_module, "CacheStats", stats_class):
            cache = BuildCache()
            cold = EvaluationSession(corpus, cache=cache).run()
            warm = EvaluationSession(corpus, cache=cache).run()
        assert type(cache.stats) is stats_class
        return [_state(cold.cache_stats), _state(warm.cache_stats),
                _state(cache.stats)]

    assert cold_then_warm(CacheStats) == cold_then_warm(ParentCacheStats)
