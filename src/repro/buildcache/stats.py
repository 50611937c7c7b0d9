"""Cache telemetry: per-artifact-kind counters and derived savings.

Exported on :class:`repro.evalsuite.runner.EvaluationResult` and printed
by ``jmake evaluate --cache-stats``. Since PR 2 the counters live in a
:class:`repro.obs.metrics.MetricsRegistry` (instruments named
``cache.<kind>.<field>``); :class:`CacheStats` and :class:`KindStats`
keep their PR 1 API as views over that registry, so cache telemetry
shows up in ``jmake evaluate --metrics-out`` alongside the pipeline
metrics while every existing call site (``stats.kind("object").hits +=
1`` and friends) still works. The registry algebra supplies the
subtraction and merging a remote transport needs to combine the
per-batch deltas its workers send home with the coordinator's priming
stats into one coherent surface.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

#: artifact kinds the cache distinguishes
KINDS = ("preprocess", "object", "config", "model", "makefile")

#: the counter fields every kind carries, in render order
FIELDS = ("hits", "misses", "evictions", "invalidations", "bytes_saved",
          "sim_seconds_saved")

#: registry instrument counting pickle loads that fell back to empty
LOAD_ERRORS = "cache.load_errors"


class KindStats:
    """Counters for one artifact kind (a view over a registry).

    Standalone construction (``KindStats(hits=3)``) owns a private
    registry; :meth:`CacheStats.kind` hands out views bound to the
    shared one.
    """

    __slots__ = ("_registry", "_prefix")

    def __init__(self, hits: int = 0, misses: int = 0, evictions: int = 0,
                 invalidations: int = 0, bytes_saved: int = 0,
                 sim_seconds_saved: float = 0.0, *,
                 registry: MetricsRegistry | None = None,
                 prefix: str = "cache._") -> None:
        self._registry = registry if registry is not None \
            else MetricsRegistry()
        self._prefix = prefix
        if registry is None:
            for name, value in zip(FIELDS, (hits, misses, evictions,
                                            invalidations, bytes_saved,
                                            sim_seconds_saved)):
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

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in FIELDS)
        return f"KindStats({inner})"


def _field_property(name: str) -> property:
    def fget(self):
        return self._get(name)

    def fset(self, value):
        self._set(name, value)

    return property(fget, fset)


for _name in FIELDS:
    setattr(KindStats, _name, _field_property(_name))
del _name


class CacheStats:
    """All counters, by artifact kind, living in one metrics registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._kind_names: set[str] = set(KINDS)

    def kind(self, name: str) -> KindStats:
        """The counter set for one kind (registered on demand)."""
        self._kind_names.add(name)
        return KindStats(registry=self.registry, prefix=f"cache.{name}")

    @property
    def kind_names(self) -> "list[str]":
        """All kinds seen, sorted."""
        return sorted(self._kind_names)

    def _total(self, field: str):
        return sum(getattr(self.kind(name), field)
                   for name in self._kind_names)

    @property
    def hits(self) -> int:
        """Total hits across kinds."""
        return self._total("hits")

    @property
    def misses(self) -> int:
        """Total misses across kinds."""
        return self._total("misses")

    @property
    def evictions(self) -> int:
        """Total evictions across kinds."""
        return self._total("evictions")

    @property
    def bytes_saved(self) -> int:
        """Total artifact bytes served from cache."""
        return self._total("bytes_saved")

    @property
    def sim_seconds_saved(self) -> float:
        """Total simulated seconds saved across kinds."""
        return self._total("sim_seconds_saved")

    @property
    def load_errors(self) -> int:
        """Pickle loads that fell back to an empty cache."""
        return self.registry.counter(LOAD_ERRORS).value

    def merge(self, other: "CacheStats") -> None:
        """Add another stats object into this one, instrument-wise."""
        self.registry.merge(other.registry)
        self._kind_names |= other._kind_names

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter-wise ``self - since`` across all instruments."""
        result = CacheStats(self.registry.delta(since.registry))
        result._kind_names = self._kind_names | since._kind_names
        return result

    def copy(self) -> "CacheStats":
        """A deep, independent copy."""
        result = CacheStats(self.registry.snapshot())
        result._kind_names = set(self._kind_names)
        return result

    def render(self) -> str:
        """A fixed-width table for ``--cache-stats``."""
        header = (f"{'kind':<12} {'hits':>8} {'misses':>8} {'rate':>6} "
                  f"{'evict':>6} {'inval':>6} {'bytes saved':>12} "
                  f"{'sim s saved':>12}")
        lines = [header, "-" * len(header)]
        for name in self.kind_names:
            stats = self.kind(name)
            lines.append(
                f"{name:<12} {stats.hits:>8} {stats.misses:>8} "
                f"{stats.hit_rate:>6.1%} {stats.evictions:>6} "
                f"{stats.invalidations:>6} {stats.bytes_saved:>12} "
                f"{stats.sim_seconds_saved:>12.1f}")
        lines.append(
            f"{'total':<12} {self.hits:>8} {self.misses:>8} "
            f"{(self.hits / (self.hits + self.misses)) if (self.hits + self.misses) else 0.0:>6.1%} "
            f"{self.evictions:>6} {'':>6} {self.bytes_saved:>12} "
            f"{self.sim_seconds_saved:>12.1f}")
        if self.load_errors:
            lines.append(f"load errors : {self.load_errors}")
        return "\n".join(lines)
