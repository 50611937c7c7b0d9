"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named-instrument store with the same
algebra the build-cache counters established in PR 1: ``snapshot`` for
an independent copy, ``merge`` to add another registry in, and ``delta``
for counter-wise subtraction — so the check service can combine the
per-batch deltas its remote workers send home exactly like it combines
cache stats. Merging is commutative, which keeps merged metrics
deterministic no matter in what order the workers' verdicts land.

Instrument names are dotted paths (``tokens.found``,
``cache.preprocess.hits``); the well-known pipeline instruments are
listed in :data:`INSTRUMENTS`. Everything is plain Python data: the
registry pickles across process boundaries and serializes with
:meth:`MetricsRegistry.to_dict` for ``jmake evaluate --metrics-out``.

:data:`NULL_METRICS` is the disabled registry: every instrument lookup
returns a shared no-op instrument, so un-observed runs pay only an
attribute lookup per recording site.
"""

from __future__ import annotations

from typing import Any, Iterable

#: well-known pipeline instruments (name -> meaning); modules may
#: register further instruments freely, this is documentation not ACL
INSTRUMENTS = {
    "patches.checked": "commits run through CheckSession.check_patch",
    "patches.certified": "patches whose every changed line was certified",
    "files.mutated": "file instances that received at least one mutation",
    "tokens.placed": "mutation tokens placed across all files",
    "tokens.found": "tokens credited by a certified compilation",
    "tokens.missing": "tokens never surfaced in any certified .i",
    "arch.attempts": "(architecture, configuration) trials",
    "arch.selections": "arch-selection heuristic invocations",
    "build.config.invocations": "make *config invocations",
    "build.make_i.invocations": "batched make .i invocations",
    "build.make_i.files": "files preprocessed across all batches",
    "build.make_o.invocations": "make .o invocations",
    "hfile.candidates": ".c candidates considered for changed headers",
    "cache.load_errors": "cache pickle loads that fell back to empty",
}

#: default histogram bucket upper bounds (simulated seconds)
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
                   600.0)


class Counter:
    """A monotonically increasing sum (ints or floats)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def delta(self, since: "Counter") -> "Counter":
        return Counter(self.name, self.value - since.value)

    def copy(self) -> "Counter":
        return Counter(self.name, self.value)

    def to_value(self):
        return self.value


class Gauge:
    """A last-write-wins level (cache residency, worker count, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        # merged gauges take the max: "the level some worker reached"
        self.value = max(self.value, other.value)

    def delta(self, since: "Gauge") -> "Gauge":
        return Gauge(self.name, self.value - since.value)

    def copy(self) -> "Gauge":
        return Gauge(self.name, self.value)

    def to_value(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``buckets`` holds upper bounds; observations beyond the last bound
    land in the implicit overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean, 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (interpolated within the owning bucket)."""
        from repro.obs.timeseries import histogram_quantiles
        return histogram_quantiles(self.to_value(), (q,))[q]

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name}: bucket mismatch "
                f"{self.buckets} vs {other.buckets}")
        self.counts = [mine + theirs for mine, theirs
                       in zip(self.counts, other.counts)]
        self.total += other.total
        self.count += other.count

    def delta(self, since: "Histogram") -> "Histogram":
        result = Histogram(self.name, self.buckets)
        result.counts = [mine - theirs for mine, theirs
                         in zip(self.counts, since.counts)]
        result.total = self.total - since.total
        result.count = self.count - since.count
        return result

    def copy(self) -> "Histogram":
        result = Histogram(self.name, self.buckets)
        result.counts = list(self.counts)
        result.total = self.total
        result.count = self.count
        return result

    def to_value(self) -> dict:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": self.total, "count": self.count}


class MetricsRegistry:
    """Named instruments plus the snapshot/merge/delta algebra."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """True — this registry records."""
        return True

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter of that name (created on first use)."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge of that name (created on first use)."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram of that name (created on first use)."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, buckets)
        return instrument

    # -- algebra ---------------------------------------------------------------

    def snapshot(self) -> "MetricsRegistry":
        """An independent deep copy of every instrument."""
        result = MetricsRegistry()
        result.counters = {name: c.copy() for name, c in self.counters.items()}
        result.gauges = {name: g.copy() for name, g in self.gauges.items()}
        result.histograms = {name: h.copy()
                             for name, h in self.histograms.items()}
        return result

    def merge(self, other: "MetricsRegistry") -> None:
        """Add another registry's instruments into this one."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.buckets).merge(histogram)

    def delta(self, since: "MetricsRegistry") -> "MetricsRegistry":
        """Instrument-wise ``self - since`` (missing = zero)."""
        result = MetricsRegistry()
        for name, counter in self.counters.items():
            base = since.counters.get(name, Counter(name))
            result.counters[name] = counter.delta(base)
        for name, gauge in self.gauges.items():
            base = since.gauges.get(name, Gauge(name))
            result.gauges[name] = gauge.delta(base)
        for name, histogram in self.histograms.items():
            base = since.histograms.get(name, Histogram(name,
                                                        histogram.buckets))
            result.histograms[name] = histogram.delta(base)
        return result

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """A sorted, JSON-serializable view of every instrument."""
        return {
            "counters": {name: self.counters[name].to_value()
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].to_value()
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].to_value()
                           for name in sorted(self.histograms)},
        }

    def render(self) -> str:
        """A fixed-width text table of counters and histogram summaries."""
        lines = [f"{'instrument':<36} {'value':>16}"]
        lines.append("-" * len(lines[0]))
        for name in sorted(self.counters):
            value = self.counters[name].value
            text = f"{value:.3f}".rstrip("0").rstrip(".") \
                if isinstance(value, float) else str(value)
            lines.append(f"{name:<36} {text:>16}")
        for name in sorted(self.gauges):
            lines.append(f"{name:<36} {self.gauges[name].value:>16}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            lines.append(f"{name:<36} "
                         f"{f'n={histogram.count} mean={histogram.mean:.2f}':>16}")
        return "\n".join(lines)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """API-compatible registry that records nothing."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """False — instruments discard."""
        return False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str,
                  buckets: "Iterable[float] | None" = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> "NullMetricsRegistry":
        return self

    def merge(self, other: Any) -> None:
        return None

    def delta(self, since: Any) -> "NullMetricsRegistry":
        return self

    def to_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render(self) -> str:
        return "(metrics disabled)"


#: the process-wide disabled registry instrumented code defaults to
NULL_METRICS = NullMetricsRegistry()
