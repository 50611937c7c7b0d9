"""Periodic metric snapshots: the service's continuous time series.

PR 2's observability was post-hoc — one registry dump after the run
ends. A long-running ``jmake serve`` needs the *trajectory*: queue
depths, batch occupancy, and request latency sampled while the service
is under load, in a form a dashboard can poll.

:class:`Snapshotter` samples a :class:`~repro.obs.metrics.
MetricsRegistry` (plus any extra *collector* registries — the substrate
fast-path counters ride along this way) into schema-versioned
:class:`MetricsSnapshot` records:

- a **monotone sequence number**, resumable across process restarts
  (seed ``start_seq`` from a JSONL sink's ``last_seq``);
- a **timestamp** from a pluggable clock — wall clock in serve mode,
  a sim-clock reader under tests, so snapshot streams can be
  byte-deterministic;
- the registry's full ``to_dict`` payload (counters, gauges,
  histograms with buckets), from which percentile summaries are
  derived by :func:`histogram_quantiles`.

Snapshots land in a bounded :class:`SnapshotRing` and fan out to
attached sinks (:mod:`repro.obs.sinks`). Sampling is *pull*: the
service either calls :meth:`Snapshotter.sample` explicitly (tests,
drain-time finals) or runs :meth:`Snapshotter.run` as an asyncio task
on a real-seconds interval (``jmake serve --stats-interval``).
Sampling reads registries through their own ``snapshot()``, so it can
never perturb instrument state or any verdict.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry

#: schema version stamped into every serialized snapshot
SNAPSHOT_SCHEMA_VERSION = 1

#: default snapshots held in memory
DEFAULT_RING_CAPACITY = 256

#: the quantiles ``jmake stats`` summarizes histograms at
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


class MetricsSnapshot:
    """One sampled, schema-versioned view of a metrics registry."""

    __slots__ = ("seq", "ts", "clock_kind", "metrics")

    def __init__(self, seq: int, ts: float, clock_kind: str,
                 metrics: dict) -> None:
        self.seq = seq
        self.ts = ts
        #: "wall" or "sim" — which clock stamped ``ts``
        self.clock_kind = clock_kind
        #: the ``MetricsRegistry.to_dict`` payload
        self.metrics = metrics

    def to_dict(self) -> dict:
        """A JSON-serializable record (the JSONL sink's line payload)."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "clock": self.clock_kind,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "MetricsSnapshot":
        """Rebuild a snapshot from its serialized record."""
        validate_snapshot_record(record)
        return cls(seq=record["seq"], ts=record["ts"],
                   clock_kind=record["clock"],
                   metrics=record["metrics"])


def validate_snapshot_record(record: dict) -> None:
    """Raise ``ValueError`` when a serialized snapshot is malformed."""
    if not isinstance(record, dict):
        raise ValueError(f"snapshot record must be an object, got "
                         f"{type(record).__name__}")
    for key in ("schema", "seq", "ts", "clock", "metrics"):
        if key not in record:
            raise ValueError(f"snapshot record missing {key!r}")
    if record["schema"] != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported snapshot schema {record['schema']!r} "
            f"(this build reads {SNAPSHOT_SCHEMA_VERSION})")
    if not isinstance(record["seq"], int) or record["seq"] < 1:
        raise ValueError(f"snapshot seq must be a positive integer, "
                         f"got {record['seq']!r}")
    if record["clock"] not in ("wall", "sim"):
        raise ValueError(f"snapshot clock must be 'wall' or 'sim', "
                         f"got {record['clock']!r}")
    metrics = record["metrics"]
    if not isinstance(metrics, dict) or \
            not {"counters", "gauges", "histograms"} <= set(metrics):
        raise ValueError("snapshot metrics must carry counters/gauges/"
                         "histograms")


def registry_from_dict(payload: dict) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from its ``to_dict`` payload."""
    registry = MetricsRegistry()
    for name, value in payload.get("counters", {}).items():
        registry.counter(name).value = value
    for name, value in payload.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, data in payload.get("histograms", {}).items():
        histogram = registry.histogram(name, tuple(data["buckets"]))
        histogram.counts = list(data["counts"])
        histogram.total = data["sum"]
        histogram.count = data["count"]
    return registry


def histogram_quantiles(data: dict,
                        quantiles: Iterable[float] = SUMMARY_QUANTILES
                        ) -> dict[float, float]:
    """Quantile estimates from one serialized histogram.

    Linear interpolation inside the owning bucket, the standard
    Prometheus ``histogram_quantile`` estimator; observations in the
    overflow bucket clamp to the last finite bound.
    """
    buckets = tuple(data["buckets"])
    counts = list(data["counts"])
    total = data["count"]
    results: dict[float, float] = {}
    for q in quantiles:
        if total <= 0:
            results[q] = 0.0
            continue
        target = q * total
        cumulative = 0.0
        lower = 0.0
        value = buckets[-1] if buckets else 0.0
        for bound, bucket_count in zip(buckets, counts):
            if bucket_count and cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                value = lower + (bound - lower) * fraction
                break
            cumulative += bucket_count
            lower = bound
        results[q] = value
    return results


class SnapshotRing:
    """Bounded in-memory history of snapshots (oldest evicted first)."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"capacity must be a positive integer, got {capacity!r}")
        self._ring: "deque[MetricsSnapshot]" = deque(maxlen=capacity)

    def append(self, snapshot: MetricsSnapshot) -> None:
        self._ring.append(snapshot)

    @property
    def latest(self) -> MetricsSnapshot | None:
        """The most recent snapshot, or None."""
        return self._ring[-1] if self._ring else None

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)


class Snapshotter:
    """Samples a registry (plus collectors) into the ring and sinks."""

    def __init__(self, registry, *,
                 collectors: Iterable[Callable[[], Any]] = (),
                 clock: Callable[[], float] | None = None,
                 clock_kind: str | None = None,
                 interval_seconds: float | None = None,
                 ring_capacity: int = DEFAULT_RING_CAPACITY,
                 start_seq: int = 0, sinks=()) -> None:
        if interval_seconds is not None and interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, "
                f"got {interval_seconds!r}")
        if start_seq < 0:
            raise ValueError(
                f"start_seq cannot be negative, got {start_seq!r}")
        self.registry = registry
        #: zero-arg callables returning extra registries to merge in
        #: (e.g. ``repro.cpp.prepared.collect_metrics``)
        self.collectors = list(collectors)
        self.clock = clock if clock is not None else time.time
        #: "wall" unless an explicit (sim) clock was pinned
        self.clock_kind = clock_kind if clock_kind is not None else \
            ("wall" if clock is None else "sim")
        if self.clock_kind not in ("wall", "sim"):
            raise ValueError(f"clock_kind must be 'wall' or 'sim', "
                             f"got {self.clock_kind!r}")
        self.interval_seconds = interval_seconds
        self.ring = SnapshotRing(ring_capacity)
        self._sinks = list(sinks)
        self.seq = start_seq
        self.samples_taken = 0
        self._task: "asyncio.Task | None" = None

    def sample(self) -> MetricsSnapshot:
        """Take one snapshot now: merge collectors, ring it, sink it."""
        combined = self.registry.snapshot()
        for collect in self.collectors:
            extra = collect()
            if extra is not None:
                combined.merge(extra)
        self.seq += 1
        snapshot = MetricsSnapshot(self.seq, self.clock(),
                                   self.clock_kind, combined.to_dict())
        self.ring.append(snapshot)
        self.samples_taken += 1
        for sink in self._sinks:
            sink.emit(snapshot.to_dict())
        return snapshot

    # -- periodic sampling (serve mode) ------------------------------------

    def start(self) -> None:
        """Spawn the periodic sampling task on the running loop."""
        if self.interval_seconds is None:
            raise ValueError("cannot start a Snapshotter without "
                             "interval_seconds")
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="metrics-snapshotter")

    async def stop(self, *, final_sample: bool = True) -> None:
        """Cancel the sampling task (taking one last snapshot)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if final_sample:
            self.sample()

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.interval_seconds)
            self.sample()

    def stats(self) -> dict:
        """Sampling telemetry for the service stats endpoint."""
        return {
            "seq": self.seq,
            "samples_taken": self.samples_taken,
            "ring_size": len(self.ring),
            "interval_seconds": self.interval_seconds,
            "clock": self.clock_kind,
        }
