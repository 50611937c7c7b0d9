"""Typed structured events: the operational transitions log lines hide.

A long-running ``jmake serve`` has state changes that matter to an
operator — a worker process crashed and was restarted, a circuit breaker
opened, admission control rejected a request, an architecture tripped
quarantine, the journal truncated a torn tail — and before this module
every one of them was a log line: unstructured, unqueryable, and gone
when the process dies.

:class:`EventLog` is the typed replacement. Every emission produces an
:class:`Event` with

- a **monotone sequence number** (``seq``) — the dedup identity a
  resumed JSONL sink uses to skip already-persisted events;
- a **timestamp** from a pluggable clock (wall clock in serve mode, a
  sim-clock reader or fixed counter under tests, so event streams can
  be byte-deterministic);
- a **kind** from the taxonomy in :data:`EVENT_KINDS` (free-form kinds
  are allowed — the taxonomy is documentation, not an ACL — but the
  schema checker flags unknown kinds so typos surface in CI);
- the **request/commit correlation id** when the emitting site has one,
  so events join against the ``service.request`` span tree;
- free-form scalar ``attrs``.

Completed events land in a bounded ring (oldest evicted first) and fan
out to any attached sinks (:mod:`repro.obs.sinks`). :data:`NULL_EVENTS`
is the disabled log: ``emit`` is a no-op returning ``None``, so
un-observed services pay only an attribute lookup per site — the same
contract ``NULL_TRACER``/``NULL_METRICS`` established in PR 2.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable

#: schema version stamped into every serialized event
EVENT_SCHEMA_VERSION = 1

# -- taxonomy -----------------------------------------------------------------

EVENT_SHARD_CRASH = "shard.crash"
EVENT_SHARD_HANG = "shard.hang"
EVENT_SHARD_RESTART = "shard.restart"
EVENT_SHARD_BREAKER_OPEN = "shard.breaker_open"
EVENT_SHARD_INLINE_DRAIN = "shard.inline_drain"
EVENT_SERVICE_REJECTED = "service.rejected"
EVENT_SERVICE_STARTED = "service.started"
EVENT_SERVICE_DRAINED = "service.drained"
EVENT_QUARANTINE_TRIP = "quarantine.trip"
EVENT_JOURNAL_TRUNCATED = "journal.truncated"
EVENT_WORKER_SPAWNED = "transport.worker_spawned"
EVENT_WORKER_EXIT = "transport.worker_exit"
EVENT_WORKER_REQUEUE = "transport.requeue"
EVENT_INGEST_BATCH = "ingest.batch"
EVENT_INGEST_SCHEMA_ERROR = "ingest.schema_error"
EVENT_WATCH_STARTED = "watch.started"
EVENT_WATCH_BATCH = "watch.batch"
EVENT_WATCH_STOPPED = "watch.stopped"
EVENT_WATCH_IDLE = "watch.idle"
EVENT_AUTH_REJECTED = "transport.auth_rejected"
EVENT_WORKER_REGISTERED = "transport.worker_registered"
EVENT_WORKER_REJOINED = "transport.worker_rejoined"
EVENT_LEASE_FENCED = "transport.lease_fenced"
EVENT_LEASE_EXPIRED = "transport.lease_expired"
EVENT_VERDICT_ACCEPTED = "transport.verdict_accepted"
EVENT_WORKER_RECONNECT = "worker.reconnect"
EVENT_STORE_COMPACTED = "store.compacted"

#: well-known event kinds (kind -> meaning); documentation, not an ACL
EVENT_KINDS = {
    EVENT_SHARD_CRASH: "a worker died or dropped mid-assignment",
    EVENT_SHARD_HANG: "a worker held its claim past the deadline",
    EVENT_SHARD_RESTART: "the supervisor restarted a worker",
    EVENT_SHARD_BREAKER_OPEN: "a worker circuit breaker opened (terminal)",
    EVENT_SHARD_INLINE_DRAIN: "the coordinator checked an assignment "
                              "inline (every breaker open)",
    EVENT_SERVICE_REJECTED: "admission control rejected a request",
    EVENT_SERVICE_STARTED: "the check service started its workers",
    EVENT_SERVICE_DRAINED: "the check service drained cleanly",
    EVENT_QUARANTINE_TRIP: "an architecture was quarantined for a request",
    EVENT_JOURNAL_TRUNCATED: "journal recovery truncated a torn tail",
    EVENT_WORKER_SPAWNED: "a remote transport spawned a worker",
    EVENT_WORKER_EXIT: "a remote worker exited or was reaped",
    EVENT_WORKER_REQUEUE: "in-flight work was requeued off a dead worker",
    EVENT_INGEST_BATCH: "a journal batch was ingested into the store",
    EVENT_INGEST_SCHEMA_ERROR: "a record failed migration during ingest",
    EVENT_WATCH_STARTED: "the watch daemon opened its stream",
    EVENT_WATCH_BATCH: "the watch daemon finished one check batch",
    EVENT_WATCH_STOPPED: "the watch daemon drained and stopped",
    EVENT_WATCH_IDLE: "the watch daemon polled an empty source",
    EVENT_AUTH_REJECTED: "a connecting worker failed the HMAC handshake",
    EVENT_WORKER_REGISTERED: "a worker passed auth and took a lease",
    EVENT_WORKER_REJOINED: "a partitioned worker reconnected in grace",
    EVENT_LEASE_FENCED: "a stale-epoch verdict frame was discarded",
    EVENT_LEASE_EXPIRED: "a worker's lease lapsed without heartbeats",
    EVENT_VERDICT_ACCEPTED: "a remote verdict passed the lease fence",
    EVENT_WORKER_RECONNECT: "a worker client began a reconnect cycle",
    EVENT_STORE_COMPACTED: "the verdict store pruned old rows",
}

#: serialized-event keys every record must carry
_REQUIRED_KEYS = ("schema", "seq", "ts", "kind")


class Event:
    """One structured operational event."""

    __slots__ = ("seq", "ts", "kind", "request_id", "attrs")

    def __init__(self, seq: int, ts: float, kind: str,
                 request_id: str | None = None,
                 attrs: dict[str, Any] | None = None) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.request_id = request_id
        self.attrs = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Event(seq={self.seq}, kind={self.kind!r}, "
                f"request={self.request_id!r})")

    def to_dict(self) -> dict:
        """A JSON-serializable record (the JSONL sink's line payload)."""
        record: dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
        }
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        """Rebuild an event from its serialized record."""
        validate_event_record(record)
        return cls(seq=record["seq"], ts=record["ts"],
                   kind=record["kind"],
                   request_id=record.get("request_id"),
                   attrs=dict(record.get("attrs", {})))


def validate_event_record(record: dict, *,
                          known_kinds_only: bool = False) -> None:
    """Raise ``ValueError`` when a serialized event is malformed.

    The CI ``obs`` job runs every line of an ``--events-out`` file
    through this; ``known_kinds_only`` additionally rejects kinds
    missing from :data:`EVENT_KINDS` (typo detection).
    """
    if not isinstance(record, dict):
        raise ValueError(f"event record must be an object, got "
                         f"{type(record).__name__}")
    for key in _REQUIRED_KEYS:
        if key not in record:
            raise ValueError(f"event record missing {key!r}: {record!r}")
    if record["schema"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema {record['schema']!r} "
            f"(this build reads {EVENT_SCHEMA_VERSION})")
    if not isinstance(record["seq"], int) or record["seq"] < 1:
        raise ValueError(f"event seq must be a positive integer, "
                         f"got {record['seq']!r}")
    if not isinstance(record["ts"], (int, float)):
        raise ValueError(f"event ts must be a number, got "
                         f"{record['ts']!r}")
    if not isinstance(record["kind"], str) or not record["kind"]:
        raise ValueError(f"event kind must be a non-empty string, "
                         f"got {record['kind']!r}")
    if known_kinds_only and record["kind"] not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {record['kind']!r} "
                         f"(not in EVENT_KINDS)")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ValueError(f"event attrs must be an object, got "
                         f"{attrs!r}")


class EventLog:
    """Bounded ring of typed events, fanned out to attached sinks."""

    def __init__(self, *, capacity: int = 1024,
                 clock: Callable[[], float] | None = None,
                 start_seq: int = 0, sinks=()) -> None:
        if capacity < 1:
            raise ValueError(
                f"capacity must be a positive integer, got {capacity!r}")
        if start_seq < 0:
            raise ValueError(
                f"start_seq cannot be negative, got {start_seq!r}")
        #: timestamp source; wall clock unless the caller pins one
        self.clock = clock if clock is not None else time.time
        self._ring: "deque[Event]" = deque(maxlen=capacity)
        self._sinks = list(sinks)
        #: last assigned sequence number (next event gets seq + 1);
        #: seed with a resumed sink's ``last_seq`` so a restarted
        #: service continues the monotone sequence instead of reusing
        #: already-persisted numbers
        self.seq = start_seq
        #: emissions by kind over the log's lifetime (ring-independent)
        self.counts: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        """True — this log records."""
        return True

    def attach(self, sink) -> None:
        """Fan future events out to ``sink`` too."""
        self._sinks.append(sink)

    def emit(self, kind: str, *, request_id: str | None = None,
             **attrs: Any) -> Event:
        """Record one event; returns it (sinks see its dict form)."""
        self.seq += 1
        event = Event(self.seq, self.clock(), kind,
                      request_id=request_id, attrs=attrs or None)
        self._ring.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for sink in self._sinks:
            sink.emit(event.to_dict())
        return event

    def events(self, kind: str | None = None) -> list[Event]:
        """Ring contents (oldest first), optionally one kind only."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def __len__(self) -> int:
        return len(self._ring)

    def stats(self) -> dict:
        """Event telemetry for the service stats endpoint."""
        return {
            "seq": self.seq,
            "ring_size": len(self._ring),
            "counts": {kind: self.counts[kind]
                       for kind in sorted(self.counts)},
        }


class NullEventLog:
    """API-compatible event log that records nothing."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        """False — events are discarded."""
        return False

    seq = 0

    def attach(self, sink) -> None:
        return None

    def emit(self, kind: str, *, request_id: str | None = None,
             **attrs: Any) -> None:
        return None

    def events(self, kind: str | None = None) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def stats(self) -> dict:
        return {"seq": 0, "ring_size": 0, "counts": {}}


#: the process-wide disabled event log instrumented code defaults to
NULL_EVENTS = NullEventLog()
