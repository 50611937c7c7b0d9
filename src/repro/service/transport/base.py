"""Transport abstraction: how a check service executes requests.

A transport owns the execution substrate behind one
:class:`~repro.service.service.CheckService` — worker tasks, worker
processes, or socket peers — behind a uniform request-granularity
interface. The service keeps admission control, accounting, and the
public API; the transport decides *where* the pipeline runs:

- ``asyncio`` (:mod:`.local`): each request checked whole on the
  service's own loop by :func:`run_inline`;
- ``mp`` (:mod:`.mp`): a pool of warm worker processes fed over
  ``multiprocessing`` pipes with wire-codec frames;
- ``socket`` (:mod:`.sock`): the same warm workers connected back over
  a localhost TCP socket speaking the length-prefixed CRC32 protocol.

Every transport runs a request whole, one ``CheckSession.check_commit``
call, like the sequential driver. Every check is a pure function of
(corpus, commit) — the invariant the differential suite enforces — so
verdicts are byte-identical regardless of where they execute.

The module also keeps a registry of live transports
(:func:`live_transports`) so the test suite's leak check can assert
that every test drained its service — an undrained remote transport
means orphaned worker processes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

#: the vocabulary ``ServiceConfig.transport`` accepts
TRANSPORT_KINDS = ("asyncio", "mp", "socket")

#: every started-but-not-drained transport, for the test-suite leak
#: check (weak so forgotten services still get collected eventually)
_LIVE: "weakref.WeakSet" = weakref.WeakSet()


def track_live(transport) -> None:
    """Register a started transport (called from ``start()``)."""
    _LIVE.add(transport)


def untrack_live(transport) -> None:
    """Deregister a drained transport (called from ``drain()``)."""
    _LIVE.discard(transport)


def live_transports() -> list:
    """Transports started but never drained (should be empty between
    tests; the conftest leak check asserts on it)."""
    return list(_LIVE)


@dataclass
class TransportOutcome:
    """What one executed request hands back to the service.

    ``quarantine`` maps quarantined architecture -> trip reason for the
    finished request (the service emits quarantine events and ops
    telemetry from it — remote transports have no ``session.last_build``
    to inspect). ``worker_id`` is the executing worker slot (-1 for
    in-process execution).
    """

    report: object
    quarantine: dict = field(default_factory=dict)
    worker_id: int = -1


def run_inline(service, request) -> TransportOutcome:
    """Check one request whole in this process.

    The asyncio transport runs every request this way; the remote
    transports fall back to it once every worker's breaker is open.
    """
    session = service._make_session(request)
    repository = service.corpus.repository
    report = session.check_commit(repository,
                                  repository.resolve(request.commit_id))
    quarantine = session.last_build.quarantine
    return TransportOutcome(
        report=report,
        quarantine={arch: quarantine.reason(arch)
                    for arch in quarantine.archs()})


class Transport:
    """Interface every transport implements (duck-typed; this base
    documents the contract and provides neutral defaults)."""

    #: one of :data:`TRANSPORT_KINDS`
    kind = "abstract"

    async def start(self) -> None:
        """Bring up workers; idempotent."""
        raise NotImplementedError

    async def run_request(self, request) -> TransportOutcome:
        """Execute one admitted request to a finished verdict."""
        raise NotImplementedError

    async def drain(self) -> None:
        """Finish in-flight work and stop workers; idempotent."""
        raise NotImplementedError

    def address(self) -> "tuple[str, int] | None":
        """(host, port) a networked transport listens on, else None."""
        return None

    # -- telemetry hooks the service's stats()/health() read ---------------

    def shard_stats(self) -> list:
        """Per-worker stats dicts, in worker order."""
        return []

    def supervisor_stats(self) -> dict:
        """Worker supervision counters ({} without workers)."""
        return {}

    def breaker_open_workers(self) -> list:
        """Indices of workers whose circuit breaker is open."""
        return []


def create_transport(service, kind: str):
    """Build the transport ``kind`` for one service (not started)."""
    if kind == "asyncio":
        from repro.service.transport.local import AsyncioTransport
        return AsyncioTransport(service)
    if kind == "mp":
        from repro.service.transport.mp import MpTransport
        return MpTransport(service)
    if kind == "socket":
        from repro.service.transport.sock import SocketTransport
        return SocketTransport(service)
    raise ValueError(
        f"unknown transport {kind!r} "
        f"(known: {', '.join(TRANSPORT_KINDS)})")
