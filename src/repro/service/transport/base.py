"""Transport abstraction: how a check service executes requests.

A transport owns the execution substrate behind one
:class:`~repro.service.service.CheckService` — worker tasks, worker
processes, or socket peers — behind a uniform request-granularity
interface. The service keeps admission control, accounting, and the
public API; the transport decides *where* the pipeline runs:

- ``asyncio`` (:mod:`.local`): each request checked whole on the
  service's own loop by :func:`run_inline`;
- ``socket`` (:mod:`.sock`): a pool of warm worker processes connected
  back over TCP (loopback, or cross-host) speaking the length-prefixed
  CRC32 protocol.

Every transport runs a request whole, one ``CheckSession.check_commit``
call (:func:`check_whole`), like the sequential driver. Every check is
a pure function of (corpus, commit) — the invariant the differential
suite enforces — so verdicts are byte-identical regardless of where
they execute.

The module also keeps a registry of live transports
(:func:`live_transports`) so the test suite's leak check can assert
that every test drained its service — an undrained remote transport
means orphaned worker processes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.core.jmake import CheckSession
from repro.obs.tracer import Tracer

#: the vocabulary ``ServiceConfig.transport`` accepts
TRANSPORT_KINDS = ("asyncio", "socket")

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
    telemetry from it — the socket transport has no
    ``session.last_build`` to inspect). ``span_tree`` is the check's
    serialized root span when the service has a tracer, else None.
    """

    report: object
    quarantine: dict = field(default_factory=dict)
    span_tree: "dict | None" = None


def check_whole(corpus, commit_id: str, *, trace: bool,
                **session_args) -> TransportOutcome:
    """Check one commit whole in a fresh ``CheckSession`` built from
    ``session_args`` — one ``check_commit`` call, wherever it runs.

    With ``trace`` the session gets its own tracer, and the outcome
    carries the root span serialized with simulated times rebased to
    the commit's start.
    """
    tracer = Tracer() if trace else None
    session = CheckSession.from_generated_tree(corpus.tree, tracer=tracer,
                                               **session_args)
    repository = corpus.repository
    report = session.check_commit(repository,
                                  repository.resolve(commit_id))
    quarantine = session.last_build.quarantine
    return TransportOutcome(
        report=report,
        quarantine={arch: quarantine.reason(arch)
                    for arch in quarantine.archs()},
        span_tree=tracer.drain()[-1].to_dict() if trace else None)


def run_inline(service, request) -> TransportOutcome:
    """Check one request whole in this process.

    The asyncio transport runs every request this way; the socket
    transport falls back to it once every worker's breaker is open.
    """
    return check_whole(
        service.corpus, request.commit_id,
        trace=service.config.tracer is not None,
        options=request.options or service.options, cache=service.cache,
        metrics=service.metrics, fault_plan=service.config.fault_plan,
        retry_policy=service.config.retry_policy)


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
    if kind == "socket":
        from repro.service.transport.sock import SocketTransport
        return SocketTransport(service)
    raise ValueError(
        f"unknown transport {kind!r} "
        f"(known: {', '.join(TRANSPORT_KINDS)})")
