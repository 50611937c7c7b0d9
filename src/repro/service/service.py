"""The persistent check service.

One :class:`CheckService` holds the long-lived substrate — the shared
BuildCache, the execution transport, and the service metrics registry —
while every submitted :class:`~repro.service.request.CheckRequest`
gets its own :class:`~repro.core.jmake.CheckSession` (own SimClock,
own FaultInjector scope, own BuildSystem and quarantine).

*Where* a request executes is the transport's business
(:mod:`repro.service.transport`): the default ``asyncio`` transport
checks each request whole on this loop, while the ``mp`` and
``socket`` transports ship whole commit assignments to warm worker
processes over the wire codec. Every check is a pure function of
(corpus, commit), so the differential suite pins all three transports
byte-identical to the sequential ``EvaluationSession``.

Admission control: ``submit()`` awaits a bounded slot (backpressure),
``submit_nowait()`` raises :class:`~repro.errors.
ServiceOverloadedError` when no slot is free. After ``drain()`` begins,
new submissions raise :class:`~repro.errors.ServiceDrainingError`;
in-flight requests finish, the transport flushes its workers, and the
service stops.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.core.jmake import CheckSession, JMakeOptions
from repro.cpp import prepared
from repro.errors import ServiceDrainingError, ServiceOverloadedError
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import FaultPlan
from repro.faults.resilience import RetryPolicy
from repro.obs.events import (
    EVENT_QUARANTINE_TRIP,
    EVENT_SERVICE_DRAINED,
    EVENT_SERVICE_REJECTED,
    EVENT_SERVICE_STARTED,
    NULL_EVENTS,
)
from repro.obs.logcfg import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.service.request import CheckRequest, CheckResult
from repro.service.transport.base import (
    TRANSPORT_KINDS,
    create_transport,
    track_live,
    untrack_live,
)
from repro.service.transport.remote import SupervisorConfig
from repro.util.validate import validate_jobs
from repro.workload.corpus import Corpus

#: start methods ``multiprocessing`` supports for remote transports
START_METHODS = ("fork", "spawn", "forkserver")

_logger = get_logger("service")

#: wall-clock request-latency buckets (real seconds — requests complete
#: in milliseconds on the synthetic substrate, so the sim-second
#: defaults would pile everything into the first bucket)
_WALL_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                         10.0, 30.0)


@dataclass
class ServiceConfig:
    """Tunables of one :class:`CheckService`."""

    #: admission control: requests admitted concurrently
    max_pending_requests: int = 64
    #: fault plan applied per request (same semantics as sequential)
    fault_plan: "FaultPlan | None" = None
    retry_policy: "RetryPolicy | None" = None
    #: optional tracer for the per-request ``service.request`` span
    tracer: object = None
    #: optional structured-event log (:class:`repro.obs.events.
    #: EventLog`); None -> NULL_EVENTS, zero overhead
    events: object = None
    #: optional periodic metrics snapshotter (:class:`repro.obs.
    #: timeseries.Snapshotter`); started/stopped with the service when
    #: it carries an interval, sampled once at drain either way
    snapshotter: object = None
    #: remote transports: worker supervision tunables (None ->
    #: SupervisorConfig defaults)
    supervisor: "SupervisorConfig | None" = None
    #: execution backend: "asyncio" (checks on this process's loop),
    #: "mp" (warm worker processes over pipes), or "socket" (warm
    #: workers over the CRC32-framed localhost protocol)
    transport: str = "asyncio"
    #: worker processes for remote transports
    jobs: int = 2
    #: multiprocessing start method for remote transports; None reads
    #: JMAKE_START_METHOD from the environment (default "fork"), which
    #: is how CI runs the whole transport surface under ``spawn``
    start_method: "str | None" = None
    #: socket transport: "HOST:PORT" to listen on (None -> loopback
    #: with an ephemeral port, the local-spawn default)
    listen: "str | None" = None
    #: socket transport: shared secret for the HMAC challenge/response
    #: handshake; None generates a fresh key per coordinator (locally
    #: spawned workers inherit it, everything else is locked out)
    auth_key: "str | None" = None
    #: socket transport: spawn local worker processes (True) or wait
    #: for external ``jmake worker --connect`` processes (False)
    spawn_workers: bool = True
    #: socket transport: seconds between worker heartbeats (0 = off;
    #: reply waits then use the plain hang deadline)
    heartbeat_seconds: float = 0.0
    #: socket transport: lease length; a worker silent this long is
    #: declared dead even on an open socket. Must dominate the
    #: heartbeat interval when heartbeats are on.
    lease_seconds: float = 0.0
    #: socket transport: seconds a partitioned worker may dial back
    #: and rejoin without burning restart budget (0 = no grace)
    reconnect_grace_seconds: float = 0.0
    #: remote transports: ceiling on worker startup/registration
    #: (None -> the transport default, 120s)
    hello_timeout_seconds: "float | None" = None

    def __post_init__(self) -> None:
        self.jobs = validate_jobs(self.jobs, what="jobs")
        if self.start_method is None:
            self.start_method = os.environ.get(
                "JMAKE_START_METHOD", "fork")
        if self.transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(known: {', '.join(TRANSPORT_KINDS)})")
        if self.start_method not in START_METHODS:
            raise ValueError(
                f"unknown start method {self.start_method!r} "
                f"(known: {', '.join(START_METHODS)})")
        if self.max_pending_requests < 1:
            raise ValueError(
                f"max_pending_requests must be a positive integer, "
                f"got {self.max_pending_requests}")
        if self.transport != "socket":
            if self.listen is not None:
                raise ValueError(
                    "listen requires the socket transport, "
                    f"not {self.transport!r}")
            if not self.spawn_workers:
                raise ValueError(
                    "spawn_workers=False requires the socket "
                    f"transport, not {self.transport!r}")
            if self.heartbeat_seconds:
                raise ValueError(
                    "heartbeat_seconds requires the socket "
                    f"transport, not {self.transport!r}")
        if not self.spawn_workers and not self.auth_key:
            raise ValueError(
                "spawn_workers=False requires an explicit auth_key "
                "(external workers must share the secret)")
        for name in ("heartbeat_seconds", "lease_seconds",
                     "reconnect_grace_seconds"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(
                    f"{name} cannot be negative, got {value!r}")
        if self.heartbeat_seconds > 0 and \
                self.lease_seconds < self.heartbeat_seconds:
            raise ValueError(
                "lease_seconds must be at least heartbeat_seconds "
                f"({self.lease_seconds!r} < "
                f"{self.heartbeat_seconds!r})")
        if self.hello_timeout_seconds is not None and \
                self.hello_timeout_seconds <= 0:
            raise ValueError(
                f"hello_timeout_seconds must be positive, "
                f"got {self.hello_timeout_seconds!r}")


class CheckService:
    """A long-lived check service over one corpus."""

    def __init__(self, corpus: Corpus, *,
                 options: JMakeOptions | None = None,
                 config: ServiceConfig | None = None,
                 cache: "BuildCache | bool | None" = True) -> None:
        self.corpus = corpus
        self.options = options or JMakeOptions()
        self.config = config or ServiceConfig()
        if cache is False or cache is None:
            self.cache: "BuildCache | None" = None
        elif cache is True:
            self.cache = BuildCache()
        else:
            self.cache = cache
        #: service-wide metrics (scheduling + aggregated pipeline)
        self.metrics = MetricsRegistry()
        self.tracer = self.config.tracer \
            if self.config.tracer is not None else NULL_TRACER
        #: structured operational events (crashes, rejections, trips)
        self.events = self.config.events \
            if self.config.events is not None else NULL_EVENTS
        #: periodic metric snapshots (None -> no time series)
        self.snapshotter = self.config.snapshotter
        #: injector pinned on the shared cache (cache-site faults are
        #: verdict-neutral; per-request injectors own the step sites)
        if self.cache is not None:
            pinned = FaultInjector(self.config.fault_plan) \
                if self.config.fault_plan else NULL_INJECTOR
            self.cache.pin_injector(pinned)
        #: the execution backend (built at start())
        self.transport = None
        #: ops view of arch flakiness across requests (never verdicts):
        #: every architecture some request quarantined
        self._quarantined: set[str] = set()
        self._admission: "asyncio.Semaphore | None" = None
        self._requests: set = set()
        self._started = False
        self._draining = False
        self._request_seq = 0
        self.requests_completed = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Create the transport and bring its workers up."""
        if self._started:
            return
        self.transport = create_transport(self, self.config.transport)
        await self.transport.start()
        track_live(self.transport)
        self._admission = asyncio.Semaphore(
            self.config.max_pending_requests)
        if self.snapshotter is not None and \
                self.snapshotter.interval_seconds is not None:
            self.snapshotter.start()
        self._started = True
        self._draining = False
        self.events.emit(EVENT_SERVICE_STARTED,
                         transport=self.config.transport,
                         jobs=self.config.jobs)
        _logger.info("service started: transport=%s jobs=%d",
                     self.config.transport, self.config.jobs)

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, stop workers."""
        if not self._started:
            return
        self._draining = True
        # in-flight request coroutines first, then the workers
        while self._requests:
            await asyncio.gather(*list(self._requests),
                                 return_exceptions=True)
        if self.transport is not None:
            await self.transport.drain()
            untrack_live(self.transport)
        if self.snapshotter is not None:
            # final sample: the drained state lands in the time series
            await self.snapshotter.stop(final_sample=True)
        self._started = False
        self.events.emit(EVENT_SERVICE_DRAINED,
                         requests_completed=self.requests_completed)
        _logger.info("service drained: requests=%d",
                     self.requests_completed)

    # -- submission ------------------------------------------------------------

    def _admit(self, request: CheckRequest) -> None:
        if self._draining or not self._started:
            raise ServiceDrainingError(
                "service is draining; request rejected")
        self._request_seq += 1
        if not request.request_id:
            request.request_id = f"req-{self._request_seq}"

    async def submit(self, request: CheckRequest) -> CheckResult:
        """Admit (awaiting a slot under load) and run one request."""
        self._admit(request)
        return await self._run_admitted(request)

    def submit_nowait(self, request: CheckRequest) -> "asyncio.Task":
        """Admit without waiting; raises ServiceOverloadedError when
        admission is full. Returns the request's task."""
        self._admit(request)
        if self._admission.locked():
            self.metrics.counter("service.rejected").inc()
            self.events.emit(
                EVENT_SERVICE_REJECTED,
                request_id=request.request_id,
                queue_depth=len(self._requests),
                limit=self.config.max_pending_requests)
            raise ServiceOverloadedError(
                f"admission queue full "
                f"({self.config.max_pending_requests} in flight)",
                queue_depth=len(self._requests),
                limit=self.config.max_pending_requests)
        return asyncio.get_running_loop().create_task(
            self._run_admitted(request))

    async def _run_admitted(self, request: CheckRequest) -> CheckResult:
        # register before the semaphore wait so drain() sees requests
        # that were admitted but are still queued for a slot
        task = asyncio.current_task()
        self._requests.add(task)
        self.metrics.gauge("service.requests.in_flight").set(
            len(self._requests))
        try:
            async with self._admission:
                return await self._run_request(request)
        finally:
            self._requests.discard(task)
            self.metrics.gauge("service.requests.in_flight").set(
                len(self._requests))

    # -- execution -------------------------------------------------------------

    def _make_session(self, request: CheckRequest) -> CheckSession:
        return CheckSession.from_generated_tree(
            self.corpus.tree,
            options=request.options or self.options,
            cache=self.cache,
            metrics=self.metrics,
            fault_plan=self.config.fault_plan,
            retry_policy=self.config.retry_policy)

    async def _run_request(self, request: CheckRequest) -> CheckResult:
        wall_start = time.perf_counter()
        with self.tracer.span("service.request",
                              request=request.request_id,
                              commit=request.commit_id):
            outcome = await self.transport.run_request(request)
        report = outcome.report
        self._quarantined.update(outcome.quarantine)
        for arch, reason in outcome.quarantine.items():
            self.metrics.counter("service.quarantine.trips").inc()
            self.events.emit(EVENT_QUARANTINE_TRIP,
                             request_id=request.request_id,
                             commit=report.commit_id, arch=arch,
                             site=reason)
        self.requests_completed += 1
        self.metrics.counter("service.requests.completed").inc()
        self.metrics.histogram("service.request.sim_seconds").observe(
            report.elapsed_seconds)
        self.metrics.histogram(
            "service.request.wall_seconds",
            buckets=_WALL_LATENCY_BUCKETS).observe(
                time.perf_counter() - wall_start)
        if report.fault_reports:
            self.metrics.counter("service.requests.faulted").inc()
        return CheckResult(
            request_id=request.request_id,
            commit_id=report.commit_id,
            report=report,
            record=report.to_dict(),
            elapsed_sim_seconds=report.elapsed_seconds,
        )

    # -- conveniences ----------------------------------------------------------

    def check_commits(self, commit_ids, *,
                      options: JMakeOptions | None = None,
                      on_result=None) -> list[CheckResult]:
        """Synchronous wrapper: start, submit all, drain, return results
        in submission order.

        ``on_result`` fires per result, in submission order, as soon as
        it (and every earlier one) is available — the hook the resumable
        evaluation runner journals verdicts through. An exception from
        the callback aborts the run (that is how a simulated crash
        propagates); already-computed but not-yet-journaled results are
        lost, exactly as a real crash would lose them.
        """

        async def main() -> list[CheckResult]:
            await self.start()
            try:
                tasks = [
                    asyncio.ensure_future(self.submit(CheckRequest(
                        commit_id=commit_id, options=options)))
                    for commit_id in commit_ids]
                results = []
                for task in tasks:
                    result = await task
                    if on_result is not None:
                        on_result(result)
                    results.append(result)
                return results
            finally:
                await self.drain()

        return asyncio.run(main())

    def health(self) -> dict:
        """Live/ready/degraded, derived from worker + admission state.

        ``status`` is ``ok`` (started, everything healthy),
        ``degraded`` (serving, but a breaker is open or an arch is
        quarantined — capacity or coverage is reduced), ``draining``
        (refusing new work, finishing in-flight), or ``down`` (not
        started). ``ready`` is the load-balancer admission signal:
        True exactly when a new submit() would be accepted.
        """
        breakers = self.transport.breaker_open_workers() \
            if self.transport is not None else []
        quarantined = sorted(self._quarantined)
        if not self._started:
            status = "down"
        elif self._draining:
            status = "draining"
        elif breakers or quarantined:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "ready": self._started and not self._draining,
            "breaker_open_shards": breakers,
            "quarantined_archs": quarantined,
            "requests_in_flight": len(self._requests),
            "admission_free_slots":
                self.config.max_pending_requests - len(self._requests)
                if self._started else 0,
        }

    def stats(self) -> dict:
        """Service telemetry: workers, admission, health."""
        return {
            "started": self._started,
            "draining": self._draining,
            "health": self.health(),
            "requests_completed": self.requests_completed,
            "requests_in_flight": len(self._requests),
            "transport": {
                "kind": self.config.transport,
                "jobs": self.config.jobs,
                "start_method": self.config.start_method,
            },
            "shards": self.transport.shard_stats()
            if self.transport is not None else [],
            "supervisor": self.transport.supervisor_stats()
            if self.transport is not None else {},
            "events": self.events.stats(),
            "snapshots": self.snapshotter.stats()
            if self.snapshotter is not None else None,
            "cache": None if self.cache is None
            else self.cache.stats_snapshot().render(),
            # process-local view: worker processes keep their own
            # substrate counters, this reports the coordinator's
            "substrate": prepared.stats_snapshot(),
        }
