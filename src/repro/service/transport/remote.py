"""Shared coordinator logic for process-backed transports.

:class:`RemoteTransport` owns everything the mp and socket transports
have in common: warm worker slots, wire-frame dispatch, uniform
supervision, and telemetry relay. Subclasses only provide the channel
plumbing (:meth:`_spawn` / :meth:`_connect`).

Supervision is one state machine for both transports — a dead child
process and a dropped socket are the same worker crash:

- **crash** — the channel reaches EOF while an assignment is claimed
  (child killed, pipe closed, socket reset);
- **hang** — no reply lands within
  :attr:`SupervisorConfig.hang_deadline_seconds`;
- recovery is requeue-then-restart under an exponential-backoff
  restart budget, and an exhausted budget opens the slot's circuit
  breaker. When *every* slot is broken, an inline drain loop checks
  the remaining assignments in the coordinator process through
  :func:`~repro.service.transport.base.run_inline` — degraded to
  sequential, but never losing results.

Requeue is idempotent: chaos kills fire *before* the assignment runs,
and every check is a pure function of (corpus, commit), so
re-executing a lost assignment reproduces the byte-identical verdict.
Exactly-once delivery of verdicts is the journal ledger's dedup
layer, unchanged.

The worker-site fault injector runs on the coordinator, keyed by
(worker slot, lifetime pickup sequence), so chaos schedules are
deterministic for a fixed dispatch order and survive worker restarts
(a fresh child process does not reset the slot's pickup counter).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.errors import TransportError
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import SITE_WORKER
from repro.obs.events import (
    EVENT_LEASE_EXPIRED,
    EVENT_LEASE_FENCED,
    EVENT_SHARD_BREAKER_OPEN,
    EVENT_SHARD_CRASH,
    EVENT_SHARD_HANG,
    EVENT_SHARD_INLINE_DRAIN,
    EVENT_SHARD_RESTART,
    EVENT_VERDICT_ACCEPTED,
    EVENT_WORKER_EXIT,
    EVENT_WORKER_REJOINED,
    EVENT_WORKER_REQUEUE,
    EVENT_WORKER_SPAWNED,
)
from repro.obs.logcfg import get_logger
from repro.obs.timeseries import registry_from_dict
from repro.service.transport import wire
from repro.service.transport.base import (
    Transport,
    TransportOutcome,
    run_inline,
)
from repro.service.transport.worker import WorkerInit

_logger = get_logger("service.transport")

#: generous ceiling on worker startup (corpus unpickle + cache prime)
HELLO_TIMEOUT_SECONDS = 120.0


@dataclass
class SupervisorConfig:
    """Worker supervision tunables (real seconds — supervision watches
    OS-level liveness, not the simulated clock)."""

    #: real seconds an assignment may go without a reply before the
    #: worker counts as hung; a worker does real wall-clock work, so
    #: the default must dominate a legitimately slow commit
    hang_deadline_seconds: float = 30.0
    #: worker restarts allowed per slot before the breaker opens
    max_restarts_per_shard: int = 3
    #: exponential-backoff restart delays: base * factor**(restart-1),
    #: capped at the max
    backoff_base_seconds: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.hang_deadline_seconds <= 0:
            raise ValueError(
                f"hang_deadline_seconds must be positive, "
                f"got {self.hang_deadline_seconds}")
        if self.max_restarts_per_shard < 0:
            raise ValueError(
                f"max_restarts_per_shard cannot be negative, "
                f"got {self.max_restarts_per_shard}")

    def backoff_seconds(self, restart: int) -> float:
        """Delay before restart number ``restart`` (1-based)."""
        delay = self.backoff_base_seconds * (
            self.backoff_factor ** max(0, restart - 1))
        return min(delay, self.backoff_max_seconds)


class WorkerSlot:
    """One worker position: process + channel + supervision state."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.channel = None
        self.pid: "int | None" = None
        #: assignment pickups over the slot's lifetime — the fault-
        #: injection key; deliberately NOT reset on restart, so a
        #: respawned process cannot re-draw its predecessor's faults
        self.pickups = 0
        self.assignments_done = 0
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0
        self.breaker_open = False
        self.breaker_reason = ""
        self.claimed = None
        #: fencing token: bumped on every registration, echoed by
        #: every verdict; a frame carrying an older epoch is from a
        #: session whose work was already requeued and is discarded
        self.lease_epoch = 0
        #: event-loop time of the last heartbeat under the current
        #: lease epoch (dispatch start counts as an implicit beat)
        self.last_heartbeat = 0.0
        #: stale-epoch verdicts fenced off this slot
        self.fenced = 0
        #: reconnects accepted within the grace window (no restart
        #: budget burned — the process never died)
        self.rejoins = 0
        self._task: "asyncio.Task | None" = None

    def stats(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.pid,
            "alive": self.process is not None
            and self.process.is_alive(),
            "assignments": self.assignments_done,
            "pickups": self.pickups,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "restarts": self.restarts,
            "breaker_open": self.breaker_open,
            "breaker_reason": self.breaker_reason,
            "lease_epoch": self.lease_epoch,
            "fenced": self.fenced,
            "rejoins": self.rejoins,
        }


class _Assignment:
    """One queued request plus its completion future."""

    __slots__ = ("seq", "request", "future", "attempts")

    def __init__(self, seq: int, request, future) -> None:
        self.seq = seq
        self.request = request
        self.future = future
        self.attempts = 0


class RemoteTransport(Transport):
    """Warm worker processes behind wire-frame dispatch."""

    kind = "remote"

    def __init__(self, service) -> None:
        self.service = service
        config = service.config
        self.jobs = config.jobs
        self.start_method = config.start_method
        self.supervisor_config = config.supervisor or SupervisorConfig()
        self.slots = [WorkerSlot(index) for index in range(self.jobs)]
        self._pending: "asyncio.Queue[_Assignment]" = None
        self._seq = 0
        self._started = False
        self._draining = False
        self._injector = FaultInjector(config.fault_plan) \
            if config.fault_plan else NULL_INJECTOR
        self._inline_task: "asyncio.Task | None" = None
        self.inline_jobs = 0
        #: seconds between worker heartbeats (0 = heartbeats off and
        #: the plain hang deadline governs reply waits)
        self.heartbeat_seconds = float(
            getattr(config, "heartbeat_seconds", 0.0) or 0.0)
        #: lease length: a worker whose last beat is older than this
        #: is declared dead even if its socket still looks open
        self.lease_seconds = float(
            getattr(config, "lease_seconds", 0.0) or 0.0)
        self.hello_timeout = float(
            getattr(config, "hello_timeout_seconds", None)
            or HELLO_TIMEOUT_SECONDS)
        # -- supervision counters ------------------------------------------
        self.crashes_detected = 0
        self.hangs_detected = 0
        self.restarts = 0
        self.requeued_jobs = 0
        self.breakers_opened = 0
        self.rejoins = 0
        self.fenced_replies = 0
        self.auth_rejected = 0

    # -- channel plumbing (subclass responsibility) ------------------------

    def _spawn(self, slot: WorkerSlot) -> None:
        """Start the slot's worker process (and channel, if eager)."""
        raise NotImplementedError

    async def _connect(self, slot: WorkerSlot) -> None:
        """Wait until ``slot.channel`` is ready (HELLO consumed)."""
        raise NotImplementedError

    def _worker_init(self, slot: WorkerSlot) -> WorkerInit:
        service = self.service
        return WorkerInit(
            worker_id=slot.index,
            start_method=self.start_method,
            corpus=service.corpus,
            options=service.options,
            fault_plan=service.config.fault_plan,
            retry_policy=service.config.retry_policy,
            use_cache=service.cache is not None)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._pending = asyncio.Queue()
        self._draining = False
        loop = asyncio.get_running_loop()
        for slot in self.slots:
            self._spawn(slot)
            self.service.events.emit(
                EVENT_WORKER_SPAWNED, worker=slot.index,
                transport=self.kind,
                start_method=self.start_method)
            slot._task = loop.create_task(
                self._slot_loop(slot),
                name=f"transport-{self.kind}-worker-{slot.index}")
        self._started = True

    async def drain(self) -> None:
        if not self._started:
            return
        # every admitted request has resolved by the time the service
        # calls transport drain, so the slots are idle: stop the loops,
        # then ask the children to exit cleanly. The flag backs up the
        # cancel: before Python 3.12, asyncio.wait_for returns instead of
        # raising when the cancel races a respawned worker's HELLO, and
        # the slot loop would then wait on the empty queue forever.
        self._draining = True
        for slot in self.slots:
            if slot._task is not None:
                slot._task.cancel()
        await asyncio.gather(
            *[slot._task for slot in self.slots
              if slot._task is not None],
            return_exceptions=True)
        if self._inline_task is not None:
            self._inline_task.cancel()
            try:
                await self._inline_task
            except asyncio.CancelledError:
                pass
            self._inline_task = None
        for slot in self.slots:
            await self._shutdown_slot(slot)
        self._started = False

    async def _shutdown_slot(self, slot: WorkerSlot) -> None:
        if slot.channel is not None:
            try:
                await slot.channel.send(wire.encode_frame(
                    wire.MSG_SHUTDOWN, wire.shutdown_message()))
            except (OSError, TransportError):
                pass
        await self._reap(slot, graceful=True)

    async def _reap(self, slot: WorkerSlot, *,
                    graceful: bool = False) -> None:
        """Close the channel, join (or kill) the worker process."""
        if slot.channel is not None:
            slot.channel.close()
            slot.channel = None
        process = slot.process
        slot.process = None
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if graceful:
            await loop.run_in_executor(None, process.join, 5.0)
        if process.is_alive():
            process.kill()
            await loop.run_in_executor(None, process.join, 5.0)
        self.service.events.emit(
            EVENT_WORKER_EXIT, worker=slot.index,
            transport=self.kind, exitcode=process.exitcode)
        process.close()

    # -- execution ---------------------------------------------------------

    async def run_request(self, request) -> TransportOutcome:
        self._seq += 1
        future = asyncio.get_running_loop().create_future()
        assignment = _Assignment(self._seq, request, future)
        self._pending.put_nowait(assignment)
        return await future

    async def _slot_loop(self, slot: WorkerSlot) -> None:
        try:
            await self._connect_or_recover(slot)
            while not slot.breaker_open and not self._draining:
                assignment = await self._pending.get()
                await self._dispatch(slot, assignment)
        except asyncio.CancelledError:
            raise

    async def _connect_or_recover(self, slot: WorkerSlot) -> None:
        """Wait for the slot's worker to say HELLO; a worker that dies
        while starting burns restart budget like any other crash."""
        while not slot.breaker_open:
            try:
                await asyncio.wait_for(self._connect(slot),
                                       timeout=self.hello_timeout)
                return
            except (asyncio.TimeoutError, TransportError, OSError):
                # no rejoin here: we just failed to connect, so a
                # grace-window wait would only recurse into itself
                await self._handle_loss(slot, None, cause="crash",
                                        allow_rejoin=False)

    async def _dispatch(self, slot: WorkerSlot,
                        assignment: _Assignment) -> None:
        if assignment.future.cancelled():
            return
        slot.pickups += 1
        slot.claimed = assignment
        spec = self._injector.fire(SITE_WORKER,
                                   arch=f"worker-{slot.index}",
                                   path=f"pickup-{slot.pickups}")
        chaos = spec.kind if spec is not None else None
        request = assignment.request
        frame = wire.encode_frame(wire.MSG_WORK, wire.work_message(
            assignment.seq, request.request_id, request.commit_id,
            options=request.options, chaos=chaos,
            lease=slot.lease_epoch))
        deadline = self.supervisor_config.hang_deadline_seconds
        try:
            await slot.channel.send(frame)
            reply = await self._await_reply(slot, assignment.seq)
        except asyncio.TimeoutError:
            self.hangs_detected += 1
            slot.hangs += 1
            self.service.metrics.counter(
                "service.supervisor.hangs_detected").inc()
            _logger.warning(
                "%s worker %d hung past the %.3fs deadline; killing "
                "and recovering", self.kind, slot.index, deadline)
            self.service.events.emit(
                EVENT_SHARD_HANG, request_id=request.request_id,
                shard=slot.index, deadline_seconds=deadline,
                pickups=slot.pickups)
            await self._handle_loss(slot, assignment, cause="hang")
            return
        except (OSError, TransportError):
            reply = None
        if reply is None:
            self.crashes_detected += 1
            slot.crashes += 1
            self.service.metrics.counter(
                "service.supervisor.crashes_detected").inc()
            _logger.warning(
                "%s worker %d lost mid-assignment; recovering",
                self.kind, slot.index)
            self.service.events.emit(
                EVENT_SHARD_CRASH, request_id=request.request_id,
                shard=slot.index, error="WorkerLostError",
                pickups=slot.pickups)
            await self._handle_loss(slot, assignment, cause="crash")
            return
        slot.claimed = None
        msg_type, payload = reply
        if msg_type == wire.MSG_ERROR:
            if not assignment.future.done():
                assignment.future.set_exception(TransportError(
                    f"worker {slot.index} failed assignment "
                    f"{assignment.seq}: [{payload['kind']}] "
                    f"{payload['error']}"))
            return
        slot.assignments_done += 1
        self.service.events.emit(
            EVENT_VERDICT_ACCEPTED, request_id=request.request_id,
            worker=slot.index, commit=request.commit_id,
            lease=slot.lease_epoch, seq=assignment.seq)
        outcome = self._absorb_verdict(payload, slot.index)
        if not assignment.future.done():
            assignment.future.set_result(outcome)

    async def _await_reply(self, slot: WorkerSlot,
                           seq: int) -> "tuple[int, dict] | None":
        """Wait for the reply under the slot's liveness regime.

        Without heartbeats this is the classic hang deadline: a fixed
        window from dispatch. With heartbeats on, the window *slides*:
        the reply may take arbitrarily long as long as the worker keeps
        beating within ``lease_seconds`` — which is how a ``net_slow``
        worker survives while a ``net_half_open`` one (open socket,
        total silence) is reclaimed the moment its lease lapses.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        slot.last_heartbeat = start  # dispatch is an implicit beat
        task = loop.create_task(self._read_reply(slot, seq))
        lease_mode = self.heartbeat_seconds > 0 and \
            self.lease_seconds > 0
        try:
            while True:
                if lease_mode:
                    horizon = slot.last_heartbeat + self.lease_seconds
                else:
                    horizon = start + \
                        self.supervisor_config.hang_deadline_seconds
                remaining = horizon - loop.time()
                if remaining <= 0:
                    task.cancel()
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
                    if lease_mode:
                        self.service.events.emit(
                            EVENT_LEASE_EXPIRED, worker=slot.index,
                            lease=slot.lease_epoch,
                            lease_seconds=self.lease_seconds)
                    raise asyncio.TimeoutError
                done, _ = await asyncio.wait({task}, timeout=remaining)
                if done:
                    return task.result()
        except asyncio.CancelledError:
            task.cancel()
            raise

    async def _read_reply(self, slot: WorkerSlot,
                          seq: int) -> "tuple[int, dict] | None":
        """The worker's VERDICT/ERROR for ``seq`` (None on EOF).

        One assignment is in flight per worker and channels are never
        reused across processes, so a mismatched seq can only be a
        protocol bug — surfaced, not skipped. A VERDICT carrying a
        stale lease epoch is the exception: that is a fenced reply
        from a session whose work was already requeued, discarded so
        it can never double-apply.
        """
        while True:
            message = await slot.channel.recv_message()
            if message is None:
                return None
            msg_type, payload = message
            if msg_type == wire.MSG_HELLO:
                continue  # late duplicate announcement; harmless
            if msg_type == wire.MSG_HEARTBEAT:
                if payload.get("lease") == slot.lease_epoch:
                    slot.last_heartbeat = \
                        asyncio.get_running_loop().time()
                continue
            if msg_type not in (wire.MSG_VERDICT, wire.MSG_ERROR):
                continue
            if msg_type == wire.MSG_VERDICT and \
                    payload.get("lease", slot.lease_epoch) != \
                    slot.lease_epoch:
                self.fenced_replies += 1
                slot.fenced += 1
                self.service.metrics.counter(
                    "service.transport.fenced_replies").inc()
                _logger.warning(
                    "%s worker %d sent a verdict under stale lease "
                    "%r (current %d); fenced", self.kind, slot.index,
                    payload.get("lease"), slot.lease_epoch)
                self.service.events.emit(
                    EVENT_LEASE_FENCED,
                    request_id=payload.get("request_id"),
                    worker=slot.index,
                    stale_lease=payload.get("lease"),
                    lease=slot.lease_epoch)
                continue
            if payload.get("seq") != seq:
                raise TransportError(
                    f"worker {slot.index} answered seq "
                    f"{payload.get('seq')!r} while {seq} was in "
                    f"flight")
            return msg_type, payload

    def _absorb_verdict(self, payload: dict,
                        worker_id: int) -> TransportOutcome:
        """Rebuild the report and fold worker telemetry into the
        service's obs plane."""
        report = wire.report_from_wire(payload["report"])
        metrics = payload.get("metrics") or {}
        if metrics:
            self.service.metrics.merge(registry_from_dict(metrics))
        for event in payload.get("events") or []:
            attrs = dict(event.get("attrs") or {})
            attrs.setdefault("worker", worker_id)
            self.service.events.emit(
                event["kind"], request_id=event.get("request_id"),
                **attrs)
        return TransportOutcome(
            report=report,
            quarantine=dict(payload.get("quarantine") or {}),
            worker_id=worker_id)

    # -- recovery ----------------------------------------------------------

    def _requeue(self, slot: WorkerSlot, assignment: _Assignment,
                 cause: str) -> None:
        """Put lost work back on the queue (idempotent: pure re-run)."""
        assignment.attempts += 1
        self.requeued_jobs += 1
        self.service.metrics.counter(
            "service.supervisor.requeued_jobs").inc()
        self.service.events.emit(
            EVENT_WORKER_REQUEUE,
            request_id=assignment.request.request_id,
            worker=slot.index, cause=cause,
            attempts=assignment.attempts)
        self._pending.put_nowait(assignment)

    async def _try_rejoin(self, slot: WorkerSlot) -> bool:
        """Wait for a partitioned worker to reconnect in grace.

        The base transport has no reconnect story (a dead pipe means a
        dead child); the socket transport overrides this to re-arm the
        slot's rendezvous and wait out its configured grace window.
        """
        return False

    async def _handle_loss(self, slot: WorkerSlot,
                           assignment: "_Assignment | None",
                           cause: str, *,
                           allow_rejoin: bool = True) -> None:
        """Rejoin-or-requeue-then-restart, or open the breaker.

        A crashed *connection* is given one chance to be a partition:
        if the worker process dials back within the transport's grace
        window it re-registers under a fresh lease epoch and no
        restart budget is burned (the process never died). Everything
        else takes the reap/restart/breaker path unchanged.
        """
        slot.claimed = None
        if allow_rejoin and cause == "crash" and \
                await self._try_rejoin(slot):
            self.rejoins += 1
            slot.rejoins += 1
            self.service.metrics.counter(
                "service.transport.rejoins").inc()
            _logger.info("%s worker %d rejoined within grace "
                         "(lease epoch %d)", self.kind, slot.index,
                         slot.lease_epoch)
            self.service.events.emit(
                EVENT_WORKER_REJOINED, worker=slot.index,
                lease=slot.lease_epoch, rejoins=slot.rejoins)
            if assignment is not None:
                self._requeue(slot, assignment, cause)
            return
        await self._reap(slot)
        if assignment is not None:
            self._requeue(slot, assignment, cause)
        if slot.restarts >= self.supervisor_config.\
                max_restarts_per_shard:
            self._open_breaker(slot)
            return
        slot.restarts += 1
        self.restarts += 1
        self.service.metrics.counter(
            "service.supervisor.restarts").inc()
        delay = self.supervisor_config.backoff_seconds(slot.restarts)
        _logger.info("restarting %s worker %d (restart %d/%d, "
                     "backoff %.3fs)", self.kind, slot.index,
                     slot.restarts,
                     self.supervisor_config.max_restarts_per_shard,
                     delay)
        self.service.events.emit(
            EVENT_SHARD_RESTART, shard=slot.index,
            restart=slot.restarts,
            budget=self.supervisor_config.max_restarts_per_shard,
            backoff_seconds=delay)
        if delay > 0:
            await asyncio.sleep(delay)
        self._spawn(slot)
        self.service.events.emit(
            EVENT_WORKER_SPAWNED, worker=slot.index,
            transport=self.kind, start_method=self.start_method,
            restart=slot.restarts)
        await self._connect_or_recover(slot)

    def _open_breaker(self, slot: WorkerSlot) -> None:
        slot.breaker_open = True
        slot.breaker_reason = (
            f"restart budget exhausted "
            f"({self.supervisor_config.max_restarts_per_shard} "
            f"restart(s))")
        self.breakers_opened += 1
        self.service.metrics.counter(
            "service.supervisor.breakers_opened").inc()
        _logger.error("%s worker %d circuit breaker OPEN (%s)",
                      self.kind, slot.index, slot.breaker_reason)
        self.service.events.emit(
            EVENT_SHARD_BREAKER_OPEN, shard=slot.index,
            reason=slot.breaker_reason)
        if all(other.breaker_open for other in self.slots) and \
                self._inline_task is None:
            # no workers left anywhere: degrade to running assignments
            # in the coordinator process — sequential, but complete
            self._inline_task = asyncio.get_running_loop().create_task(
                self._inline_loop(), name=f"transport-{self.kind}-"
                f"inline-drain")

    async def _inline_loop(self) -> None:
        while True:
            assignment = await self._pending.get()
            if assignment.future.cancelled():
                continue
            self.inline_jobs += 1
            self.service.events.emit(
                EVENT_SHARD_INLINE_DRAIN, shard=-1, jobs=1)
            try:
                # degraded path: the coordinator checks the commit itself
                outcome = run_inline(self.service, assignment.request)
            except Exception as error:  # noqa: BLE001
                if not assignment.future.done():
                    assignment.future.set_exception(error)
                continue
            if not assignment.future.done():
                assignment.future.set_result(outcome)

    # -- telemetry ---------------------------------------------------------

    def shard_stats(self) -> list:
        return [slot.stats() for slot in self.slots]

    def supervisor_stats(self) -> dict:
        return {
            "crashes_detected": self.crashes_detected,
            "hangs_detected": self.hangs_detected,
            "restarts": self.restarts,
            "requeued_jobs": self.requeued_jobs,
            "breakers_opened": self.breakers_opened,
            "breaker_open_shards": [slot.index for slot in self.slots
                                    if slot.breaker_open],
            "rejoins": self.rejoins,
            "fenced_replies": self.fenced_replies,
            "auth_rejected": self.auth_rejected,
        }

    def breaker_open_workers(self) -> list:
        return [slot.index for slot in self.slots
                if slot.breaker_open]
