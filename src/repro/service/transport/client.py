"""The connected worker: ``jmake worker --connect HOST:PORT``.

This is the client half of the fleet protocol — a standalone process
that dials a coordinator, authenticates with the shared-key HMAC
challenge/response, rebuilds the corpus deterministically from the
shipped :class:`~repro.workload.corpus.CorpusSpec`, and serves WORK
frames under a lease until told to stop. It is also what the socket
transport's *locally spawned* workers run, so there is exactly one
session state machine regardless of where the worker lives.

The session protocol, from the client's side::

    connect ──> CHALLENGE(nonce) ──> HELLO(auth=HMAC(key, nonce))
        ├── ERROR(kind=AuthError)  -> permanent failure, never retried
        └── WELCOME(worker_id, lease, fingerprint, corpus?, ...)
              -> rebuild/verify corpus, start heartbeats, serve WORK

Hostile-network hardening lives in :meth:`WorkerClient.run`: any
connection loss outside the permanent-failure cases re-enters the dial
loop with jittered exponential backoff (deterministic per (seed,
worker, attempt), so chaos schedules replay). A reconnecting worker
re-registers from scratch and receives a **fresh lease epoch**; any
verdict it might still hold from the previous session carries the old
epoch and is fenced off by the coordinator, which is what makes
requeue-after-partition idempotent instead of duplicating verdicts.

Chaos lives here too: the WORK frame's ``chaos`` field is the
coordinator's worker-site fault decision for this pickup (one frame),
and every worker, spawned or connected, executes it the same way.
``worker_kill``/``worker_crash`` hard-exit before the batch runs (the
requeue replays nothing), ``socket_drop`` severs the socket mid-claim
and exits, ``worker_hang`` parks the process until the coordinator's
hang deadline reaps it, ``net_partition`` severs the socket but keeps
the process alive to reconnect, ``net_slow`` delays the verdict while
heartbeats keep the lease warm, ``net_half_open`` goes silent on an
open socket so only lease expiry can reclaim the assignment. The
*effects* are real — a dead child, a closed socket, a silent peer — so
the detection paths the chaos suite exercises are the production ones.

A worker that ``multiprocessing`` started exits instead of dialing
once that parent has exited. Its waits for CHALLENGE and WELCOME end
after the coordinator's own handshake bound
(``wire.HANDSHAKE_TIMEOUT_SECONDS``), or as soon as that parent exits,
so a killed coordinator leaves no worker behind. A ``jmake worker
--connect`` process has no such parent and keeps redialing.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.errors import (
    AuthError,
    CorpusMismatchError,
    TransportError,
)
from repro.faults.plan import (
    KIND_NET_HALF_OPEN,
    KIND_NET_PARTITION,
    KIND_NET_SLOW,
    KIND_SOCKET_DROP,
    KIND_WORKER_CRASH,
    KIND_WORKER_HANG,
    KIND_WORKER_KILL,
    unit_draw,
)
from repro.obs.events import EVENT_WORKER_RECONNECT
from repro.service.transport import wire
from repro.service.transport.worker import (
    SocketChildChannel,
    WorkerInit,
    WorkerRuntime,
)

#: exit codes the coordinator logs for post-mortems (any non-zero exit
#: is just "worker lost" to supervision)
EXIT_CHAOS_KILL = 70
EXIT_CHAOS_DROP = 71

#: real seconds a ``net_slow`` assignment is delayed before it is
#: served — long enough to be visible in timings, short enough that a
#: heartbeat-backed lease never expires over it
NET_SLOW_SECONDS = 0.35


@dataclass(frozen=True)
class ReconnectPolicy:
    """Client-side dial/retry behavior under a hostile network.

    Backoff for attempt *n* is ``min(max, base * factor**n)`` scaled by
    a deterministic jitter in ``[0.5, 1.5)`` drawn from (seed, worker,
    attempt) — desynchronized enough that a healed partition does not
    produce a thundering herd, deterministic enough that chaos suites
    replay byte-identically. The attempt counter resets on every
    successful registration, so ``max_attempts`` bounds *consecutive*
    failures, not lifetime reconnects.
    """

    max_attempts: int = 8
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 2.0
    seed: str = "worker-reconnect"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts!r}")
        if self.backoff_base_seconds < 0:
            raise ValueError(
                f"backoff_base_seconds cannot be negative, "
                f"got {self.backoff_base_seconds!r}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be at least 1, "
                f"got {self.backoff_factor!r}")
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ValueError("backoff_max_seconds cannot be below "
                             "backoff_base_seconds")

    def backoff_seconds(self, worker_id: int, attempt: int) -> float:
        """Jittered deterministic delay before retry ``attempt``."""
        ceiling = min(self.backoff_max_seconds,
                      self.backoff_base_seconds
                      * self.backoff_factor ** attempt)
        jitter = 0.5 + unit_draw(self.seed, worker_id, attempt)
        return ceiling * jitter


class _HeartbeatThread:
    """Daemon thread beating the worker's lease on a shared channel."""

    def __init__(self, channel, worker_id: int, lease: int,
                 interval: float) -> None:
        self._channel = channel
        self._frame = wire.encode_frame(
            wire.MSG_HEARTBEAT, wire.heartbeat_message(worker_id, lease))
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"jmake-heartbeat-{worker_id}",
            daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._channel.send(self._frame)
            except OSError:
                return  # connection gone; the serve loop handles it

    def stop(self) -> None:
        self._stop.set()


def _orphaned() -> bool:
    """True in a process ``multiprocessing`` started whose parent has
    exited. ``os.getppid()`` cannot tell: under ``forkserver`` the OS
    parent is the fork server, which outlives the coordinator."""
    parent = multiprocessing.parent_process()
    return parent is not None and not parent.is_alive()


class WorkerClient:
    """One worker session: dial, authenticate, rebuild, serve, retry.

    ``worker_id`` of ``-1`` asks the coordinator for any free slot (the
    cross-host case); a spawned local worker passes its slot index so
    it lands where the transport armed its rendezvous. ``corpus`` may
    be supplied directly (spawned workers inherit it under ``fork``);
    otherwise it is rebuilt from the WELCOME's shipped spec and
    verified against the coordinator's fingerprint. ``cache`` is the
    coordinator's primed :class:`BuildCache` for a spawned worker
    (None: the service runs uncached); ``True`` builds a private cache
    when the WELCOME asks for one, ``False`` never does.

    ``hard_exit`` controls the fatal chaos kinds: real worker processes
    die with ``os._exit`` (the production signal supervision must
    detect), while in-thread test clients set it False and stop the
    session loop instead so they cannot take pytest down with them.
    """

    def __init__(self, host: str, port: int, *, auth_key: str,
                 worker_id: int = -1, corpus: object = None,
                 options: object = None, fault_plan: object = None,
                 retry_policy: object = None,
                 cache: "BuildCache | bool" = True,
                 start_method: str = "fork",
                 reconnect: ReconnectPolicy | None = None,
                 hard_exit: bool = True) -> None:
        self.host = host
        self.port = port
        self.auth_key = auth_key
        self.worker_id = worker_id
        self.corpus = corpus
        self.options = options
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.cache = cache
        self.start_method = start_method
        self.reconnect = reconnect or ReconnectPolicy()
        self.hard_exit = hard_exit
        #: current lease epoch (set by each WELCOME)
        self.lease = 0
        #: commits served over the client's lifetime
        self.assignments = 0
        #: completed reconnect cycles (registrations after the first)
        self.reconnects = 0
        self._runtime: WorkerRuntime | None = None
        self._stopped = False

    # -- session establishment ----------------------------------------

    def _handshake(self, channel) -> dict:
        """CHALLENGE -> HELLO -> WELCOME; returns the WELCOME payload.

        Raises :class:`AuthError` on a typed rejection (permanent) and
        :class:`TransportError` on anything else (retryable).
        """
        message = channel.recv_message(
            timeout=wire.HANDSHAKE_TIMEOUT_SECONDS)
        if message is None:
            raise TransportError("connection closed before CHALLENGE")
        msg_type, payload = message
        if msg_type != wire.MSG_CHALLENGE:
            raise TransportError(
                f"expected CHALLENGE, got message type {msg_type}")
        token = wire.auth_token(self.auth_key, payload["nonce"])
        tree_id = ""
        if self.corpus is not None:
            tree_id = getattr(self.corpus.tree, "id", "")
        channel.send(wire.encode_frame(wire.MSG_HELLO, wire.hello_message(
            self.worker_id, os.getpid(), self.start_method,
            tree_id=tree_id, auth=token)))
        message = channel.recv_message(
            timeout=wire.HANDSHAKE_TIMEOUT_SECONDS)
        if message is None:
            raise TransportError("connection closed before WELCOME")
        msg_type, payload = message
        if msg_type == wire.MSG_ERROR:
            if payload.get("kind") == "AuthError":
                raise AuthError(payload.get("error", "handshake rejected"))
            raise TransportError(
                payload.get("error", "handshake rejected"))
        if msg_type != wire.MSG_WELCOME:
            raise TransportError(
                f"expected WELCOME, got message type {msg_type}")
        return payload

    def _establish_runtime(self, welcome: dict) -> None:
        """Build (once) and fingerprint-verify the warm substrate."""
        if self._runtime is None:
            corpus = self.corpus
            if corpus is None:
                spec_payload = welcome.get("corpus")
                if spec_payload is None:
                    raise TransportError(
                        "coordinator shipped no corpus spec and this "
                        "worker has no local corpus")
                from repro.workload.corpus import build_corpus
                spec = wire.corpus_spec_from_wire(spec_payload)
                corpus = build_corpus(spec)
            fingerprint = welcome.get("fingerprint", "")
            actual = corpus.repository.head().id
            if fingerprint and actual != fingerprint:
                raise CorpusMismatchError(
                    f"rebuilt corpus head {actual} does not match the "
                    f"coordinator fingerprint {fingerprint}",
                    expected=fingerprint, actual=actual)
            options = self.options
            if options is None:
                options = wire.options_from_wire(welcome.get("options"))
            fault_plan = self.fault_plan
            if fault_plan is None:
                fault_plan = wire.fault_plan_from_wire(
                    welcome.get("fault_plan"))
            retry_policy = self.retry_policy
            if retry_policy is None:
                retry_policy = wire.retry_policy_from_wire(
                    welcome.get("retry_policy"))
            cache = self.cache
            if not isinstance(cache, BuildCache):
                cache = BuildCache() if cache and welcome.get(
                    "use_cache", True) else None
            self.corpus = corpus
            self._runtime = WorkerRuntime(WorkerInit(
                worker_id=welcome["worker_id"],
                start_method=self.start_method,
                corpus=corpus, options=options,
                fault_plan=fault_plan, retry_policy=retry_policy,
                cache=cache, auth_key=self.auth_key))
        self._runtime.init.worker_id = welcome["worker_id"]
        self.lease = welcome["lease"]

    # -- the serve loop -----------------------------------------------

    def _die(self, code: int) -> str:
        """Fatal chaos: real processes exit, test threads stop."""
        if self.hard_exit:
            os._exit(code)
        self._stopped = True
        return "died"

    def _serve(self, channel, welcome: dict) -> str:
        """Serve WORK frames until the session ends.

        Returns ``"shutdown"`` (clean stop), ``"lost"`` (reconnect),
        ``"partition"`` (chaos-severed link, reconnect), or ``"died"``
        (soft-fatal chaos with ``hard_exit`` off).
        """
        runtime = self._runtime
        assert runtime is not None
        heartbeat = None
        interval = float(welcome.get("heartbeat_seconds") or 0.0)
        if interval > 0:
            heartbeat = _HeartbeatThread(
                channel, welcome["worker_id"], self.lease, interval)
            heartbeat.start()
        try:
            while True:
                message = channel.recv_message()
                if message is None:
                    return "lost"
                msg_type, payload = message
                if msg_type == wire.MSG_SHUTDOWN:
                    return "shutdown"
                if msg_type != wire.MSG_WORK:
                    continue
                chaos = payload.get("chaos")
                if chaos in (KIND_WORKER_KILL, KIND_WORKER_CRASH):
                    return self._die(EXIT_CHAOS_KILL)
                if chaos == KIND_SOCKET_DROP:
                    channel.close()
                    return self._die(EXIT_CHAOS_DROP)
                if chaos == KIND_NET_PARTITION:
                    # the link dies, the process survives: stop beating,
                    # sever the socket, and re-dial from the outer loop
                    if heartbeat is not None:
                        heartbeat.stop()
                        heartbeat = None
                    channel.close()
                    return "partition"
                if chaos == KIND_NET_HALF_OPEN:
                    # the socket stays open but we go silent — no
                    # heartbeats, no verdict; only the coordinator's
                    # lease expiry can reclaim the assignment
                    if heartbeat is not None:
                        heartbeat.stop()
                        heartbeat = None
                    if self.hard_exit:
                        time.sleep(3600)
                    self._stopped = True
                    return "died"
                if chaos == KIND_WORKER_HANG:
                    if self.hard_exit:
                        time.sleep(3600)
                    self._stopped = True
                    return "died"
                if chaos == KIND_NET_SLOW:
                    time.sleep(NET_SLOW_SECONDS)
                verdict = runtime.check(payload)
                verdict["lease"] = self.lease
                channel.send(wire.encode_frame(wire.MSG_VERDICT,
                                               verdict))
                self.assignments += len(payload["items"])
        finally:
            if heartbeat is not None:
                heartbeat.stop()

    # -- the dial loop ------------------------------------------------

    def run(self) -> dict:
        """Dial, serve, reconnect until shutdown; returns session stats.

        Raises :class:`AuthError` / :class:`CorpusMismatchError` on the
        permanent failures and :class:`TransportError` once consecutive
        dial attempts exhaust the reconnect budget. Returns without
        dialing again once the ``multiprocessing`` parent has exited.
        """
        attempt = 0
        registered_before = False
        while not self._stopped and not _orphaned():
            channel = None
            try:
                channel = SocketChildChannel(self.host, self.port)
                welcome = self._handshake(channel)
                self._establish_runtime(welcome)
            except (AuthError, CorpusMismatchError):
                if channel is not None:
                    channel.close()
                raise
            except (TransportError, OSError) as error:
                if channel is not None:
                    channel.close()
                attempt += 1
                if attempt >= self.reconnect.max_attempts:
                    raise TransportError(
                        f"gave up connecting to {self.host}:{self.port} "
                        f"after {attempt} attempt(s): {error}") from error
                time.sleep(self.reconnect.backoff_seconds(
                    self.worker_id, attempt))
                continue
            attempt = 0
            if registered_before:
                self.reconnects += 1
                # rides the next verdict frame home
                self._runtime.events.append({
                    "kind": EVENT_WORKER_RECONNECT,
                    "attrs": {"worker": welcome["worker_id"],
                              "lease": self.lease,
                              "reconnects": self.reconnects}})
            registered_before = True
            try:
                outcome = self._serve(channel, welcome)
            finally:
                channel.close()
            if outcome == "shutdown" or self._stopped:
                break
        granted = self._runtime.init.worker_id \
            if self._runtime is not None else self.worker_id
        return {"worker_id": granted,
                "assignments": self.assignments,
                "reconnects": self.reconnects,
                "lease": self.lease}

    def stop(self) -> None:
        """Ask the dial loop to stop before its next connection."""
        self._stopped = True


def socket_worker_main(host: str, port: int, init: WorkerInit) -> None:
    """``multiprocessing.Process`` target for the socket transport.

    Locally spawned workers run the same :class:`WorkerClient` a
    cross-host ``jmake worker --connect`` process does — one handshake,
    one lease protocol, one reconnect path, one chaos vocabulary,
    whether the worker lives on this machine or another.
    """
    WorkerClient(host, port, auth_key=init.auth_key,
                 worker_id=init.worker_id, corpus=init.corpus,
                 options=init.options, fault_plan=init.fault_plan,
                 retry_policy=init.retry_policy, cache=init.cache,
                 start_method=init.start_method).run()
