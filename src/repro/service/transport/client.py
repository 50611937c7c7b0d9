"""The worker session: ``jmake worker --connect HOST:PORT``.

This is the client half of the fleet protocol — a process that dials
a coordinator, authenticates with the shared-key HMAC
challenge/response, rebuilds the corpus deterministically from the
shipped :class:`~repro.workload.corpus.CorpusSpec`, and serves WORK
frames under a lease until told to stop. It is also what the socket
transport's *locally spawned* workers run, so there is exactly one
session state machine regardless of where the worker lives.

The session protocol, from the client's side::

    connect ──> CHALLENGE(nonce) ──> HELLO(auth=HMAC(key, nonce))
        ├── ERROR(kind=AuthError)  -> permanent failure, never retried
        └── WELCOME(worker_id, lease, fingerprint, settings, corpus?)
              -> rebuild/verify corpus, start heartbeats, serve WORK

The WELCOME is the only source of the session settings — options,
fault plan, retry policy, and whether to cache — for every worker. A
spawned worker is handed only what does not cross the wire: its slot,
the auth key, the corpus, and the coordinator's primed
:class:`~repro.buildcache.cache.BuildCache` (inherited under ``fork``,
pickled under ``spawn``); a cross-host worker rebuilds the corpus from
the shipped spec. Every commit of a WORK batch runs in a fresh
per-request :class:`~repro.core.jmake.CheckSession` over the warm
substrate (own SimClock, own injector scope, own quarantine), exactly
the service's per-request isolation, so verdicts are byte-identical to
a local run. Telemetry flows home on the verdict: each VERDICT frame
carries the batch's metrics-registry and cache-stats *deltas*
(commutative merges make the coordinator's totals order-independent),
any buffered event dicts, and — when the WORK frame asks — a span tree
per commit.

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

import ipaddress
import multiprocessing
import multiprocessing.connection
import os
import socket as socket_module
import threading
import time
from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.errors import (
    AuthError,
    CorpusMismatchError,
    TransportError,
)
from repro.faults.inject import FaultInjector, NULL_INJECTOR
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
from repro.obs.metrics import MetricsRegistry
from repro.service.transport import wire
from repro.service.transport.base import check_whole

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


def _dial(host: str, port: int) -> socket_module.socket:
    """A TCP socket connected to ``(host, port)``.

    An IP literal is connected directly: ``socket.create_connection``
    would resolve it through ``getaddrinfo``, whose idna encoding of
    the host imports ``encodings.idna``, ``stringprep`` and
    ``unicodedata`` into every worker. A host name still goes through
    ``create_connection``.
    """
    try:
        address = ipaddress.ip_address(host)
    except ValueError:
        return socket_module.create_connection((host, port))
    family = socket_module.AF_INET6 if address.version == 6 \
        else socket_module.AF_INET
    sock = socket_module.socket(family, socket_module.SOCK_STREAM)
    try:
        sock.connect((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


class SocketChildChannel:
    """Frame transport over a blocking TCP socket.

    ``send`` is serialized with a lock: the heartbeat thread shares
    this socket with the assignment loop, and interleaved partial
    writes would corrupt the frame stream.
    """

    def __init__(self, host: str, port: int) -> None:
        self._sock = _dial(host, port)
        self._decoder = wire.FrameDecoder()
        self._send_lock = threading.Lock()

    def send(self, frame: bytes) -> None:
        with self._send_lock:
            self._sock.sendall(frame)

    def recv_message(self, timeout: "float | None" = None
                     ) -> "tuple[int, dict] | None":
        """One decoded message, or None on EOF.

        With ``timeout``, raises :class:`TransportError` when no whole
        message arrives within that many seconds, or as soon as the
        process that ``multiprocessing`` started this one from exits.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        while True:
            for message in self._decoder:
                return message
            if deadline is not None and not self._readable(deadline):
                raise TransportError(
                    f"no message within {timeout:g}s, or the parent "
                    f"process exited")
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._decoder.feed(chunk)

    def _readable(self, deadline: float) -> bool:
        """Wait until the socket is readable (True), the deadline
        passes or the parent process exits (False)."""
        watched = [self._sock]
        parent = multiprocessing.parent_process()
        if parent is not None:
            watched.append(parent.sentinel)
        ready = multiprocessing.connection.wait(
            watched, max(0.0, deadline - time.monotonic()))
        return self._sock in ready

    def close(self) -> None:
        try:
            self._sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class _HeartbeatThread:
    """Daemon thread beating the worker's lease on a shared channel."""

    def __init__(self, channel, lease: int, interval: float) -> None:
        self._channel = channel
        self._frame = wire.encode_frame(
            wire.MSG_HEARTBEAT, wire.heartbeat_message(lease))
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="jmake-heartbeat", daemon=True)

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
    be supplied directly (spawned workers are handed it); otherwise it
    is rebuilt from the WELCOME's shipped spec, and either way it is
    verified against the coordinator's fingerprint. ``cache`` is the
    coordinator's primed :class:`BuildCache` for a spawned worker
    (None: the service runs uncached); ``True`` builds a private cache
    when the WELCOME asks for one, ``False`` never does. The first
    WELCOME sets the options, fault plan and retry policy.

    ``hard_exit`` controls the fatal chaos kinds: real worker processes
    die with ``os._exit`` (the production signal supervision must
    detect), while in-thread test clients set it False and stop the
    session loop instead so they cannot take pytest down with them.
    """

    def __init__(self, host: str, port: int, *, auth_key: str,
                 worker_id: int = -1, corpus: object = None,
                 cache: "BuildCache | bool | None" = True,
                 reconnect: ReconnectPolicy | None = None,
                 hard_exit: bool = True) -> None:
        self.host = host
        self.port = port
        self.auth_key = auth_key
        self.worker_id = worker_id
        self.corpus = corpus
        self.cache = cache
        self.reconnect = reconnect or ReconnectPolicy()
        self.hard_exit = hard_exit
        #: the slot the latest WELCOME granted
        self.slot = worker_id
        #: current lease epoch (set by each WELCOME)
        self.lease = 0
        #: commits served over the client's lifetime
        self.assignments = 0
        #: completed reconnect cycles (registrations after the first)
        self.reconnects = 0
        #: the session settings, from the first WELCOME
        self.options = None
        self.fault_plan = None
        self.retry_policy = None
        self.metrics = MetricsRegistry()
        #: event dicts buffered for the next verdict frame
        self.events: list[dict] = []
        #: what the previous VERDICT frame already reported
        self._metrics_base = self.metrics.snapshot()
        self._cache_base = None
        self._warm = False
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
        channel.send(wire.encode_frame(wire.MSG_HELLO, wire.hello_message(
            self.worker_id, os.getpid(), auth=token)))
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

    def _register(self, welcome: dict) -> None:
        """Take the slot and lease a WELCOME grants; the first one also
        builds (once) and fingerprint-verifies the warm substrate and
        sets the session settings."""
        if not self._warm:
            corpus = self.corpus
            if corpus is None:
                if welcome["corpus"] is None:
                    raise TransportError(
                        "coordinator shipped no corpus spec and this "
                        "worker has no local corpus")
                from repro.workload.corpus import build_corpus
                corpus = build_corpus(
                    wire.corpus_spec_from_wire(welcome["corpus"]))
            fingerprint = welcome["fingerprint"]
            actual = corpus.repository.head().id
            if fingerprint and actual != fingerprint:
                raise CorpusMismatchError(
                    f"rebuilt corpus head {actual} does not match the "
                    f"coordinator fingerprint {fingerprint}",
                    expected=fingerprint, actual=actual)
            self.corpus = corpus
            self.options = wire.options_from_wire(welcome["options"])
            self.fault_plan = wire.fault_plan_from_wire(
                welcome["fault_plan"])
            self.retry_policy = wire.retry_policy_from_wire(
                welcome["retry_policy"])
            if not isinstance(self.cache, BuildCache):
                self.cache = BuildCache() \
                    if self.cache and welcome["use_cache"] else None
            if self.cache is not None:
                self.cache.pin_injector(
                    FaultInjector(self.fault_plan) if self.fault_plan
                    else NULL_INJECTOR)
                self._cache_base = self.cache.stats_snapshot()
            self._warm = True
        self.slot = welcome["worker_id"]
        self.lease = welcome["lease"]

    # -- checking -----------------------------------------------------

    def _check_batch(self, payload: dict) -> dict:
        """Run one WORK batch; returns the VERDICT payload."""
        trace = payload["trace"]
        items = [self._check_item(item, trace)
                 for item in payload["items"]]
        metrics = self.metrics.snapshot()
        delta = metrics.delta(self._metrics_base)
        self._metrics_base = metrics
        cache_delta = None
        if self.cache is not None:
            stats = self.cache.stats_snapshot()
            cache_delta = stats.delta(self._cache_base).registry.to_dict()
            self._cache_base = stats
        events, self.events = self.events, []
        return wire.verdict_message(
            payload["seq"], items, metrics=delta.to_dict(),
            cache=cache_delta, events=events, lease=self.lease)

    def _check_item(self, item: dict, trace: bool) -> dict:
        """One commit of the batch, whole; a failure becomes an error
        item and the rest of the batch still runs."""
        try:
            outcome = check_whole(
                self.corpus, item["commit_id"], trace=trace,
                options=self.options, cache=self.cache,
                metrics=self.metrics, fault_plan=self.fault_plan,
                retry_policy=self.retry_policy)
        except Exception as error:  # noqa: BLE001 — stay up, report
            return wire.verdict_item(
                item["seq"], item["request_id"], item["commit_id"],
                error=f"[{type(error).__name__}] {error}")
        return wire.verdict_item(
            item["seq"], item["request_id"], outcome.report.commit_id,
            report=outcome.report, quarantine=outcome.quarantine,
            span_tree=outcome.span_tree)

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
        heartbeat = None
        interval = welcome["heartbeat_seconds"]
        if interval > 0:
            heartbeat = _HeartbeatThread(channel, self.lease, interval)
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
                channel.send(wire.encode_frame(
                    wire.MSG_VERDICT, self._check_batch(payload)))
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
                self._register(welcome)
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
                self.events.append({
                    "kind": EVENT_WORKER_RECONNECT,
                    "attrs": {"worker": self.slot,
                              "lease": self.lease,
                              "reconnects": self.reconnects}})
            registered_before = True
            try:
                outcome = self._serve(channel, welcome)
            finally:
                channel.close()
            if outcome == "shutdown" or self._stopped:
                break
        return {"worker_id": self.slot,
                "assignments": self.assignments,
                "reconnects": self.reconnects,
                "lease": self.lease}

    def stop(self) -> None:
        """Ask the dial loop to stop before its next connection."""
        self._stopped = True


def socket_worker_main(host: str, port: int, worker_id: int,
                       auth_key: str, corpus, cache) -> None:
    """``multiprocessing.Process`` target for the socket transport.

    Locally spawned workers run the same :class:`WorkerClient` a
    cross-host ``jmake worker --connect`` process does — one handshake,
    one lease protocol, one reconnect path, one chaos vocabulary, and
    the settings from the WELCOME — whether the worker lives on this
    machine or another. Only what must not cross the wire is passed in:
    the slot, the auth key, the corpus and the primed cache.
    """
    WorkerClient(host, port, auth_key=auth_key, worker_id=worker_id,
                 corpus=corpus, cache=cache).run()
