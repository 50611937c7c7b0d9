"""The warm worker process: preload once, check commits forever.

One worker process serves one transport slot. At startup it builds its
private substrate **once** — the corpus (inherited under ``fork``,
unpickled under ``spawn``), a :class:`~repro.buildcache.cache.
BuildCache` primed with every architecture's solved Kconfig models and
all*config, and the process-wide prepared-file substrate that warms as
files are first touched — then announces readiness with a HELLO frame
and enters the assignment loop. Every WORK frame runs a fresh
per-request :class:`~repro.core.jmake.CheckSession` over the warm
substrate (own SimClock, own injector scope, own quarantine), exactly
the service's per-request isolation, so verdicts are byte-identical to
a local run.

Telemetry flows home on the verdict: each VERDICT frame carries the
registry *delta* accrued while checking (commutative merges make the
coordinator's totals order-independent) plus any buffered event dicts.

Chaos lives here too: the WORK frame's ``chaos`` field is the
coordinator's worker-site fault decision for this pickup.
``worker_kill``/``worker_crash`` hard-exit before the assignment runs
(the requeue replays nothing), ``socket_drop`` severs the channel
mid-claim, ``worker_hang`` parks the process until the coordinator's
hang deadline reaps it. The *effects* are real — a dead child, a
closed pipe, a silent peer — so the detection paths the chaos suite
exercises are the production ones.
"""

from __future__ import annotations

import os
import socket as socket_module
import threading
import time
from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.cc.toolchain import ToolchainRegistry
from repro.core.jmake import CheckSession, JMakeOptions
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import (
    KIND_NET_HALF_OPEN,
    KIND_NET_PARTITION,
    KIND_NET_SLOW,
    KIND_SOCKET_DROP,
    KIND_WORKER_CRASH,
    KIND_WORKER_HANG,
    KIND_WORKER_KILL,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.transport import wire

#: exit codes the coordinator logs for post-mortems (any non-zero exit
#: is just "worker lost" to supervision)
EXIT_CHAOS_KILL = 70
EXIT_CHAOS_DROP = 71

#: real seconds a ``net_slow`` assignment is delayed before it is
#: served — long enough to be visible in timings, short enough that a
#: heartbeat-backed lease never expires over it
NET_SLOW_SECONDS = 0.35


@dataclass
class WorkerInit:
    """Everything a worker needs to build its warm substrate.

    Must stay picklable under the ``spawn`` start method — it crosses
    the process boundary as a ``multiprocessing.Process`` argument.
    """

    worker_id: int
    start_method: str
    corpus: object
    options: "JMakeOptions | None" = None
    fault_plan: object = None
    retry_policy: object = None
    use_cache: bool = True
    #: shared key for the HMAC challenge/response handshake; empty
    #: means the transport predates auth (pipe workers never need it)
    auth_key: str = ""


# -- child-side channel shims ----------------------------------------------

class PipeChildChannel:
    """Frame transport over one ``multiprocessing`` pipe connection."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, frame: bytes) -> None:
        self._conn.send_bytes(frame)

    def recv_message(self) -> "tuple[int, dict] | None":
        """One decoded message, or None on EOF."""
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError):
            return None
        msg_type, payload, _ = wire.decode_frame(frame)
        return msg_type, payload

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


class SocketChildChannel:
    """Frame transport over a blocking TCP socket.

    ``send`` is serialized with a lock: the heartbeat thread a
    connected worker runs shares this socket with the assignment loop,
    and interleaved partial writes would corrupt the frame stream.
    """

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket_module.create_connection((host, port))
        self._decoder = wire.FrameDecoder()
        self._send_lock = threading.Lock()

    def send(self, frame: bytes) -> None:
        with self._send_lock:
            self._sock.sendall(frame)

    def recv_message(self) -> "tuple[int, dict] | None":
        while True:
            for message in self._decoder:
                return message
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                return None
            if not chunk:
                return None
            self._decoder.feed(chunk)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class WorkerRuntime:
    """The warm per-process substrate plus the assignment loop."""

    def __init__(self, init: WorkerInit) -> None:
        self.init = init
        self.corpus = init.corpus
        self.options = init.options or JMakeOptions()
        self.metrics = MetricsRegistry()
        #: event dicts buffered for the next verdict frame
        self.events: list[dict] = []
        self.cache: "BuildCache | None" = None
        if init.use_cache:
            self.cache = BuildCache()
            pinned = FaultInjector(init.fault_plan) \
                if init.fault_plan else NULL_INJECTOR
            self.cache.pin_injector(pinned)
            # warm preload: solve Kconfig models and all*config for
            # every architecture once; every assignment hits warm state
            self.cache.prime(self.corpus.tree, ToolchainRegistry(),
                             use_allmodconfig=self.options.
                             use_allmodconfig)

    def check(self, payload: dict) -> dict:
        """Run one WORK assignment; returns the VERDICT payload."""
        request_id = payload["request_id"]
        commit_id = payload["commit_id"]
        options = wire.options_from_wire(payload["options"]) \
            or self.options
        session = CheckSession.from_generated_tree(
            self.corpus.tree, options=options, cache=self.cache,
            metrics=self.metrics,
            fault_plan=self.init.fault_plan,
            retry_policy=self.init.retry_policy)
        repository = self.corpus.repository
        commit = repository.resolve(commit_id)
        before = self.metrics.snapshot()
        report = session.check_commit(repository, commit)
        request_quarantine = session.last_build.quarantine
        quarantine = {arch: request_quarantine.reason(arch)
                      for arch in request_quarantine.archs()}
        delta = self.metrics.delta(before)
        events, self.events = self.events, []
        return wire.verdict_message(
            payload["seq"], request_id, commit.id,
            report=report, quarantine=quarantine,
            metrics=delta.to_dict(),
            events=events, worker_id=self.init.worker_id)


def _fire_chaos(channel, chaos: "str | None") -> None:
    """Apply the coordinator's worker-site fault decision, for real.

    This is the *pipe* worker's chaos vocabulary. A pipe worker has no
    reconnect loop, so the network kinds degrade to their nearest
    process-level equivalent: a partition or half-open link is
    indistinguishable from a severed pipe / silent worker from where
    the coordinator sits. Connected socket workers get the full
    network semantics in :mod:`repro.service.transport.client`.
    """
    if chaos in (KIND_WORKER_KILL, KIND_WORKER_CRASH):
        # die before the assignment runs: the requeue replays nothing
        os._exit(EXIT_CHAOS_KILL)
    if chaos in (KIND_SOCKET_DROP, KIND_NET_PARTITION):
        # sever the channel mid-claim, then die: the coordinator sees
        # a dropped connection, not a clean exit
        channel.close()
        os._exit(EXIT_CHAOS_DROP)
    if chaos in (KIND_WORKER_HANG, KIND_NET_HALF_OPEN):
        # park holding the claim until the hang deadline reaps us
        time.sleep(3600)
    if chaos == KIND_NET_SLOW:
        # late, not lost: serve the assignment after a real delay
        time.sleep(NET_SLOW_SECONDS)


def worker_loop(channel, init: WorkerInit) -> None:
    """The child process body: preload, HELLO, serve until SHUTDOWN."""
    runtime = WorkerRuntime(init)
    channel.send(wire.encode_frame(wire.MSG_HELLO, wire.hello_message(
        init.worker_id, os.getpid(), init.start_method,
        tree_id=getattr(init.corpus.tree, "id", ""))))
    while True:
        message = channel.recv_message()
        if message is None:
            break  # coordinator went away; nothing left to serve
        msg_type, payload = message
        if msg_type == wire.MSG_SHUTDOWN:
            break
        if msg_type != wire.MSG_WORK:
            continue
        _fire_chaos(channel, payload.get("chaos"))
        try:
            verdict = runtime.check(payload)
        except Exception as error:  # noqa: BLE001 — stay up, report
            channel.send(wire.encode_frame(
                wire.MSG_ERROR, wire.error_message(
                    payload["seq"], str(error),
                    type(error).__name__)))
            continue
        channel.send(wire.encode_frame(wire.MSG_VERDICT, verdict))
    channel.close()


def pipe_worker_main(conn, init: WorkerInit) -> None:
    """``multiprocessing.Process`` target for the mp transport."""
    worker_loop(PipeChildChannel(conn), init)


def socket_worker_main(host: str, port: int, init: WorkerInit) -> None:
    """``multiprocessing.Process`` target for the socket transport.

    Locally spawned socket workers run the same
    :class:`~repro.service.transport.client.WorkerClient` a cross-host
    ``jmake worker --connect`` process does — one handshake, one lease
    protocol, one reconnect path, whether the worker lives on this
    machine or another.
    """
    from repro.service.transport.client import WorkerClient
    client = WorkerClient(host, port, auth_key=init.auth_key,
                          worker_id=init.worker_id,
                          corpus=init.corpus, options=init.options,
                          fault_plan=init.fault_plan,
                          retry_policy=init.retry_policy,
                          use_cache=init.use_cache,
                          start_method=init.start_method)
    client.run()
