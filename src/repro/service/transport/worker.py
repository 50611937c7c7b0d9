"""The warm worker runtime: start warm once, check batches forever.

One worker process serves one transport slot through a
:class:`~repro.service.transport.client.WorkerClient` session, and
this module is what that session checks with. A locally spawned worker
starts from the corpus and the service's
:class:`~repro.buildcache.cache.BuildCache`, primed by the coordinator
before spawning (both inherited under ``fork``, pickled under
``spawn``); a cross-host worker rebuilds the corpus from the shipped
spec. Every commit of a WORK batch runs in a fresh per-request
:class:`~repro.core.jmake.CheckSession` over the warm substrate (own
SimClock, own injector scope, own quarantine), exactly the service's
per-request isolation, so verdicts are byte-identical to a local run.

Telemetry flows home on the verdict: each VERDICT frame carries the
batch's metrics-registry and cache-stats *deltas* (commutative merges
make the coordinator's totals order-independent), any buffered event
dicts, and — when the WORK frame asks — a span tree per commit.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket as socket_module
import threading
import time
from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.core.jmake import JMakeOptions
from repro.errors import TransportError
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.obs.metrics import MetricsRegistry
from repro.service.transport import wire
from repro.service.transport.base import check_whole


@dataclass
class WorkerInit:
    """Everything a worker needs to build its warm substrate.

    Must stay picklable under the ``spawn`` start method — it crosses
    the process boundary as a ``multiprocessing.Process`` argument.
    """

    worker_id: int
    start_method: str
    corpus: object
    #: shared key for the HMAC challenge/response handshake
    auth_key: str
    options: "JMakeOptions | None" = None
    fault_plan: object = None
    retry_policy: object = None
    #: the coordinator's primed cache (None runs uncached)
    cache: BuildCache | None = None


# -- child-side channel shims ----------------------------------------------

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


class WorkerRuntime:
    """The warm per-process substrate plus the batch checker."""

    def __init__(self, init: WorkerInit) -> None:
        self.init = init
        self.corpus = init.corpus
        self.options = init.options or JMakeOptions()
        self.metrics = MetricsRegistry()
        #: event dicts buffered for the next verdict frame
        self.events: list[dict] = []
        self.cache = init.cache
        if self.cache is not None:
            self.cache.pin_injector(FaultInjector(init.fault_plan)
                                    if init.fault_plan else NULL_INJECTOR)
        #: what the previous VERDICT frame already reported
        self._metrics_base = self.metrics.snapshot()
        self._cache_base = self.cache.stats_snapshot() \
            if self.cache is not None else None

    def check(self, payload: dict) -> dict:
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
            cache=cache_delta, events=events,
            worker_id=self.init.worker_id)

    def _check_item(self, item: dict, trace: bool) -> dict:
        """One commit of the batch, whole; a failure becomes an error
        item and the rest of the batch still runs."""
        try:
            outcome = check_whole(
                self.corpus, item["commit_id"], trace=trace,
                options=wire.options_from_wire(item["options"])
                or self.options,
                cache=self.cache, metrics=self.metrics,
                fault_plan=self.init.fault_plan,
                retry_policy=self.init.retry_policy)
        except Exception as error:  # noqa: BLE001 — stay up, report
            return wire.verdict_item(
                item["seq"], item["request_id"], item["commit_id"],
                error=f"[{type(error).__name__}] {error}")
        return wire.verdict_item(
            item["seq"], item["request_id"], outcome.report.commit_id,
            report=outcome.report, quarantine=outcome.quarantine,
            span_tree=outcome.span_tree)
