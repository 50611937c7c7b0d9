"""The socket transport: warm workers over TCP, local or cross-host.

The coordinator listens on a configured (or ephemeral ``127.0.0.1``)
address; each worker process dials back, passes the shared-key HMAC
challenge/response handshake, and then serves assignments over the
stream. TCP gives no message boundaries — the coordinator side
reassembles frames with the wire codec's
:class:`~repro.service.transport.wire.FrameDecoder`, the exact layer
the hypothesis property suite attacks with truncation and bit flips.
A dropped connection (the ``socket_drop``/``net_partition`` chaos
kinds, a peer reset, a half-close) reads as EOF and is handled as a
worker crash — supervision is transport-uniform by construction —
except that a ``reconnect_grace_seconds`` window lets a partitioned
worker dial back and resume under a fresh lease epoch without burning
restart budget.

Two fleet shapes share this one transport:

- **local spawn** (the default, and what ``jmake evaluate --jobs N``
  runs on): each slot's worker is a ``multiprocessing.Process``
  (``fork``, ``spawn`` or ``forkserver``) that dials the loopback
  listener. The spawned child runs the same
  :class:`~repro.service.transport.client.WorkerClient` session state
  machine an external worker does, and exits once the coordinator is
  gone.
- **cross-host** (``spawn_workers=False`` + ``listen`` + a shared
  ``auth_key``): the coordinator spawns nothing and waits for
  ``jmake worker --connect HOST:PORT`` processes to claim its slots.
  Those workers rebuild the corpus deterministically from the shipped
  :class:`CorpusSpec` and are fingerprint-checked before serving.

Every accepted connection — local or remote — is challenged first and
never sees a WORK frame unless its HELLO carries the right HMAC.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import secrets

from repro.obs.events import (
    EVENT_AUTH_REJECTED,
    EVENT_WORKER_REGISTERED,
)
from repro.obs.logcfg import get_logger
from repro.service.transport import wire
from repro.service.transport.client import socket_worker_main
from repro.service.transport.remote import (
    GRACEFUL_JOIN_SECONDS,
    RemoteTransport,
    WorkerSlot,
)
from repro.service.transport.worker import WorkerInit

_logger = get_logger("service.transport")


class SockParentChannel:
    """Async frame transport over an accepted worker connection."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = wire.FrameDecoder()

    async def send(self, frame: bytes) -> None:
        self._writer.write(frame)
        await self._writer.drain()

    async def recv_message(self) -> "tuple[int, dict] | None":
        while True:
            for message in self._decoder:
                return message
            try:
                chunk = await self._reader.read(65536)
            except (ConnectionError, OSError):
                return None
            if not chunk:
                return None
            self._decoder.feed(chunk)

    def close(self) -> None:
        try:
            self._writer.close()
        except (RuntimeError, OSError):
            pass

    async def aclose(self) -> None:
        """Close, then wait until the socket is released."""
        self.close()
        try:
            await self._writer.wait_closed()
        except (RuntimeError, OSError):
            pass


def parse_listen(listen: "str | None") -> tuple[str, int]:
    """``"HOST:PORT"`` -> (host, port); None means loopback-ephemeral."""
    if not listen:
        return "127.0.0.1", 0
    host, sep, port_text = listen.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"listen address must be HOST:PORT, got {listen!r}")
    try:
        port = int(port_text)
    except ValueError as error:
        raise ValueError(
            f"listen address must be HOST:PORT, got {listen!r}") \
            from error
    if not 0 <= port < 65536:
        raise ValueError(f"listen port out of range: {port}")
    return host, port


class SocketTransport(RemoteTransport):
    """Warm workers dialing back over the CRC32-framed protocol."""

    kind = "socket"

    def __init__(self, service) -> None:
        super().__init__(service)
        config = service.config
        self._server: "asyncio.AbstractServer | None" = None
        self._host, self._port = parse_listen(
            getattr(config, "listen", None))
        #: the fleet's shared secret; generated fresh per coordinator
        #: when not configured, which still authenticates the locally
        #: spawned workers (they inherit it via WorkerInit) while
        #: locking out everything else
        self.auth_key = getattr(config, "auth_key", None) \
            or secrets.token_hex(16)
        self.spawn_workers = bool(
            getattr(config, "spawn_workers", True))
        self.reconnect_grace = float(
            getattr(config, "reconnect_grace_seconds", 0.0) or 0.0)
        #: the corpus head commit id every worker must match
        self._fingerprint = ""

    def address(self) -> "tuple[str, int] | None":
        """The bound (host, port) once listening (None before)."""
        if self._server is None:
            return None
        return self._host, self._port

    async def start(self) -> None:
        if self._server is None:
            self._server = await asyncio.start_server(
                self._on_connect, self._host, self._port)
            self._port = self._server.sockets[0].getsockname()[1]
            self._fingerprint = \
                self.service.corpus.repository.head().id
        await super().start()

    async def drain(self) -> None:
        await super().drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _spawn(self, slot: WorkerSlot) -> None:
        # a fresh rendezvous future per process generation: a stale
        # connection from a killed predecessor can never satisfy it
        slot._connected = asyncio.get_running_loop().create_future()
        slot._handshaking = False
        if not self.spawn_workers:
            # cross-host fleet: the slot waits for an external
            # `jmake worker --connect` to claim it
            slot.process = None
            slot.pid = None
            slot.channel = None
            return
        service = self.service
        init = WorkerInit(
            worker_id=slot.index, start_method=self.start_method,
            corpus=service.corpus, auth_key=self.auth_key,
            options=service.options,
            fault_plan=service.config.fault_plan,
            retry_policy=service.config.retry_policy,
            cache=service.cache)
        context = multiprocessing.get_context(self.start_method)
        process = context.Process(
            target=socket_worker_main,
            args=(self._host or "127.0.0.1", self._port, init),
            name=f"jmake-socket-worker-{slot.index}",
            daemon=True)
        process.start()
        slot.process = process
        slot.pid = process.pid
        slot.channel = None

    async def _connect(self, slot: WorkerSlot) -> None:
        slot.channel = await slot._connected

    async def _shutdown_slot(self, slot: WorkerSlot) -> None:
        # drain can stop a slot loop while it waits for its worker's
        # HELLO. The channel that worker hands over must still get
        # SHUTDOWN and be closed: wait for a live spawned worker's
        # handshake as long as a graceful join would, then claim it. A
        # worker that has not dialed in by then was never told to exit,
        # so it is killed without a second wait.
        rendezvous = getattr(slot, "_connected", None)
        if slot.channel is None and rendezvous is not None:
            if not rendezvous.done() and slot.process is not None \
                    and slot.process.is_alive():
                try:
                    await asyncio.wait_for(asyncio.shield(rendezvous),
                                           timeout=GRACEFUL_JOIN_SECONDS)
                except asyncio.TimeoutError:
                    pass
            if not rendezvous.done():
                rendezvous.cancel()
                await self._reap(slot)
                return
            if not rendezvous.cancelled():
                slot.channel = rendezvous.result()
        await super()._shutdown_slot(slot)

    async def _reap(self, slot: WorkerSlot, *,
                    graceful: bool = False) -> None:
        channel = slot.channel
        await super()._reap(slot, graceful=graceful)
        if channel is not None:
            await channel.aclose()

    # -- the authenticated accept path ---------------------------------

    def _slot_for(self, worker_id: int) -> "WorkerSlot | None":
        """The slot this HELLO may claim (None when nothing waits).

        A non-negative ``worker_id`` targets its own armed slot (the
        spawned-local and rejoin cases); ``-1`` claims the first armed
        slot nobody else is mid-handshake on (the cross-host case).
        The ``_handshaking`` flag is set synchronously by the caller —
        no await between check and set — so two racing accepts cannot
        claim the same slot.
        """
        if worker_id >= 0:
            if worker_id >= len(self.slots):
                return None
            slot = self.slots[worker_id]
            rendezvous = getattr(slot, "_connected", None)
            if rendezvous is None or rendezvous.done() or \
                    getattr(slot, "_handshaking", False):
                return None
            return slot
        for slot in self.slots:
            rendezvous = getattr(slot, "_connected", None)
            if rendezvous is not None and not rendezvous.done() and \
                    not getattr(slot, "_handshaking", False):
                return slot
        return None

    async def _reject(self, channel, reason: str, kind: str) -> None:
        try:
            await channel.send(wire.encode_frame(
                wire.MSG_ERROR, wire.error_message(0, reason, kind)))
        except (OSError, ConnectionError):
            pass
        await channel.aclose()

    async def _on_connect(self, reader, writer) -> None:
        """Challenge a dialing peer; hand verified channels to slots."""
        channel = SockParentChannel(reader, writer)
        try:
            await asyncio.wait_for(
                self._handshake(channel),
                timeout=wire.HANDSHAKE_TIMEOUT_SECONDS)
        except (asyncio.TimeoutError, OSError, ConnectionError):
            await channel.aclose()
        except asyncio.CancelledError:
            # the loop is ending mid-handshake: the channel is no
            # slot's yet, so nobody else would close it
            channel.close()
            raise

    async def _handshake(self, channel: SockParentChannel) -> None:
        nonce = secrets.token_hex(16)
        await channel.send(wire.encode_frame(
            wire.MSG_CHALLENGE, wire.challenge_message(nonce)))
        message = await channel.recv_message()
        if message is None or message[0] != wire.MSG_HELLO:
            channel.close()
            return
        payload = message[1]
        if not wire.verify_auth(self.auth_key, nonce,
                                payload.get("auth", "")):
            self.auth_rejected += 1
            self.service.metrics.counter(
                "service.transport.auth_rejected").inc()
            _logger.warning(
                "socket worker pid %s failed the auth handshake; "
                "rejected", payload.get("pid"))
            self.service.events.emit(
                EVENT_AUTH_REJECTED, pid=payload.get("pid"),
                worker=payload.get("worker_id"))
            await self._reject(channel, "auth handshake failed",
                               "AuthError")
            return
        worker_id = payload.get("worker_id", -1)
        slot = self._slot_for(worker_id)
        if slot is None:
            # authenticated but nothing to do: every slot is taken,
            # broken, or mid-handshake. Retryable from the client's
            # side — a rejoining worker may simply be early.
            await self._reject(channel, "no free worker slot",
                               "TransportError")
            return
        slot._handshaking = True
        try:
            # a fresh epoch fences every frame of any previous session
            slot.lease_epoch += 1
            corpus_payload = None
            spec = getattr(self.service.corpus, "spec", None)
            if spec is not None and \
                    getattr(spec, "tree_spec", None) is None:
                corpus_payload = wire.corpus_spec_to_wire(spec)
            await channel.send(wire.encode_frame(
                wire.MSG_WELCOME, wire.welcome_message(
                    slot.index, slot.lease_epoch, self._fingerprint,
                    self.heartbeat_seconds, self.lease_seconds,
                    corpus=corpus_payload,
                    options=wire.options_to_wire(self.service.options),
                    use_cache=self.service.cache is not None,
                    fault_plan=wire.fault_plan_to_wire(
                        self.service.config.fault_plan),
                    retry_policy=wire.retry_policy_to_wire(
                        self.service.config.retry_policy))))
            slot.pid = payload.get("pid") or slot.pid
            self.service.events.emit(
                EVENT_WORKER_REGISTERED, worker=slot.index,
                pid=slot.pid, lease=slot.lease_epoch,
                external=slot.process is None)
            rendezvous = getattr(slot, "_connected", None)
            if rendezvous is not None and not rendezvous.done():
                rendezvous.set_result(channel)
            else:  # pragma: no cover - defensive: raced a teardown
                channel.close()
        finally:
            slot._handshaking = False

    # -- partition grace ------------------------------------------------

    async def _try_rejoin(self, slot: WorkerSlot) -> bool:
        """Give a partitioned worker ``reconnect_grace`` to dial back.

        For spawned-local slots the child process must still be alive
        (a dead child is a real crash and takes the restart path); a
        cross-host slot has no process to check, so the grace window
        alone decides.
        """
        if self.reconnect_grace <= 0:
            return False
        if slot.channel is not None:
            channel, slot.channel = slot.channel, None
            await channel.aclose()
        if self.spawn_workers:
            process = slot.process
            if process is None:
                return False
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, process.join, 0.05)
            if not process.is_alive():
                return False
        slot._connected = asyncio.get_running_loop().create_future()
        slot._handshaking = False
        try:
            await asyncio.wait_for(self._connect(slot),
                                   timeout=self.reconnect_grace)
        except asyncio.TimeoutError:
            return False
        return True
