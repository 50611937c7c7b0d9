"""The multiprocessing transport: warm workers over pipes.

Each worker slot is a ``multiprocessing.Process`` (``fork`` or
``spawn`` start method, per ``ServiceConfig.start_method``) connected
by a duplex pipe. Wire-codec frames ride ``send_bytes``/``recv_bytes``
— the pipe gives message boundaries for free, but the payload is the
same CRC32-framed canonical JSON the socket transport streams, so both
transports exercise one codec.

The parent waits for a frame on the event loop itself (``add_reader``
on the pipe) and then reads it whole, so a reply costs no thread
hand-off; a cancelled wait (hang deadline, drain) just drops the
reader. Sends write straight to the pipe: a WORK frame carries at most
``remote.MAX_BATCH`` commits (a few KB) and one is in flight per
worker, far below the pipe's buffer, so a send never waits on the
child. Channels are never reused across processes, so a stale frame
can never reach a fresh worker's slot.
"""

from __future__ import annotations

import asyncio
import multiprocessing

from repro.errors import TransportError
from repro.service.transport import wire
from repro.service.transport.remote import RemoteTransport, WorkerSlot
from repro.service.transport.worker import pipe_worker_main


class MpParentChannel:
    """Async frame transport over the parent end of a duplex pipe."""

    def __init__(self, conn) -> None:
        self._conn = conn

    async def send(self, frame: bytes) -> None:
        self._conn.send_bytes(frame)

    async def recv_message(self) -> "tuple[int, dict] | None":
        loop = asyncio.get_running_loop()
        try:
            fd = self._conn.fileno()
        except OSError:
            return None  # closed by a reap
        readable = loop.create_future()
        loop.add_reader(
            fd, lambda: readable.done() or readable.set_result(None))
        try:
            await readable
        finally:
            loop.remove_reader(fd)
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


class MpTransport(RemoteTransport):
    """Warm ``multiprocessing`` workers fed over pipes."""

    kind = "mp"

    def _spawn(self, slot: WorkerSlot) -> None:
        context = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=pipe_worker_main,
            args=(child_conn, self._worker_init(slot)),
            name=f"jmake-mp-worker-{slot.index}",
            daemon=True)
        process.start()
        # the child owns its end now; holding it open here would mask
        # the EOF that signals a dead worker
        child_conn.close()
        slot.process = process
        slot.pid = process.pid
        slot.channel = MpParentChannel(parent_conn)

    async def _connect(self, slot: WorkerSlot) -> None:
        while True:
            message = await slot.channel.recv_message()
            if message is None:
                raise TransportError(
                    f"mp worker {slot.index} died before HELLO")
            if message[0] == wire.MSG_HELLO:
                return
