"""The in-process asyncio transport (the default service backend).

Checks each admitted request whole on the service's own event loop,
through :func:`~repro.service.transport.base.run_inline` — the helper
the socket transport's inline drain also calls. Like the sequential
driver it has no worker to supervise or fault: the check is one
``CheckSession.check_commit`` call in this process, with the ≤
batch-limit ``make`` batching inside it (§III-D).
"""

from __future__ import annotations

import asyncio

from repro.service.transport.base import (
    Transport,
    TransportOutcome,
    run_inline,
)


class AsyncioTransport(Transport):
    """Whole-request checks on the service's own loop."""

    kind = "asyncio"

    def __init__(self, service) -> None:
        self.service = service

    async def start(self) -> None:
        """Nothing to bring up: requests run on the service's loop."""

    async def drain(self) -> None:
        """Nothing to stop: the service drains requests first."""

    async def run_request(self, request) -> TransportOutcome:
        # Yield once before the check: a request that ran whole in one
        # loop step would never hold its admission slot where another
        # coroutine could see it, so concurrently admitted requests
        # stay visibly in flight while they wait.
        await asyncio.sleep(0)
        return run_inline(self.service, request)
