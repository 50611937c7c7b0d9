"""Transport smoke surface: same API, same bytes, different substrate.

The differential matrix in ``test_differential.py`` proves byte-
identity at evaluation scale; this module pins the transport layer's
own contract — lifecycle, stats shapes, telemetry relay, start
methods — on small direct ``CheckService`` runs.
"""

import asyncio
import os
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.report import PatchReport
from repro.obs.events import EVENT_WORKER_REQUEUE, EventLog
from repro.service.request import CheckRequest
from repro.service.service import START_METHODS, CheckService, ServiceConfig
from repro.service.transport import wire
from repro.service.transport.base import TRANSPORT_KINDS, create_transport
from repro.service.transport.remote import (
    MAX_BATCH,
    RemoteTransport,
    SupervisorConfig,
)

LIMIT = 3

SUPERVISOR_STAT_KEYS = {"crashes_detected", "hangs_detected",
                        "restarts", "requeued_jobs", "breakers_opened",
                        "breaker_open_shards", "rejoins",
                        "fenced_replies", "auth_rejected"}


@pytest.fixture(scope="module")
def reference_records(small_corpus, checkable_commits):
    """Asyncio-transport records for the first LIMIT commits."""
    service = CheckService(small_corpus)
    results = service.check_commits(
        [commit.id for commit in checkable_commits[:LIMIT]])
    return [result.record for result in results]


def run_transport(corpus, commits, config):
    service = CheckService(corpus, config=config)
    results = service.check_commits([commit.id for commit in commits])
    return service, results


class TestConfigSurface:
    def test_transport_vocabulary(self):
        assert TRANSPORT_KINDS == ("asyncio", "socket")
        assert START_METHODS == ("fork", "spawn", "forkserver")
        assert ServiceConfig().transport == "asyncio"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ServiceConfig(transport="mp")

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(start_method="teleport")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(jobs=0)

    def test_factory_rejects_unknown_kind(self, small_corpus):
        service = CheckService(small_corpus)
        with pytest.raises(ValueError):
            create_transport(service, "carrier-pigeon")


class TestSupervisorConfig:
    def test_defaults_are_valid(self):
        SupervisorConfig()

    @pytest.mark.parametrize("field,value", [
        ("hang_deadline_seconds", 0.0),
        ("max_restarts_per_shard", -1),
    ])
    def test_bad_values_are_rejected(self, field, value):
        with pytest.raises(ValueError):
            SupervisorConfig(**{field: value})

    def test_backoff_is_exponential_and_capped(self):
        config = SupervisorConfig(backoff_base_seconds=0.01,
                                  backoff_factor=2.0,
                                  backoff_max_seconds=0.05)
        assert config.backoff_seconds(1) == pytest.approx(0.01)
        assert config.backoff_seconds(2) == pytest.approx(0.02)
        assert config.backoff_seconds(3) == pytest.approx(0.04)
        assert config.backoff_seconds(4) == pytest.approx(0.05)
        assert config.backoff_seconds(10) == pytest.approx(0.05)


@pytest.mark.parametrize("transport", ["socket"])
class TestRemoteTransports:
    def test_records_identical_to_asyncio(self, spawn_safe_corpus,
                                          checkable_commits,
                                          reference_records,
                                          transport):
        service, results = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport=transport, jobs=2))
        assert [result.record for result in results] == \
            reference_records

    def test_stats_shape(self, spawn_safe_corpus, checkable_commits,
                         transport):
        service, results = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport=transport, jobs=2))
        stats = service.stats()
        assert stats["transport"]["kind"] == transport
        assert stats["transport"]["jobs"] == 2
        assert set(stats["supervisor"]) == SUPERVISOR_STAT_KEYS
        assert stats["supervisor"]["crashes_detected"] == 0
        assert stats["supervisor"]["breaker_open_shards"] == []
        workers = stats["shards"]
        assert len(workers) == 2
        assert sum(worker["assignments"] for worker in workers) == LIMIT
        for worker in workers:
            assert worker["pid"] is not None
            assert worker["crashes"] == 0
            assert not worker["breaker_open"]

    def test_telemetry_flows_back(self, spawn_safe_corpus,
                                  checkable_commits, transport):
        """Worker-side metric deltas merge into the coordinator's
        registry: the service's obs plane sees remote work."""
        service, results = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport=transport, jobs=2))
        counters = service.metrics.snapshot().to_dict()["counters"]
        # patches.checked / build.* are incremented inside the worker
        # process and can only appear here via the verdict-frame delta
        assert counters.get("patches.checked", 0) == LIMIT
        assert any(name.startswith("build.") for name in counters), (
            "no worker-side build counters reached the coordinator")

    def test_worker_cache_probes_reach_the_service(
            self, spawn_safe_corpus, checkable_commits, transport):
        """Each VERDICT frame's cache-stats delta merges into the
        service's cache, so its counters see the workers' probes."""
        service, _ = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport=transport, jobs=2))
        assert service.cache.stats.kind("preprocess").probes > 0

    def test_drain_is_idempotent_and_clean(self, spawn_safe_corpus,
                                           checkable_commits,
                                           transport):
        service, _ = run_transport(
            spawn_safe_corpus, checkable_commits[:1],
            ServiceConfig(transport=transport, jobs=1))
        # check_commits already drained; a second drain is a no-op
        asyncio.run(service.drain())
        assert service.health()["status"] == "down"


class _GatedTransport(RemoteTransport):
    """A remote transport whose worker says HELLO when the test says so."""

    kind = "gated"

    def _spawn(self, slot) -> None:
        slot.process = None
        slot.channel = None

    async def _connect(self, slot) -> None:
        await self.hello


class TestDrainRace:
    def test_drain_stops_a_slot_whose_hello_races_the_cancel(
            self, small_corpus):
        """A respawned worker's HELLO lands in the same loop step as
        drain's cancel. Before Python 3.12, ``asyncio.wait_for`` then
        returns instead of raising, so the cancel alone would leave the
        slot loop waiting on the empty queue and drain would never
        finish."""
        transport = _GatedTransport(CheckService(
            small_corpus, config=ServiceConfig(transport="socket",
                                               jobs=1)))

        async def main() -> None:
            transport.hello = asyncio.get_running_loop().create_future()
            await transport.start()
            await asyncio.sleep(0)  # the slot loop now awaits HELLO
            transport.hello.set_result(None)
            await asyncio.wait_for(transport.drain(), timeout=5)

        asyncio.run(main())


class _ScriptedWorker:
    """A slot channel whose worker answers only when the test says so.

    It records each WORK frame it is sent and how many of its frames,
    that one included, were then unanswered; ``answer()`` replies to
    every frame not yet answered, ``die()`` reads as EOF — a lost
    worker.
    """

    def __init__(self, slot) -> None:
        self.slot = slot
        self.frames: list[dict] = []
        self.held: list[int] = []
        self.answered = 0
        self.replies: asyncio.Queue = asyncio.Queue()

    async def send(self, frame: bytes) -> None:
        msg_type, payload, _ = wire.decode_frame(frame)
        if msg_type == wire.MSG_WORK:
            self.frames.append(payload)
            self.held.append(len(self.frames) - self.answered)

    async def recv_message(self):
        return await self.replies.get()

    def answer(self) -> None:
        for frame in self.frames[self.answered:]:
            items = [wire.verdict_item(
                item["seq"], item["request_id"], item["commit_id"],
                report=PatchReport(commit_id=item["commit_id"]))
                for item in frame["items"]]
            self.replies.put_nowait((wire.MSG_VERDICT, wire.verdict_message(
                frame["seq"], items, metrics={}, cache=None, events=[],
                worker_id=self.slot.index)))
        self.answered = len(self.frames)

    def die(self) -> None:
        self.replies.put_nowait(None)

    def close(self) -> None:
        pass


class _ScriptedTransport(RemoteTransport):
    """Slots whose workers are :class:`_ScriptedWorker` channels; every
    slot says HELLO when the test sets ``hello``."""

    kind = "scripted"

    def _spawn(self, slot) -> None:
        slot.process = None
        slot.channel = _ScriptedWorker(slot)
        self.workers.append(slot.channel)

    async def _connect(self, slot) -> None:
        await self.hello


class TestBatchDispatch:
    """The dispatch rule: a slot takes ``max(1, (1 + queued) // (jobs *
    4))`` assignments, at most ``MAX_BATCH``, per WORK frame, and sends
    its next frame only after the reply to the last one."""

    def _run(self, small_corpus, queued, script):
        events = EventLog()
        transport = _ScriptedTransport(CheckService(
            small_corpus, config=ServiceConfig(transport="socket", jobs=2,
                                               events=events),
            cache=False))
        transport.workers = []

        async def main():
            transport.hello = asyncio.get_running_loop().create_future()
            await transport.start()
            tasks = [asyncio.ensure_future(transport.run_request(
                CheckRequest(commit_id=f"c-{index}",
                             request_id=f"r-{index}")))
                for index in range(queued)]
            await asyncio.sleep(0)  # every request is queued
            transport.hello.set_result(None)
            for _ in range(5):
                await asyncio.sleep(0)  # slots take and send
            await script(transport)
            while not all(task.done() for task in tasks):
                for worker in transport.workers:
                    worker.answer()
                await asyncio.sleep(0.001)
            await transport.drain()
            return [task.result().report.commit_id for task in tasks]

        delivered = asyncio.run(main())
        assert delivered == [f"c-{index}" for index in range(queued)]
        return transport, events

    @staticmethod
    def _sizes(transport):
        return [len(frame["items"]) for worker in transport.workers
                for frame in worker.frames]

    @staticmethod
    async def _no_script(transport):
        pass

    def test_short_queue_sends_one_commit_per_frame(self, small_corpus):
        transport, _ = self._run(small_corpus, 3, self._no_script)
        assert self._sizes(transport) == [1, 1, 1]
        assert max(held for worker in transport.workers
                   for held in worker.held) == 1

    def test_long_queue_batches_one_frame_at_a_time(self, small_corpus):
        transport, _ = self._run(small_corpus, 64, self._no_script)
        # 64 queued -> 64 // 8 = 8; the second slot sees 56 -> 7
        assert [worker.frames[0]["seq"] for worker in
                transport.workers] == [1, 9]
        assert [len(worker.frames[0]["items"]) for worker in
                transport.workers] == [8, 7]
        assert max(held for worker in transport.workers
                   for held in worker.held) == 1
        assert sum(self._sizes(transport)) == 64

    def test_deep_queue_batches_are_capped(self, small_corpus):
        transport, _ = self._run(small_corpus, 1000, self._no_script)
        sizes = self._sizes(transport)
        # 1000 // 8 = 125, cut to the cap
        assert sizes[0] == max(sizes) == MAX_BATCH
        assert sum(sizes) == 1000

    def test_lost_slot_requeues_its_batch_once(self, small_corpus):
        lost = []

        async def script(transport):
            worker = transport.workers[0]
            lost.extend(item["request_id"] for frame in worker.frames
                        for item in frame["items"])
            worker.die()
            await asyncio.sleep(0.05)  # detect, requeue, restart

        transport, events = self._run(small_corpus, 64, script)
        assert len(lost) == 8
        requeued = [event.request_id
                    for event in events.events(EVENT_WORKER_REQUEUE)]
        assert sorted(requeued) == sorted(lost)
        assert transport.requeued_jobs == len(lost)
        assert transport.crashes_detected == 1


class TestStartMethods:
    def test_spawn_workers_match_fork(self, spawn_safe_corpus,
                                      checkable_commits,
                                      reference_records):
        """The spawn start method re-imports everything in the child
        (nothing is inherited), so this is the real pickle-safety and
        import-cleanliness check for the worker substrate."""
        _, results = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport="socket", jobs=2,
                          start_method="spawn"))
        assert [result.record for result in results] == \
            reference_records


class TestSubmitPaths:
    def test_submit_nowait_over_socket(self, spawn_safe_corpus,
                                       checkable_commits):
        """The admission-control path works over worker processes."""

        async def main():
            service = CheckService(
                spawn_safe_corpus,
                config=ServiceConfig(transport="socket", jobs=1))
            await service.start()
            try:
                task = service.submit_nowait(CheckRequest(
                    commit_id=checkable_commits[0].id))
                result = await task
            finally:
                await service.drain()
            return result

        result = asyncio.run(main())
        assert result.commit_id == checkable_commits[0].id
        assert result.record["verdict"]


#: a coordinator that serves until killed: it prints its two workers'
#: pids once both have registered, then idles
_COORDINATOR = """
import asyncio
import sys

from repro.service.service import CheckService, ServiceConfig
from repro.workload.corpus import CorpusSpec, build_corpus


async def main():
    corpus = build_corpus(CorpusSpec(seed="orphans", history_commits=20,
                                     eval_commits=10,
                                     regular_developers=4))
    service = CheckService(corpus, cache=False, config=ServiceConfig(
        transport="socket", jobs=2, start_method=sys.argv[1]))
    await service.start()
    slots = service.transport.slots
    while any(slot.channel is None for slot in slots):
        await asyncio.sleep(0.01)
    print(*[slot.pid for slot in slots], flush=True)
    await asyncio.sleep(3600)


asyncio.run(main())
"""


def _running(pid: int) -> bool:
    """True while ``pid`` is a process that has not exited (a zombie
    nobody reaps counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
class TestOrphanedWorkers:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_killed_coordinator_leaves_no_worker(self, start_method):
        """A coordinator killed with SIGKILL drains nothing, so its
        spawned workers must notice on their own: each one sees EOF,
        finds its ``multiprocessing`` parent gone and exits instead of
        redialing — under fork too, where the workers still hold the
        dead coordinator's listening socket open."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _COORDINATOR, start_method],
            stdout=subprocess.PIPE, text=True, env=env)
        pids = []
        try:
            ready, _, _ = select.select([coordinator.stdout], [], [], 120)
            assert ready, "no worker registered within 120 s"
            pids = [int(pid) for pid in coordinator.stdout.readline()
                    .split()]
            assert len(pids) == 2, "coordinator exited before serving"
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait()
            deadline = time.monotonic() + 2.0
            while any(map(_running, pids)) and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
