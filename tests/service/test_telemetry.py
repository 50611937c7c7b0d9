"""Telemetry threading through the check service.

The service is the event log's main producer: lifecycle transitions,
admission rejections, and supervisor interventions must all land in
the structured stream with request correlation, and the snapshotter
must capture the drained state as its final sample. All of it rides
the null-object convention — a service constructed without telemetry
keeps NULL_EVENTS/no snapshotter and pays nothing.
"""

import asyncio

import pytest

from repro.errors import ServiceOverloadedError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.events import (
    EVENT_SERVICE_DRAINED,
    EVENT_SERVICE_REJECTED,
    EVENT_SERVICE_STARTED,
    EVENT_SHARD_CRASH,
    EVENT_SHARD_RESTART,
    NULL_EVENTS,
    EventLog,
    validate_event_record,
)
from repro.obs.sinks import CallbackSink
from repro.obs.timeseries import Snapshotter
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig
from repro.service.shards import ShardPool
from repro.service.supervisor import ShardSupervisor, SupervisorConfig

FAST = SupervisorConfig(poll_interval_seconds=0.005,
                        hang_deadline_seconds=0.05,
                        backoff_base_seconds=0.0,
                        max_restarts_per_shard=100)


def crash_plan(path):
    return FaultPlan(seed="crash", specs=[
        FaultSpec(kind="worker_crash", site="worker",
                  path=path, rate=1.0)])


def observed_service(corpus, **overrides):
    """A service wired the way ``jmake serve`` wires it."""
    log = EventLog(clock=lambda: 0.0)
    config = ServiceConfig(shards=2, events=log, **overrides)
    service = CheckService(corpus, config=config, cache=False)
    service.snapshotter = Snapshotter(service.metrics,
                                      clock=lambda: 0.0)
    return service, log


class TestLifecycleEvents:
    def test_run_brackets_with_started_and_drained(self, small_corpus,
                                                   checkable_commits):
        service, log = observed_service(small_corpus)
        service.check_commits([c.id for c in checkable_commits[:2]])
        kinds = [event.kind for event in log.events()]
        assert kinds[0] == EVENT_SERVICE_STARTED
        assert kinds[-1] == EVENT_SERVICE_DRAINED
        started = log.events(EVENT_SERVICE_STARTED)[0]
        assert started.attrs["shards"] == 2
        assert started.attrs["supervised"] is True
        drained = log.events(EVENT_SERVICE_DRAINED)[0]
        assert drained.attrs["requests_completed"] == 2

    def test_every_emitted_record_is_strict_valid(self, small_corpus,
                                                  checkable_commits):
        service, log = observed_service(small_corpus)
        service.check_commits([c.id for c in checkable_commits[:2]])
        seqs = []
        for event in log.events():
            validate_event_record(event.to_dict(), known_kinds_only=True)
            seqs.append(event.seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_untelemetered_service_holds_the_null_objects(
            self, small_corpus):
        service = CheckService(small_corpus, cache=False)
        assert service.events is NULL_EVENTS
        assert service.snapshotter is None


class TestHealth:
    def test_transitions_down_ready_down(self, small_corpus,
                                         checkable_commits):
        service, _ = observed_service(small_corpus)
        assert service.health()["status"] == "down"
        assert service.health()["ready"] is False
        seen = []
        service.check_commits(
            [c.id for c in checkable_commits[:1]],
            on_result=lambda _: seen.append(service.health()))
        assert seen[0]["status"] in ("ok", "degraded")
        assert seen[0]["ready"] is True
        after = service.health()
        assert after["status"] == "down"
        assert after["ready"] is False
        assert after["admission_free_slots"] == 0

    def test_stats_carries_health_events_and_snapshots(
            self, small_corpus, checkable_commits):
        service, _ = observed_service(small_corpus)
        service.check_commits([c.id for c in checkable_commits[:1]])
        stats = service.stats()
        assert stats["health"]["status"] == "down"
        assert stats["events"]["counts"][EVENT_SERVICE_DRAINED] == 1
        assert stats["snapshots"]["samples_taken"] >= 1


class TestFinalSnapshot:
    def test_drain_takes_a_final_sample_of_the_drained_state(
            self, small_corpus, checkable_commits):
        service, _ = observed_service(small_corpus)
        service.check_commits([c.id for c in checkable_commits[:2]])
        latest = service.snapshotter.ring.latest
        assert latest is not None
        counters = latest.metrics["counters"]
        assert counters["service.requests.completed"] == 2


class TestRejectionCorrelation:
    def test_overload_event_carries_the_request_id(self, small_corpus,
                                                   checkable_commits):
        service, log = observed_service(small_corpus,
                                        max_pending_requests=1)

        async def main():
            await service.start()
            try:
                first = service.submit_nowait(
                    CheckRequest(commit_id=checkable_commits[0].id))
                # let the first request claim the admission slot
                for _ in range(1000):
                    if service._admission.locked():
                        break
                    await asyncio.sleep(0.001)
                assert service._admission.locked(), \
                    "first request never claimed the admission slot"
                with pytest.raises(ServiceOverloadedError):
                    service.submit_nowait(
                        CheckRequest(commit_id=checkable_commits[1].id))
                await first
            finally:
                await service.drain()
        asyncio.run(main())

        rejected = log.events(EVENT_SERVICE_REJECTED)
        assert len(rejected) == 1
        assert rejected[0].request_id == "req-2"
        assert rejected[0].attrs["limit"] == 1


class TestSupervisorEvents:
    def test_crash_and_restart_are_narrated_with_the_shard(self):
        async def main():
            log = EventLog(clock=lambda: 0.0,
                           sinks=[CallbackSink(lambda record: None)])
            pool = ShardPool(
                1, injector=FaultInjector(crash_plan("pickup-1")))
            pool.start()
            supervisor = ShardSupervisor(pool, config=FAST, events=log)
            shard = pool.shards[0]
            ran = []
            await shard.enqueue(lambda: ran.append("job"))
            await asyncio.sleep(0.01)   # worker picks up and crashes
            await supervisor.sweep()
            await shard.queue.join()
            await pool.stop()
            assert ran == ["job"]
            return log
        log = asyncio.run(main())
        crash = log.events(EVENT_SHARD_CRASH)
        restart = log.events(EVENT_SHARD_RESTART)
        assert len(crash) == 1 and len(restart) == 1
        assert crash[0].attrs["shard"] == 0
        assert restart[0].attrs["shard"] == 0
        assert crash[0].seq < restart[0].seq
