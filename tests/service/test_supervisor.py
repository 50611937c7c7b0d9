"""Supervised workers: crash/hang recovery, restart budget, breakers.

The unit tests drive a bare :class:`ShardPool` with toy jobs and call
``sweep()`` directly (no real-time polling); the chaos tests run the
whole :class:`CheckService` under ``worker_crash``/``worker_hang``
storms and pin the verdicts against a fault-free baseline — process
faults must be verdict-neutral.
"""

import asyncio

import pytest

from repro.errors import ServiceOverloadedError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig
from repro.service.shards import ShardPool
from repro.service.supervisor import ShardSupervisor, SupervisorConfig

FAST = SupervisorConfig(poll_interval_seconds=0.005,
                        hang_deadline_seconds=0.05,
                        backoff_base_seconds=0.0,
                        max_restarts_per_shard=100)


def crash_plan(*, path="", rate=1.0):
    return FaultPlan(seed="crash", specs=[
        FaultSpec(kind="worker_crash", site="worker",
                  path=path, rate=rate)])


def hang_plan(*, path=""):
    return FaultPlan(seed="hang", specs=[
        FaultSpec(kind="worker_hang", site="worker", path=path)])


class TestSupervisorConfig:
    def test_defaults_are_valid(self):
        SupervisorConfig()

    @pytest.mark.parametrize("field,value", [
        ("poll_interval_seconds", 0.0),
        ("poll_interval_seconds", -1.0),
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


class TestCrashRecovery:
    def test_crashed_worker_is_revived_and_the_job_requeued(self):
        async def main():
            pool = ShardPool(
                1, injector=FaultInjector(crash_plan(path="pickup-1")))
            pool.start()
            supervisor = ShardSupervisor(pool, config=FAST)
            shard = pool.shards[0]
            ran = []
            await shard.enqueue(lambda: ran.append("job"))
            await asyncio.sleep(0.01)   # worker picks up and crashes
            assert shard.task.done()
            assert ran == []
            await supervisor.sweep()
            await shard.queue.join()
            assert ran == ["job"]       # exactly once, after requeue
            assert supervisor.crashes_detected == 1
            assert supervisor.requeued_jobs == 1
            assert supervisor.restarts == 1
            assert shard.restarts == 1
            assert not shard.breaker_open
            await pool.stop()
        asyncio.run(main())

    def test_jobs_queued_behind_the_crash_still_run(self):
        async def main():
            pool = ShardPool(
                1, injector=FaultInjector(crash_plan(path="pickup-1")))
            pool.start()
            supervisor = ShardSupervisor(pool, config=FAST)
            shard = pool.shards[0]
            ran = []
            for index in range(4):
                await shard.enqueue(
                    lambda index=index: ran.append(index))
            await asyncio.sleep(0.01)
            await supervisor.sweep()
            await shard.queue.join()
            # requeue puts the claimed job at the back; all ran once
            assert sorted(ran) == [0, 1, 2, 3]
            await pool.stop()
        asyncio.run(main())


class TestHangRecovery:
    def test_hung_worker_is_killed_and_revived(self):
        async def main():
            pool = ShardPool(
                1, injector=FaultInjector(hang_plan(path="pickup-1")))
            pool.start()
            supervisor = ShardSupervisor(pool, config=FAST)
            shard = pool.shards[0]
            ran = []
            await shard.enqueue(lambda: ran.append("job"))
            await asyncio.sleep(0.06)   # hold past the hang deadline
            assert shard.hung
            assert not shard.task.done()  # alive but parked
            await supervisor.sweep()
            await shard.queue.join()
            assert ran == ["job"]
            assert supervisor.hangs_detected == 1
            assert supervisor.requeued_jobs == 1
            await pool.stop()
        asyncio.run(main())

    def test_idle_worker_is_never_hung(self):
        async def main():
            pool = ShardPool(1)
            pool.start()
            supervisor = ShardSupervisor(
                pool, config=SupervisorConfig(
                    hang_deadline_seconds=0.001))
            await asyncio.sleep(0.01)   # idle far past the deadline
            await supervisor.sweep()
            assert supervisor.hangs_detected == 0
            await pool.stop()
        asyncio.run(main())


class TestCircuitBreaker:
    def test_exhausted_restart_budget_opens_the_breaker(self):
        async def main():
            # every pickup crashes; budget of 2 restarts
            pool = ShardPool(1, injector=FaultInjector(crash_plan()))
            pool.start()
            config = SupervisorConfig(poll_interval_seconds=0.005,
                                      backoff_base_seconds=0.0,
                                      max_restarts_per_shard=2)
            supervisor = ShardSupervisor(pool, config=config)
            shard = pool.shards[0]
            ran = []
            for index in range(3):
                await shard.enqueue(
                    lambda index=index: ran.append(index))
            for _ in range(10):
                await asyncio.sleep(0.005)
                await supervisor.sweep()
                if shard.breaker_open:
                    break
            assert shard.breaker_open
            assert "restart budget exhausted" in shard.breaker_reason
            assert supervisor.breakers_opened == 1
            # the queue was drained inline: every job ran exactly once
            assert sorted(ran) == [0, 1, 2]
            assert shard.inline_jobs == 3
            # new work on a broken shard runs inline immediately
            await shard.enqueue(lambda: ran.append("late"))
            assert ran[-1] == "late"
            # join() must not wait on a breaker-open shard
            await pool.join()
            assert supervisor.stats()["breaker_open_shards"] == [0]
            await pool.stop()
        asyncio.run(main())

    def test_zero_restart_budget_breaks_on_first_crash(self):
        async def main():
            pool = ShardPool(
                1, injector=FaultInjector(crash_plan(path="pickup-1")))
            pool.start()
            supervisor = ShardSupervisor(
                pool, config=SupervisorConfig(max_restarts_per_shard=0))
            shard = pool.shards[0]
            await shard.enqueue(lambda: None)
            await asyncio.sleep(0.01)
            await supervisor.sweep()
            assert shard.breaker_open
            assert supervisor.restarts == 0
            await pool.stop()
        asyncio.run(main())


class TestServiceUnderChaos:
    """Whole-service chaos: verdicts must match the fault-free run."""

    COMMITS = 6

    @pytest.fixture(scope="class")
    def baseline_records(self, small_corpus, checkable_commits):
        service = CheckService(small_corpus,
                               config=ServiceConfig(shards=2))
        commit_ids = [commit.id
                      for commit in checkable_commits[:self.COMMITS]]
        results = service.check_commits(commit_ids)
        return [result.record for result in results]

    def run_storm(self, corpus, commits, plan, *,
                  supervisor=FAST) -> tuple:
        service = CheckService(
            corpus, config=ServiceConfig(shards=2, fault_plan=plan,
                                         supervisor=supervisor))
        results = service.check_commits(
            [commit.id for commit in commits[:self.COMMITS]])
        return [result.record for result in results], service

    def test_crash_storm_preserves_every_verdict(
            self, small_corpus, checkable_commits, baseline_records):
        records, service = self.run_storm(
            small_corpus, checkable_commits, crash_plan(rate=0.2))
        stats = service.stats()["supervisor"]
        assert stats["crashes_detected"] > 0
        assert stats["requeued_jobs"] > 0
        assert stats["breaker_open_shards"] == []
        assert records == baseline_records

    def test_hang_storm_preserves_every_verdict(
            self, small_corpus, checkable_commits, baseline_records):
        records, service = self.run_storm(
            small_corpus, checkable_commits,
            hang_plan(path="pickup-2"))
        stats = service.stats()["supervisor"]
        assert stats["hangs_detected"] >= 1
        assert records == baseline_records

    def test_breaker_degradation_preserves_every_verdict(
            self, small_corpus, checkable_commits, baseline_records):
        # every pickup crashes; tiny budget -> breakers open on both
        # shards and everything degrades to inline execution
        records, service = self.run_storm(
            small_corpus, checkable_commits, crash_plan(),
            supervisor=SupervisorConfig(poll_interval_seconds=0.005,
                                        backoff_base_seconds=0.0,
                                        max_restarts_per_shard=1))
        stats = service.stats()
        assert stats["supervisor"]["breakers_opened"] >= 1
        assert any(shard["inline_jobs"] > 0
                   for shard in stats["shards"])
        assert records == baseline_records

    def test_breaker_state_is_visible_in_stats(self, small_corpus,
                                               checkable_commits):
        service = CheckService(
            small_corpus,
            config=ServiceConfig(
                shards=1, fault_plan=crash_plan(),
                supervisor=SupervisorConfig(
                    poll_interval_seconds=0.005,
                    backoff_base_seconds=0.0,
                    max_restarts_per_shard=0)))
        service.check_commits([checkable_commits[0].id])
        stats = service.stats()
        assert stats["supervisor"]["breaker_open_shards"] == [0]
        shard = stats["shards"][0]
        assert shard["breaker_open"]
        assert shard["breaker_reason"]


class TestOverloadError:
    def test_rejection_carries_structured_fields(self, small_corpus,
                                                 checkable_commits):
        async def main():
            service = CheckService(
                small_corpus,
                config=ServiceConfig(shards=1,
                                     max_pending_requests=1))
            await service.start()
            try:
                first = service.submit_nowait(
                    CheckRequest(commit_id=checkable_commits[0].id))
                await asyncio.sleep(0)
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    service.submit_nowait(CheckRequest(
                        commit_id=checkable_commits[1].id))
                error = excinfo.value
                assert error.limit == 1
                assert error.queue_depth >= 1
                assert error.shard_id == 0
                await first
            finally:
                await service.drain()
        asyncio.run(main())
