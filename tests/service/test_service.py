"""CheckService lifecycle, results, stats, and quarantine plumbing."""

import asyncio

import pytest

from repro.errors import ServiceDrainingError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig


@pytest.fixture(scope="module")
def batch_results(small_corpus, checkable_commits):
    """One service run over five commits, plus its closing stats."""
    service = CheckService(small_corpus,
                           config=ServiceConfig(shards=2))
    commit_ids = [commit.id for commit in checkable_commits[:5]]
    results = service.check_commits(commit_ids)
    return commit_ids, results, service


class TestCheckCommits:
    def test_results_in_submission_order(self, batch_results):
        commit_ids, results, _ = batch_results
        assert [result.commit_id for result in results] == commit_ids

    def test_request_ids_are_assigned(self, batch_results):
        _, results, _ = batch_results
        assert [result.request_id for result in results] == \
            [f"req-{i}" for i in range(1, 6)]

    def test_results_carry_records_and_stages(self, batch_results):
        _, results, _ = batch_results
        for result in results:
            assert result.verdict == result.report.verdict
            assert result.record["commit"] == result.commit_id
            assert result.record["schema_version"] >= 2
            assert result.stage_counts.get("mutate") == 1
            assert result.elapsed_sim_seconds == \
                result.report.elapsed_seconds

    def test_clean_drain(self, batch_results):
        _, results, service = batch_results
        stats = service.stats()
        assert stats["started"] is False
        assert stats["requests_in_flight"] == 0
        assert stats["requests_completed"] == len(results)
        assert stats["batcher"]["pending_units"] == 0
        for shard in stats["shards"]:
            assert shard["queue_depth"] == 0

    def test_work_actually_ran_on_shards(self, batch_results):
        _, _, service = batch_results
        stats = service.stats()
        assert sum(shard["units_run"]
                   for shard in stats["shards"]) > 0
        assert stats["batcher"]["flushes"] > 0

    def test_submit_after_drain_is_rejected(self, batch_results,
                                            checkable_commits):
        _, _, service = batch_results

        async def resubmit():
            await service.submit(
                CheckRequest(commit_id=checkable_commits[0].id))

        with pytest.raises(ServiceDrainingError):
            asyncio.run(resubmit())


class TestServiceConfig:
    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)
        with pytest.raises(ValueError):
            ServiceConfig(shards=True)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            ServiceConfig(batch_limit=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending_requests=0)
        with pytest.raises(ValueError):
            ServiceConfig(shard_queue_limit=0)


class TestQuarantineOpsView:
    def test_request_quarantine_lands_on_owning_shard(self,
                                                      small_corpus,
                                                      checkable_commits):
        # arm configs fail persistently: arm quarantines per request
        # (the same plan the sequential PARTIAL suite relies on)
        plan = FaultPlan(seed="bench-arm", specs=[
            FaultSpec(kind="config_fail", arch="arm", times=10)])
        service = CheckService(
            small_corpus,
            config=ServiceConfig(shards=4, fault_plan=plan),
            cache=False)
        results = service.check_commits(
            [commit.id for commit in checkable_commits[:10]])
        quarantined = [result for result in results
                       if "arm" in result.report.quarantined_archs]
        if not quarantined:
            pytest.skip("no commit in this window exercised arm")
        stats = service.stats()
        from repro.service.shards import shard_index
        owner = stats["shards"][shard_index("arm", 4)]
        assert "arm" in owner["quarantined"]
        for index, shard in enumerate(stats["shards"]):
            if index != shard_index("arm", 4):
                assert "arm" not in shard["quarantined"]
