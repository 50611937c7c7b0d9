"""CheckService lifecycle, results, stats, and quarantine plumbing."""

import asyncio

import pytest

from repro.core.jmake import CheckSession
from repro.errors import ServiceDrainingError
from repro.evalsuite.runner import EvaluationSession
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.events import EVENT_SHARD_CRASH, EventLog
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig


@pytest.fixture(scope="module")
def batch_results(small_corpus, checkable_commits):
    """One service run over five commits, plus its closing stats."""
    service = CheckService(small_corpus, config=ServiceConfig())
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
            assert result.elapsed_sim_seconds == \
                result.report.elapsed_seconds

    def test_clean_drain(self, batch_results):
        _, results, service = batch_results
        stats = service.stats()
        assert stats["started"] is False
        assert stats["requests_in_flight"] == 0
        assert stats["requests_completed"] == len(results)

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
            ServiceConfig(jobs=0)
        with pytest.raises(ValueError):
            ServiceConfig(jobs=True)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_pending_requests=0)

    def test_evaluation_rejects_a_shard_count(self, small_corpus):
        with pytest.raises(TypeError):
            EvaluationSession(small_corpus).run(limit=1, service=2)


class TestAsyncioPath:
    def test_each_request_is_one_whole_check(self, small_corpus,
                                             checkable_commits,
                                             monkeypatch):
        """The asyncio transport checks a request with one
        ``check_commit`` call, like the sequential driver; with no
        worker, a worker-site fault plan has nothing to crash."""
        plan = FaultPlan(seed="crash", specs=[
            FaultSpec(kind="worker_crash", site="worker", rate=1.0)])
        commit_ids = [commit.id for commit in checkable_commits[:3]]
        sequential = [
            CheckSession.from_generated_tree(
                small_corpus.tree, fault_plan=plan).check_commit(
                    small_corpus.repository, commit_id).to_dict()
            for commit_id in commit_ids]
        calls = []
        check_commit = CheckSession.check_commit

        def recording(session, repository, commit):
            calls.append(commit.id)
            return check_commit(session, repository, commit)

        monkeypatch.setattr(CheckSession, "check_commit", recording)
        events = EventLog()
        service = CheckService(
            small_corpus,
            config=ServiceConfig(fault_plan=plan, events=events))
        results = service.check_commits(commit_ids)
        assert calls == commit_ids
        assert [result.record for result in results] == sequential
        assert events.counts.get(EVENT_SHARD_CRASH, 0) == 0


class TestQuarantineOpsView:
    def test_request_quarantine_lands_in_health(self, small_corpus,
                                                checkable_commits):
        # arm configs fail persistently: arm quarantines per request
        # (the same plan the sequential PARTIAL suite relies on)
        plan = FaultPlan(seed="bench-arm", specs=[
            FaultSpec(kind="config_fail", arch="arm", times=10)])
        service = CheckService(
            small_corpus,
            config=ServiceConfig(fault_plan=plan),
            cache=False)
        results = service.check_commits(
            [commit.id for commit in checkable_commits[:10]])
        quarantined = [result for result in results
                       if "arm" in result.report.quarantined_archs]
        if not quarantined:
            pytest.skip("no commit in this window exercised arm")
        assert service.health()["quarantined_archs"] == sorted({
            arch for result in results
            for arch in result.report.quarantined_archs})
