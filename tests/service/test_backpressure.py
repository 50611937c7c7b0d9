"""Admission control: backpressure, overload rejection, drain races."""

import asyncio

import pytest

from repro.errors import ServiceDrainingError, ServiceOverloadedError
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig


class TestAdmission:
    def test_submit_nowait_rejects_when_full(self, small_corpus,
                                             checkable_commits):
        async def main():
            service = CheckService(
                small_corpus,
                config=ServiceConfig(max_pending_requests=1))
            await service.start()
            try:
                first = service.submit_nowait(
                    CheckRequest(commit_id=checkable_commits[0].id))
                # let the first request seize the admission slot
                await asyncio.sleep(0)
                with pytest.raises(ServiceOverloadedError):
                    service.submit_nowait(CheckRequest(
                        commit_id=checkable_commits[1].id))
                assert service.metrics.counter(
                    "service.rejected").value == 1
                result = await first
                assert result.verdict
            finally:
                await service.drain()
        asyncio.run(main())

    def test_submit_backpressures_instead_of_failing(self,
                                                     small_corpus,
                                                     checkable_commits):
        async def main():
            service = CheckService(
                small_corpus,
                config=ServiceConfig(max_pending_requests=2))
            await service.start()
            try:
                commit_ids = [commit.id
                              for commit in checkable_commits[:6]]
                results = await asyncio.gather(*[
                    service.submit(CheckRequest(commit_id=commit_id))
                    for commit_id in commit_ids])
                assert [result.commit_id for result in results] == \
                    commit_ids
                assert all(result.verdict for result in results)
            finally:
                await service.drain()
            # the slot cap was respected the whole way through
            assert service.metrics.gauge(
                "service.requests.in_flight").value == 0
            assert service.requests_completed == 6
        asyncio.run(main())

    def test_unstarted_service_rejects(self, small_corpus,
                                       checkable_commits):
        async def main():
            service = CheckService(small_corpus)
            with pytest.raises(ServiceDrainingError):
                await service.submit(CheckRequest(
                    commit_id=checkable_commits[0].id))
        asyncio.run(main())

    def test_drain_waits_for_admitted_but_queued_requests(
            self, small_corpus, checkable_commits):
        async def main():
            service = CheckService(
                small_corpus,
                config=ServiceConfig(max_pending_requests=1))
            await service.start()
            tasks = [
                asyncio.get_running_loop().create_task(
                    service.submit(CheckRequest(commit_id=commit.id)))
                for commit in checkable_commits[:3]]
            await asyncio.sleep(0)
            # two of the three are still waiting for the single slot;
            # drain must let all of them finish, not strand them
            await service.drain()
            results = await asyncio.gather(*tasks)
            assert len(results) == 3
            assert all(result.verdict for result in results)
            assert service.requests_completed == 3
        asyncio.run(main())


class TestOverloadError:
    def test_rejection_carries_structured_fields(self, small_corpus,
                                                 checkable_commits):
        async def main():
            service = CheckService(
                small_corpus,
                config=ServiceConfig(max_pending_requests=1))
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
                await first
            finally:
                await service.drain()
        asyncio.run(main())
