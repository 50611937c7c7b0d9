"""Transport smoke surface: same API, same bytes, different substrate.

The differential matrix in ``test_differential.py`` proves byte-
identity at evaluation scale; this module pins the transport layer's
own contract — lifecycle, stats shapes, telemetry relay, start
methods — on small direct ``CheckService`` runs.
"""

import asyncio

import pytest

from repro.service.request import CheckRequest
from repro.service.service import START_METHODS, CheckService, ServiceConfig
from repro.service.transport.base import TRANSPORT_KINDS, create_transport
from repro.service.transport.remote import RemoteTransport, SupervisorConfig

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
        assert TRANSPORT_KINDS == ("asyncio", "mp", "socket")
        assert START_METHODS == ("fork", "spawn", "forkserver")
        assert ServiceConfig().transport == "asyncio"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(transport="carrier-pigeon")

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


@pytest.mark.parametrize("transport", ["mp", "socket"])
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
        # both remote transports fill the supervisor block with the
        # same keys, so dashboards need no per-transport special cases
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
            small_corpus, config=ServiceConfig(transport="mp", jobs=1)))

        async def main() -> None:
            transport.hello = asyncio.get_running_loop().create_future()
            await transport.start()
            await asyncio.sleep(0)  # the slot loop now awaits HELLO
            transport.hello.set_result(None)
            await asyncio.wait_for(transport.drain(), timeout=5)

        asyncio.run(main())


class TestStartMethods:
    def test_spawn_workers_match_fork(self, spawn_safe_corpus,
                                      checkable_commits,
                                      reference_records):
        """The spawn start method re-imports everything in the child
        (nothing is inherited), so this is the real pickle-safety and
        import-cleanliness check for the worker substrate."""
        _, results = run_transport(
            spawn_safe_corpus, checkable_commits[:LIMIT],
            ServiceConfig(transport="mp", jobs=2,
                          start_method="spawn"))
        assert [result.record for result in results] == \
            reference_records


class TestSubmitPaths:
    def test_submit_nowait_over_mp(self, spawn_safe_corpus,
                                   checkable_commits):
        """The admission-control path works over remote transports."""

        async def main():
            service = CheckService(
                spawn_safe_corpus,
                config=ServiceConfig(transport="mp", jobs=1))
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
