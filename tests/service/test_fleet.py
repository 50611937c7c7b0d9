"""Cross-host worker fleet: auth, leases, fencing, partitions.

The socket transport stops being a local-spawn detail here: external
``WorkerClient`` sessions dial a listening coordinator, authenticate
with an HMAC challenge/response, rebuild the corpus from the shipped
deterministic spec, and serve under heartbeat-fed leases. Chaos moves
from the process to the *network* — partitions heal via rejoin,
half-open links die by lease expiry, slow links survive on heartbeats
— and the byte-identity bar from the transport matrix still holds.
"""

import asyncio
import threading

import pytest

from repro.errors import (
    AuthError,
    CorpusMismatchError,
    TransportError,
    WireSchemaError,
)
from repro.evalsuite.runner import EvaluationSession
from repro.faults.chaos import transport_chaos_plan
from repro.faults.plan import (
    KIND_NET_HALF_OPEN,
    KIND_NET_PARTITION,
    KIND_NET_SLOW,
    FaultPlan,
    FaultSpec,
)
from repro.obs.events import (
    EVENT_AUTH_REJECTED,
    EVENT_LEASE_EXPIRED,
    EVENT_LEASE_FENCED,
    EVENT_WORKER_REGISTERED,
    EVENT_WORKER_REJOINED,
    EventLog,
)
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig
from repro.service.transport import wire
from repro.service.transport.base import create_transport
from repro.service.transport.client import ReconnectPolicy, WorkerClient
from repro.service.transport.remote import SupervisorConfig

LIMIT = 3

AUTH_KEY = "fleet-secret"

FAST_SUPERVISOR = SupervisorConfig(hang_deadline_seconds=5.0,
                                   backoff_base_seconds=0.01,
                                   backoff_max_seconds=0.05)


@pytest.fixture(scope="module")
def reference_records(small_corpus, checkable_commits):
    service = CheckService(small_corpus)
    results = service.check_commits(
        [commit.id for commit in checkable_commits[:LIMIT]])
    return [result.record for result in results]


def first_pickup_plan(kind: str) -> FaultPlan:
    return FaultPlan(seed="fleet-chaos",
                     specs=[FaultSpec(kind=kind, arch="worker-0",
                                      path="pickup-1")])


# -- wire-level handshake surface -------------------------------------------

class TestHandshakeMessages:
    def test_challenge_welcome_heartbeat_round_trip(self):
        for msg_type, payload in [
                (wire.MSG_CHALLENGE, wire.challenge_message("abc123")),
                (wire.MSG_WELCOME, wire.welcome_message(
                    2, 7, "deadbeef", 0.5, 2.0)),
                (wire.MSG_HEARTBEAT, wire.heartbeat_message(2, 7))]:
            frame = wire.encode_frame(msg_type, payload)
            got_type, got_payload, end = wire.decode_frame(frame)
            assert got_type == msg_type
            assert got_payload == payload
            assert end == len(frame)

    def test_welcome_missing_field_rejected(self):
        payload = wire.welcome_message(0, 1, "f", 0.0, 0.0)
        del payload["fingerprint"]
        with pytest.raises(WireSchemaError):
            wire.encode_frame(wire.MSG_WELCOME, payload)

    def test_work_and_verdict_frames_require_lease(self):
        payload = wire.work_message(1, "r-1", "c-1")
        assert payload["lease"] == 0  # pipe transports stay valid
        del payload["lease"]
        with pytest.raises(WireSchemaError):
            wire.validate_message(wire.MSG_WORK, payload)

    def test_auth_token_is_keyed_and_nonce_bound(self):
        token = wire.auth_token(AUTH_KEY, "nonce-1")
        assert wire.verify_auth(AUTH_KEY, "nonce-1", token)
        assert not wire.verify_auth("other-key", "nonce-1", token)
        assert not wire.verify_auth(AUTH_KEY, "nonce-2", token)
        assert wire.auth_token(AUTH_KEY, "nonce-2") != token

    def test_corpus_spec_round_trips(self, small_corpus):
        spec = small_corpus.spec
        payload = wire.corpus_spec_to_wire(spec)
        assert wire.corpus_spec_from_wire(payload) == spec

    def test_corpus_spec_wire_rejects_unknown_field(self, small_corpus):
        payload = wire.corpus_spec_to_wire(small_corpus.spec)
        payload["surprise"] = 1
        with pytest.raises(WireSchemaError):
            wire.corpus_spec_from_wire(payload)


class TestReconnectPolicy:
    def test_backoff_is_deterministic_and_jittered(self):
        policy = ReconnectPolicy()
        first = policy.backoff_seconds(0, 0)
        assert first == policy.backoff_seconds(0, 0)
        # jitter scales the ceiling into [0.5, 1.5)
        ceiling = policy.backoff_base_seconds
        assert 0.5 * ceiling <= first < 1.5 * ceiling
        # different workers desynchronize
        draws = {policy.backoff_seconds(worker, 1)
                 for worker in range(8)}
        assert len(draws) > 1

    def test_backoff_growth_is_capped(self):
        policy = ReconnectPolicy(backoff_base_seconds=0.1,
                                 backoff_max_seconds=0.4)
        late = policy.backoff_seconds(0, 30)
        assert late < 1.5 * policy.backoff_max_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            ReconnectPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ReconnectPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            ReconnectPolicy(backoff_base_seconds=1.0,
                            backoff_max_seconds=0.5)


# -- cross-host serving ------------------------------------------------------

def _fleet_config(events, *, jobs=2, **overrides):
    settings = dict(transport="socket", jobs=jobs,
                    spawn_workers=False, auth_key=AUTH_KEY,
                    hello_timeout_seconds=30.0, events=events,
                    supervisor=FAST_SUPERVISOR)
    settings.update(overrides)
    return ServiceConfig(**settings)


def _client_thread(client, outcomes):
    """Run ``client`` to completion, recording summary or exception."""

    def main():
        try:
            outcomes.append(client.run())
        except Exception as error:  # noqa: BLE001
            outcomes.append(error)

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    return thread


class TestAuthRejection:
    def test_wrong_key_is_typed_and_never_assigned(self, small_corpus):
        """The ISSUE acceptance bar: a wrong-key worker is rejected
        with a typed AuthError, the coordinator emits the auth event,
        and the client never sees a WORK frame."""
        events = EventLog()
        outcomes = []

        async def main():
            service = CheckService(
                small_corpus, config=_fleet_config(events, jobs=1))
            await service.start()
            host, port = service.transport.address()
            client = WorkerClient(
                host, port, auth_key="not-the-key",
                corpus=small_corpus, hard_exit=False,
                reconnect=ReconnectPolicy(max_attempts=3))
            thread = _client_thread(client, outcomes)
            try:
                while not outcomes:
                    await asyncio.sleep(0.01)
            finally:
                await service.drain()
            thread.join(timeout=10)
            return service.stats()["supervisor"], client

        stats, client = asyncio.run(main())
        assert isinstance(outcomes[0], AuthError)
        # permanent: no retry burned the remaining dial attempts
        assert client.assignments == 0
        assert client.reconnects == 0
        assert stats["auth_rejected"] == 1
        assert events.counts[EVENT_AUTH_REJECTED] == 1
        rejected = events.events(EVENT_AUTH_REJECTED)[0]
        assert rejected.attrs["worker"] == -1

    def test_rejection_does_not_poison_the_slot(self, small_corpus,
                                                checkable_commits,
                                                reference_records):
        """After a failed handshake the slot is still armed: a
        right-key worker joins it and serves real work."""
        events = EventLog()
        outcomes = []

        async def main():
            service = CheckService(
                small_corpus, config=_fleet_config(events, jobs=1))
            await service.start()
            host, port = service.transport.address()
            bad = WorkerClient(host, port, auth_key="wrong",
                               corpus=small_corpus, hard_exit=False,
                               reconnect=ReconnectPolicy(max_attempts=1))
            bad_thread = _client_thread(bad, outcomes)
            while not outcomes:
                await asyncio.sleep(0.01)
            bad_thread.join(timeout=10)

            good = WorkerClient(host, port, auth_key=AUTH_KEY,
                                corpus=small_corpus, hard_exit=False)
            good_outcomes = []
            good_thread = _client_thread(good, good_outcomes)
            try:
                tasks = [service.submit_nowait(
                    CheckRequest(commit_id=commit.id))
                    for commit in checkable_commits[:LIMIT]]
                results = await asyncio.gather(*tasks)
            finally:
                await service.drain()
            good_thread.join(timeout=10)
            return results, good_outcomes

        results, good_outcomes = asyncio.run(main())
        assert isinstance(outcomes[0], AuthError)
        assert [result.record for result in results] == \
            reference_records
        summary = good_outcomes[0]
        assert summary["assignments"] == LIMIT


class TestExternalWorkersServe:
    def test_two_connected_workers_drain_the_queue(
            self, small_corpus, checkable_commits, reference_records):
        events = EventLog()
        outcomes = []

        async def main():
            service = CheckService(
                small_corpus, config=_fleet_config(events))
            await service.start()
            host, port = service.transport.address()
            threads = [
                _client_thread(
                    WorkerClient(host, port, auth_key=AUTH_KEY,
                                 corpus=small_corpus,
                                 hard_exit=False),
                    outcomes)
                for _ in range(2)]
            try:
                tasks = [service.submit_nowait(
                    CheckRequest(commit_id=commit.id))
                    for commit in checkable_commits[:LIMIT]]
                results = await asyncio.gather(*tasks)
            finally:
                await service.drain()
            for thread in threads:
                thread.join(timeout=10)
            return service, results

        service, results = asyncio.run(main())
        assert [result.record for result in results] == \
            reference_records
        summaries = [outcome for outcome in outcomes
                     if isinstance(outcome, dict)]
        assert len(summaries) == 2
        # both slots were granted, and together they served everything
        assert sorted(summary["worker_id"]
                      for summary in summaries) == [0, 1]
        assert sum(summary["assignments"]
                   for summary in summaries) == LIMIT
        registered = events.events(EVENT_WORKER_REGISTERED)
        assert len(registered) == 2
        assert all(event.attrs["external"] for event in registered)


class TestCorpusDistribution:
    def test_worker_rebuilds_corpus_from_shipped_spec(
            self, small_corpus, checkable_commits, reference_records):
        """An external worker with no local corpus rebuilds it from
        the WELCOME's deterministic spec and still produces
        byte-identical verdicts."""
        events = EventLog()
        outcomes = []

        async def main():
            service = CheckService(
                small_corpus, config=_fleet_config(events, jobs=1))
            await service.start()
            host, port = service.transport.address()
            client = WorkerClient(host, port, auth_key=AUTH_KEY,
                                  hard_exit=False)  # corpus=None
            thread = _client_thread(client, outcomes)
            try:
                task = service.submit_nowait(
                    CheckRequest(commit_id=checkable_commits[0].id))
                result = await task
            finally:
                await service.drain()
            thread.join(timeout=30)
            return client, result

        client, result = asyncio.run(main())
        assert result.record == reference_records[0]
        # the rebuild converged on the coordinator's exact history
        assert client.corpus is not None
        assert client.corpus.repository.head().id == \
            small_corpus.repository.head().id

    def test_diverged_corpus_is_a_permanent_mismatch(
            self, small_corpus, midsize_corpus):
        events = EventLog()
        outcomes = []

        async def main():
            service = CheckService(
                small_corpus, config=_fleet_config(events, jobs=1))
            await service.start()
            host, port = service.transport.address()
            client = WorkerClient(
                host, port, auth_key=AUTH_KEY,
                corpus=midsize_corpus, hard_exit=False,
                reconnect=ReconnectPolicy(max_attempts=3))
            thread = _client_thread(client, outcomes)
            try:
                while not outcomes:
                    await asyncio.sleep(0.01)
            finally:
                await service.drain()
            thread.join(timeout=10)
            return client

        client = asyncio.run(main())
        assert isinstance(outcomes[0], CorpusMismatchError)
        assert client.assignments == 0


class TestEmptyFleetDegrades:
    def test_no_workers_ever_connect_inline_drain_finishes(
            self, small_corpus, checkable_commits, reference_records):
        """A fully partitioned fleet (nobody dials in) exhausts every
        slot's registration budget, opens every breaker, and the
        coordinator degrades to inline local execution — the run still
        completes byte-identically."""
        events = EventLog()
        supervisor = SupervisorConfig(hang_deadline_seconds=30.0,
                                      max_restarts_per_shard=1,
                                      backoff_base_seconds=0.01,
                                      backoff_max_seconds=0.02)
        config = _fleet_config(events, jobs=2,
                               hello_timeout_seconds=0.2,
                               supervisor=supervisor)
        service = CheckService(small_corpus, config=config)
        results = service.check_commits(
            [commit.id for commit in checkable_commits[:LIMIT]])
        assert [result.record for result in results] == \
            reference_records
        stats = service.stats()["supervisor"]
        assert stats["breakers_opened"] == 2
        assert sorted(stats["breaker_open_shards"]) == [0, 1]
        assert service.transport.inline_jobs == LIMIT


# -- network chaos over spawned socket workers -------------------------------

def run_chaos(corpus, commits, *, plan, supervisor=FAST_SUPERVISOR,
              jobs=2, **overrides):
    events = EventLog()
    config = ServiceConfig(transport="socket", jobs=jobs,
                           fault_plan=plan, events=events,
                           supervisor=supervisor, **overrides)
    service = CheckService(corpus, config=config)
    results = service.check_commits([commit.id for commit in commits])
    return service, events, results


class TestNetPartition:
    def test_partitioned_worker_rejoins_within_grace(
            self, small_corpus, checkable_commits, reference_records):
        """A severed connection with a live process is not a crash:
        the worker dials back inside the grace window, re-registers
        under a fresh lease epoch, and no restart budget is burned."""
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            plan=first_pickup_plan(KIND_NET_PARTITION),
            heartbeat_seconds=0.05, lease_seconds=1.0,
            reconnect_grace_seconds=5.0)
        assert [result.record for result in results] == \
            reference_records
        stats = service.stats()["supervisor"]
        assert stats["rejoins"] == 1
        assert stats["restarts"] == 0
        assert stats["requeued_jobs"] == 1
        assert stats["breaker_open_shards"] == []
        rejoined = events.events(EVENT_WORKER_REJOINED)[0]
        assert rejoined.attrs["worker"] == 0
        assert rejoined.attrs["lease"] >= 2  # epoch bumped on rejoin

    def test_partition_without_grace_is_a_crash(
            self, small_corpus, checkable_commits, reference_records):
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            plan=first_pickup_plan(KIND_NET_PARTITION))
        assert [result.record for result in results] == \
            reference_records
        stats = service.stats()["supervisor"]
        assert stats["rejoins"] == 0
        assert stats["crashes_detected"] == 1
        assert stats["restarts"] == 1


class TestNetSlow:
    def test_slow_link_survives_on_heartbeats(
            self, small_corpus, checkable_commits, reference_records):
        """The verdict arrives later than the lease length, but the
        worker keeps beating, so the sliding window never lapses —
        no hang, no requeue, no restart."""
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            plan=first_pickup_plan(KIND_NET_SLOW),
            heartbeat_seconds=0.05, lease_seconds=0.3)
        assert [result.record for result in results] == \
            reference_records
        stats = service.stats()["supervisor"]
        assert stats["crashes_detected"] == 0
        assert stats["hangs_detected"] == 0
        assert stats["requeued_jobs"] == 0
        assert stats["fenced_replies"] == 0


class TestNetHalfOpen:
    def test_half_open_link_dies_by_lease_expiry(
            self, small_corpus, checkable_commits, reference_records):
        """The socket stays established but the worker goes silent:
        only the lease catches it. The assignment is requeued and the
        run stays byte-identical."""
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            plan=first_pickup_plan(KIND_NET_HALF_OPEN),
            heartbeat_seconds=0.05, lease_seconds=0.5)
        assert [result.record for result in results] == \
            reference_records
        stats = service.stats()["supervisor"]
        assert stats["hangs_detected"] == 1
        assert stats["requeued_jobs"] == 1
        assert events.counts[EVENT_LEASE_EXPIRED] >= 1
        expired = events.events(EVENT_LEASE_EXPIRED)[0]
        assert expired.attrs["lease_seconds"] == 0.5


class TestPartitionStormDifferential:
    def test_storm_run_is_byte_identical_with_unique_journal_keys(
            self, tmp_path, small_corpus):
        """The ISSUE acceptance bar: a 30-commit run over socket
        workers under a seeded net_partition + worker_kill storm is
        byte-identical to the asyncio transport, with zero duplicate
        and zero lost verdicts in the journal."""
        limit = 30
        journal = str(tmp_path / "storm.jsonl")
        reference = EvaluationSession(small_corpus).run(limit=limit)
        config = ServiceConfig(
            transport="socket", jobs=2,
            fault_plan=transport_chaos_plan(
                "fleet-storm-1", kill_rate=0.15, partition_rate=0.25,
                times=3),
            supervisor=FAST_SUPERVISOR,
            heartbeat_seconds=0.05, lease_seconds=2.0,
            reconnect_grace_seconds=2.0)
        faulted = EvaluationSession(small_corpus).run(
            limit=limit, service=config, journal=journal)
        assert faulted.canonical_records() == \
            reference.canonical_records()

        from repro.journal.wal import Journal
        replay = Journal(journal).replay()
        keys = [entry["k"] for entry in replay.records
                if "k" in entry]
        # one journal entry per checkable commit (the eval window
        # contains a couple of ignored merges): zero lost, zero
        # duplicated, even though the storm requeued assignments
        assert len(keys) == len(faulted.patches)
        assert len(faulted.patches) == len(reference.patches)
        assert len(keys) == len(set(keys))
        assert replay.truncated_bytes == 0


# -- lease fencing (unit) ----------------------------------------------------

class _ScriptedChannel:
    """An async channel replaying a fixed message script."""

    def __init__(self, messages):
        self._messages = list(messages)

    async def recv_message(self):
        if not self._messages:
            return None
        return self._messages.pop(0)


class TestLeaseFencing:
    def _transport(self, small_corpus, events):
        config = ServiceConfig(transport="socket", jobs=1,
                               heartbeat_seconds=0.05,
                               lease_seconds=5.0, events=events)
        service = CheckService(small_corpus, config=config)
        # never started: no sockets, no processes, nothing to drain
        return create_transport(service, "socket")

    def test_stale_verdict_is_fenced_fresh_one_lands(self,
                                                     small_corpus):
        events = EventLog()
        transport = self._transport(small_corpus, events)
        slot = transport.slots[0]
        slot.lease_epoch = 3
        stale = {"seq": 1, "request_id": "r-1", "commit_id": "c-1",
                 "lease": 2}
        beat = {"worker_id": 0, "lease": 3}
        fresh = {"seq": 1, "request_id": "r-1", "commit_id": "c-1",
                 "lease": 3}
        slot.channel = _ScriptedChannel([
            (wire.MSG_VERDICT, stale),
            (wire.MSG_HEARTBEAT, beat),
            (wire.MSG_VERDICT, fresh)])

        async def main():
            return await transport._read_reply(slot, 1)

        msg_type, payload = asyncio.run(main())
        assert msg_type == wire.MSG_VERDICT
        assert payload["lease"] == 3
        assert transport.fenced_replies == 1
        assert slot.fenced == 1
        assert slot.last_heartbeat > 0  # the beat refreshed the lease
        fenced = events.events(EVENT_LEASE_FENCED)[0]
        assert fenced.attrs["stale_lease"] == 2
        assert fenced.attrs["lease"] == 3

    def test_stale_heartbeat_does_not_refresh(self, small_corpus):
        events = EventLog()
        transport = self._transport(small_corpus, events)
        slot = transport.slots[0]
        slot.lease_epoch = 3
        slot.channel = _ScriptedChannel([
            (wire.MSG_HEARTBEAT, {"worker_id": 0, "lease": 1}),
            (wire.MSG_VERDICT, {"seq": 4, "request_id": "r",
                                "commit_id": "c", "lease": 3})])

        async def main():
            return await transport._read_reply(slot, 4)

        asyncio.run(main())
        assert slot.last_heartbeat == 0.0

    def test_mismatched_seq_is_a_protocol_error(self, small_corpus):
        transport = self._transport(small_corpus, EventLog())
        slot = transport.slots[0]
        slot.channel = _ScriptedChannel([
            (wire.MSG_VERDICT, {"seq": 9, "request_id": "r",
                                "commit_id": "c", "lease": 0})])

        async def main():
            return await transport._read_reply(slot, 4)

        with pytest.raises(TransportError):
            asyncio.run(main())
