"""Transport chaos: dead children, dropped sockets, hung workers.

Supervision must be transport-uniform — a killed worker process or a
severed connection is detected, the claimed assignment is requeued
idempotently, the worker restarts under the backoff budget, and the
verdict-bearing records stay byte-identical to an undisturbed run.
Chaos decisions are drawn on the coordinator (keyed by worker slot and
lifetime pickup sequence) and executed in the child for real:
``os._exit``, a closed socket, a parked process.

The journal tests close the loop the paper cares about: kill-and-
resume under every transport yields exactly one durable verdict per
commit — crash recovery plus requeue never duplicates or loses one.
"""

import gc
import warnings

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.faults.chaos import transport_chaos_plan
from repro.faults.plan import (
    KIND_SOCKET_DROP,
    KIND_WORKER_HANG,
    KIND_WORKER_KILL,
    FaultPlan,
    FaultSpec,
)
from repro.obs.events import (
    EVENT_SHARD_CRASH,
    EVENT_SHARD_HANG,
    EVENT_SHARD_RESTART,
    EVENT_WORKER_EXIT,
    EVENT_WORKER_REQUEUE,
    EVENT_WORKER_SPAWNED,
    EventLog,
)
from repro.service.service import CheckService, ServiceConfig
from repro.service.transport.remote import SupervisorConfig

LIMIT = 3

#: fast supervisor tunables for hang tests: a parked worker is real
#: wall-clock, so the deadline must be short but dominate a legitimate
#: (fast, simulated) check
FAST_SUPERVISOR = SupervisorConfig(hang_deadline_seconds=3.0,
                                   backoff_base_seconds=0.01,
                                   backoff_max_seconds=0.05)


def first_pickup_plan(kind: str) -> FaultPlan:
    """Fault exactly worker 0's first lifetime pickup with ``kind``."""
    return FaultPlan(seed="chaos-transport",
                     specs=[FaultSpec(kind=kind, arch="worker-0",
                                      path="pickup-1")])


@pytest.fixture(scope="module")
def clean_records(small_corpus, checkable_commits):
    service = CheckService(small_corpus)
    results = service.check_commits(
        [commit.id for commit in checkable_commits[:LIMIT]])
    return [result.record for result in results]


def run_chaos(corpus, commits, *, transport, plan,
              supervisor=None, jobs=2):
    events = EventLog()
    config = ServiceConfig(transport=transport, jobs=jobs,
                           fault_plan=plan, events=events,
                           supervisor=supervisor)
    service = CheckService(corpus, config=config)
    results = service.check_commits([commit.id for commit in commits])
    return service, events, results


class TestWorkerKill:
    @pytest.mark.parametrize("transport", ["socket"])
    def test_kill_requeues_without_losing_verdicts(
            self, small_corpus, checkable_commits, clean_records,
            transport):
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            transport=transport,
            plan=first_pickup_plan(KIND_WORKER_KILL))
        # no verdict lost, none duplicated, none changed
        assert [result.record for result in results] == clean_records
        assert len({result.request_id for result in results}) == LIMIT
        stats = service.stats()["supervisor"]
        assert stats["crashes_detected"] == 1
        assert stats["requeued_jobs"] == 1
        assert stats["restarts"] == 1
        assert stats["breaker_open_shards"] == []
        assert events.counts[EVENT_SHARD_CRASH] == 1
        assert events.counts[EVENT_WORKER_REQUEUE] == 1
        # initial spawns + one restart respawn
        assert events.counts[EVENT_WORKER_SPAWNED] == 2 + 1
        requeue = events.events(EVENT_WORKER_REQUEUE)[0]
        assert requeue.attrs["cause"] == "crash"
        assert requeue.attrs["worker"] == 0
        # the crash is narrated, then the restart of the same worker
        crash = events.events(EVENT_SHARD_CRASH)[0]
        restarts = events.events(EVENT_SHARD_RESTART)
        assert len(restarts) == 1
        assert restarts[0].attrs["shard"] == crash.attrs["shard"]
        assert crash.seq < restarts[0].seq

    def test_pickup_counter_survives_restart(self, small_corpus,
                                             checkable_commits,
                                             clean_records):
        """A respawned process must not re-draw its predecessor's
        faults: pickups are slot-lifetime-monotone, so a plan aimed at
        pickup-1 fires exactly once even though the slot restarts."""
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            transport="socket", jobs=1,
            plan=first_pickup_plan(KIND_WORKER_KILL))
        assert [result.record for result in results] == clean_records
        assert service.stats()["supervisor"]["crashes_detected"] == 1
        slot = service.stats()["shards"][0]
        # LIMIT successful pickups + the killed one
        assert slot["pickups"] == LIMIT + 1
        assert slot["restarts"] == 1


class TestSocketDrop:
    def test_dropped_connection_is_a_crash(self, small_corpus,
                                           checkable_commits,
                                           clean_records):
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            transport="socket",
            plan=first_pickup_plan(KIND_SOCKET_DROP))
        assert [result.record for result in results] == clean_records
        stats = service.stats()["supervisor"]
        assert stats["crashes_detected"] == 1
        assert stats["requeued_jobs"] == 1
        assert events.counts[EVENT_SHARD_CRASH] == 1


class TestWorkerHang:
    @pytest.mark.parametrize("transport", ["socket"])
    def test_hung_worker_is_reaped_and_requeued(
            self, small_corpus, checkable_commits, clean_records,
            transport):
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            transport=transport,
            plan=first_pickup_plan(KIND_WORKER_HANG),
            supervisor=FAST_SUPERVISOR)
        assert [result.record for result in results] == clean_records
        stats = service.stats()["supervisor"]
        assert stats["hangs_detected"] == 1
        assert stats["requeued_jobs"] == 1
        assert events.counts[EVENT_SHARD_HANG] == 1
        hang = events.events(EVENT_SHARD_HANG)[0]
        assert hang.attrs["deadline_seconds"] == \
            FAST_SUPERVISOR.hang_deadline_seconds


class TestBreakerExhaustion:
    def test_all_breakers_open_degrades_to_inline_drain(
            self, small_corpus, checkable_commits, clean_records):
        """Killing every pickup exhausts every slot's restart budget;
        the coordinator's inline drain loop still finishes the run
        with byte-identical verdicts."""
        plan = FaultPlan(seed="chaos-storm",
                         specs=[FaultSpec(kind=KIND_WORKER_KILL)])
        supervisor = SupervisorConfig(hang_deadline_seconds=30.0,
                                      max_restarts_per_shard=1,
                                      backoff_base_seconds=0.01,
                                      backoff_max_seconds=0.02)
        service, events, results = run_chaos(
            small_corpus, checkable_commits[:LIMIT],
            transport="socket", jobs=2, plan=plan,
            supervisor=supervisor)
        assert [result.record for result in results] == clean_records
        stats = service.stats()["supervisor"]
        assert stats["breakers_opened"] == 2
        assert sorted(stats["breaker_open_shards"]) == [0, 1]
        health = service.health()
        assert health["status"] == "down"  # drained by check_commits
        transport = service.transport
        assert transport.inline_jobs == LIMIT


class TestRateBasedStorm:
    def test_seeded_storm_is_deterministic_and_identical(
            self, small_corpus, checkable_commits, clean_records):
        """A rate-based storm (some pickups die, drawn from the plan
        seed) perturbs scheduling only: records match the clean run,
        and rerunning the same seed reproduces the same crash count."""
        plan = transport_chaos_plan("storm-7", kill_rate=0.4, times=4)
        outcomes = []
        for _ in range(2):
            service, _, results = run_chaos(
                small_corpus, checkable_commits[:LIMIT],
                transport="socket", jobs=2, plan=plan)
            assert [result.record for result in results] == \
                clean_records
            outcomes.append(
                service.stats()["supervisor"]["crashes_detected"])
        assert outcomes[0] == outcomes[1]


class TestJournalDedup:
    @pytest.mark.parametrize("transport", ["socket"])
    def test_kill_and_resume_keeps_dedup_keys_unique(
            self, tmp_path, small_corpus, transport):
        """Chaos kills + journal resume never duplicate or lose a
        verdict: after a faulted run and a resumed run, the journal
        holds exactly one record per commit under its dedup key, and
        the final records match an undisturbed sequential run."""
        journal = str(tmp_path / f"verdicts-{transport}.jsonl")
        reference = EvaluationSession(small_corpus).run(limit=LIMIT)
        config = ServiceConfig(
            transport=transport, jobs=2,
            fault_plan=first_pickup_plan(KIND_WORKER_KILL))
        faulted = EvaluationSession(small_corpus).run(
            limit=LIMIT, service=config, journal=journal)
        assert faulted.canonical_records() == \
            reference.canonical_records()
        assert faulted.service_stats["supervisor"][
            "crashes_detected"] == 1

        # every verdict journaled exactly once, keyed by commit: the
        # raw WAL frames are read back, so a duplicate append (requeue
        # racing a verdict) would be visible even though the ledger's
        # dedup map would mask it
        from repro.journal.wal import Journal
        replay = Journal(journal).replay()
        keys = [entry["k"] for entry in replay.records
                if "k" in entry]
        assert len(keys) == LIMIT
        assert len(keys) == len(set(keys))
        assert replay.truncated_bytes == 0

        # resume replays everything; nothing reruns, bytes unchanged
        resumed = EvaluationSession(small_corpus).run(
            limit=LIMIT, service=ServiceConfig(transport=transport,
                                               jobs=2),
            journal=journal, resume=True)
        assert resumed.canonical_records() == \
            reference.canonical_records()
        assert resumed.journal_stats["resumed"] == len(keys)

    def test_resume_with_nothing_left_closes_every_stream(
            self, tmp_path, small_corpus):
        """A resumed socket run with every verdict journaled drains
        while its workers are still dialing in. Each worker's accepted
        stream must still get SHUTDOWN and be closed: none may be left
        to the garbage collector, and no worker may sit out the
        graceful-join timeout waiting for work."""
        journal = str(tmp_path / "verdicts-resume.jsonl")
        EvaluationSession(small_corpus).run(
            limit=LIMIT, service=ServiceConfig(transport="socket", jobs=2),
            journal=journal)
        gc.collect()
        events = EventLog()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            resumed = EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=journal, resume=True,
                service=ServiceConfig(transport="socket", jobs=2,
                                      events=events))
            gc.collect()
        assert resumed.journal_stats["resumed"] == LIMIT
        leaks = [str(warning.message) for warning in caught
                 if issubclass(warning.category, ResourceWarning)]
        assert leaks == []
        # each worker exited on its SHUTDOWN, none was killed
        exits = events.events(EVENT_WORKER_EXIT)
        assert [event.attrs["exitcode"] for event in exits] == [0, 0]

    def test_jobs_run_is_supervised_and_deduplicated(self, tmp_path,
                                                     small_corpus):
        """``run(jobs=2)`` checks on the socket transport's supervised
        workers. The plan kills every slot's first pickup, so at least
        one worker dies whichever slot starts first; its commits are
        requeued, the records match the sequential run, and the WAL
        holds one verdict per commit."""
        plan = FaultPlan(seed="chaos-transport",
                         specs=[FaultSpec(kind=KIND_WORKER_KILL,
                                          path="pickup-1")])
        journal = str(tmp_path / "verdicts-jobs.jsonl")
        reference = EvaluationSession(small_corpus,
                                      fault_plan=plan).run(limit=LIMIT)
        faulted = EvaluationSession(small_corpus, fault_plan=plan).run(
            limit=LIMIT, jobs=2, journal=journal)
        assert faulted.canonical_records() == \
            reference.canonical_records()
        assert faulted.service_stats["transport"]["kind"] == "socket"
        supervisor = faulted.service_stats["supervisor"]
        assert supervisor["crashes_detected"] == \
            supervisor["restarts"] >= 1

        from repro.journal.wal import Journal
        replay = Journal(journal).replay()
        keys = [entry["k"] for entry in replay.records
                if "k" in entry]
        assert len(keys) == LIMIT
        assert len(keys) == len(set(keys))
