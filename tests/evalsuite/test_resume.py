"""Kill/resume equivalence: the PR-5 acceptance surface.

INVARIANT (DESIGN.md §7): for any corpus window, any driver
(sequential, ``jobs=N``, service), cache on or off, fault storm or
clean — a run killed at any journal offset and resumed to completion
produces ``canonical_records()`` byte-identical to the uninterrupted
run. Verdicts are pure functions of (corpus, commit), the journal
codec round-trips them exactly, and the ledger's dedup keys make
re-emission impossible; this suite is what pins all three.
"""

import pytest

from repro.errors import (
    EvaluationError,
    JournalError,
    SimulatedCrashError,
)
from repro.evalsuite.runner import EvaluationSession
from repro.faults.chaos import CrashPoint, crash_offsets

LIMIT = 30
#: distinct seeded kill offsets per scenario (acceptance floor: 3)
KILLS = 3


@pytest.fixture(scope="module")
def baseline(small_corpus):
    """The uninterrupted, unjournaled reference run."""
    return EvaluationSession(small_corpus).run(limit=LIMIT)


@pytest.fixture(scope="module")
def faulted_baseline(small_corpus, storm_plan):
    return EvaluationSession(small_corpus,
                             fault_plan=storm_plan).run(limit=LIMIT)


def kill_resume_run(corpus, journal, *, offsets, session_kwargs=None,
                    run_kwargs=None):
    """Kill the run after each offset's fresh verdict, resuming every
    time; returns the final completed result.

    ``offsets`` are absolute journal positions (sorted); each phase
    gets a CrashPoint armed for the *delta* of fresh verdicts it will
    emit before dying. Every phase is a brand-new session (fresh
    private cache, fresh injectors) — exactly what a process restart
    looks like.
    """
    session_kwargs = session_kwargs or {}
    run_kwargs = run_kwargs or {}
    previous = 0
    resume = False
    for offset in offsets:
        point = CrashPoint(offset - previous)
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(corpus, **session_kwargs).run(
                limit=LIMIT, journal=journal, resume=resume,
                on_journal_append=point, **run_kwargs)
        previous = offset
        resume = True
    return EvaluationSession(corpus, **session_kwargs).run(
        limit=LIMIT, journal=journal, resume=True, **run_kwargs)


class TestUninterruptedJournaledRun:
    def test_journaling_does_not_change_the_records(self, small_corpus,
                                                    baseline, tmp_path):
        result = EvaluationSession(small_corpus).run(
            limit=LIMIT, journal=str(tmp_path / "run.jnl"))
        assert result.canonical_records() == \
            baseline.canonical_records()
        stats = result.journal_stats
        assert stats["emitted"] == len(result.patches)
        assert stats["resumed"] == 0

    def test_journal_stats_absent_without_a_journal(self, baseline):
        assert baseline.journal_stats is None


class TestSequentialKillResume:
    def test_three_seeded_kill_offsets_are_byte_identical(
            self, small_corpus, baseline, tmp_path):
        total = len(baseline.patches)
        offsets = crash_offsets("resume-seq", total, KILLS)
        assert len(offsets) == KILLS
        result = kill_resume_run(small_corpus,
                                 str(tmp_path / "run.jnl"),
                                 offsets=offsets)
        assert result.canonical_records() == \
            baseline.canonical_records()
        # the final phase replayed everything the kills made durable
        assert result.journal_stats["resumed"] == offsets[-1]
        assert result.journal_stats["emitted"] == total - offsets[-1]

    def test_cache_off_is_byte_identical(self, small_corpus, baseline,
                                         tmp_path):
        total = len(baseline.patches)
        offsets = crash_offsets("resume-nocache", total, 2)
        result = kill_resume_run(small_corpus,
                                 str(tmp_path / "run.jnl"),
                                 offsets=offsets,
                                 session_kwargs={"cache": False})
        assert result.canonical_records() == \
            baseline.canonical_records()


class TestServiceKillResume:
    def test_service_driver_is_byte_identical(self, small_corpus,
                                              baseline, tmp_path):
        total = len(baseline.patches)
        offsets = crash_offsets("resume-svc", total, KILLS)
        result = kill_resume_run(small_corpus,
                                 str(tmp_path / "run.jnl"),
                                 offsets=offsets,
                                 run_kwargs={"service": True})
        assert result.canonical_records() == \
            baseline.canonical_records()

    def test_drivers_can_change_between_kill_and_resume(
            self, small_corpus, baseline, tmp_path):
        # die under the service driver, finish sequentially: the
        # journal is driver-agnostic
        total = len(baseline.patches)
        offset = crash_offsets("resume-mixed", total, 1)[0]
        journal = str(tmp_path / "run.jnl")
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=journal, service=True,
                on_journal_append=CrashPoint(offset))
        result = EvaluationSession(small_corpus).run(
            limit=LIMIT, journal=journal, resume=True)
        assert result.canonical_records() == \
            baseline.canonical_records()


class TestParallelKillResume:
    def test_jobs_driver_is_byte_identical(self, small_corpus,
                                           baseline, tmp_path):
        total = len(baseline.patches)
        offsets = crash_offsets("resume-jobs", total, 2)
        result = kill_resume_run(small_corpus,
                                 str(tmp_path / "run.jnl"),
                                 offsets=offsets,
                                 run_kwargs={"jobs": 2})
        assert result.canonical_records() == \
            baseline.canonical_records()


class TestFaultStormKillResume:
    def test_storm_is_byte_identical(self, small_corpus, storm_plan,
                                     faulted_baseline, tmp_path):
        total = len(faulted_baseline.patches)
        offsets = crash_offsets("resume-storm", total, KILLS)
        result = kill_resume_run(
            small_corpus, str(tmp_path / "run.jnl"),
            offsets=offsets,
            session_kwargs={"fault_plan": storm_plan})
        assert result.canonical_records() == \
            faulted_baseline.canonical_records()

    def test_storm_under_service_is_byte_identical(
            self, small_corpus, storm_plan, faulted_baseline,
            tmp_path):
        total = len(faulted_baseline.patches)
        offsets = crash_offsets("resume-storm-svc", total, 2)
        result = kill_resume_run(
            small_corpus, str(tmp_path / "run.jnl"),
            offsets=offsets,
            session_kwargs={"fault_plan": storm_plan},
            run_kwargs={"service": True})
        assert result.canonical_records() == \
            faulted_baseline.canonical_records()


class TestTornTailResume:
    def test_torn_final_record_is_truncated_and_rerun(
            self, small_corpus, baseline, tmp_path):
        total = len(baseline.patches)
        offset = crash_offsets("resume-torn", total, 1)[0]
        journal = tmp_path / "run.jnl"
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=str(journal),
                on_journal_append=CrashPoint(offset))
        # the crash also tore the last frame mid-write
        journal.write_bytes(journal.read_bytes()[:-5])
        result = EvaluationSession(small_corpus).run(
            limit=LIMIT, journal=str(journal), resume=True)
        stats = result.journal_stats
        assert stats["truncated_bytes"] > 0
        # one verdict fewer survived; it was simply rerun
        assert stats["resumed"] == offset - 1
        assert result.canonical_records() == \
            baseline.canonical_records()


class TestGuards:
    def test_resume_requires_a_journal(self, small_corpus):
        with pytest.raises(EvaluationError):
            EvaluationSession(small_corpus).run(limit=LIMIT,
                                                resume=True)

    def test_resume_refuses_a_different_runs_journal(self, small_corpus,
                                                     tmp_path):
        journal = str(tmp_path / "run.jnl")
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=journal,
                use_ground_truth_janitors=True,
                on_journal_append=CrashPoint(1))
        with pytest.raises(JournalError):
            EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=journal, resume=True,
                use_ground_truth_janitors=False)

    def test_without_resume_a_stale_journal_is_wiped(self, small_corpus,
                                                     baseline, tmp_path):
        journal = str(tmp_path / "run.jnl")
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=LIMIT, journal=journal,
                on_journal_append=CrashPoint(3))
        result = EvaluationSession(small_corpus).run(
            limit=LIMIT, journal=journal)  # resume=False: start over
        assert result.journal_stats["resumed"] == 0
        assert result.journal_stats["emitted"] == \
            len(result.patches)
        assert result.canonical_records() == \
            baseline.canonical_records()
