"""VerdictLedger: dedup, recovery, the one on-disk format, meta guard."""

import os

import pytest

from repro.errors import JournalError, SimulatedCrashError
from repro.evalsuite.runner import EvaluationSession
from repro.faults.chaos import CrashPoint
from repro.journal.ledger import VerdictLedger
from repro.journal.wal import Journal


def emit_n(ledger, count, start=0):
    for index in range(start, start + count):
        ledger.emit(f"commit-{index}", {"verdict": "CERTIFIED",
                                        "n": index})


class TestEmitDedup:
    def test_emit_appends_and_returns_true(self, tmp_path):
        with VerdictLedger(str(tmp_path / "l.jnl")) as ledger:
            assert ledger.emit("c1", {"x": 1}) is True
            assert ledger.emitted == 1
            assert "c1" in ledger
            assert ledger.get("c1") == {"x": 1}

    def test_duplicate_key_is_refused(self, tmp_path):
        with VerdictLedger(str(tmp_path / "l.jnl")) as ledger:
            ledger.emit("c1", {"x": 1})
            assert ledger.emit("c1", {"x": 2}) is False
            # the durable first write wins
            assert ledger.get("c1") == {"x": 1}
            assert ledger.emitted == 1
            assert ledger.journal.appended == 1

    def test_keys_preserve_insertion_order(self, tmp_path):
        with VerdictLedger(str(tmp_path / "l.jnl")) as ledger:
            emit_n(ledger, 4)
            assert ledger.keys() == [f"commit-{i}" for i in range(4)]

    def test_observer_counts_fresh_verdicts_only(self, tmp_path):
        seen = []
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 3)
        with VerdictLedger(path, on_append=seen.append) as ledger:
            assert ledger.recovered == 3
            ledger.emit("commit-0", {"dup": True})   # deduped: no call
            emit_n(ledger, 2, start=3)
        assert seen == [1, 2]


class TestRecovery:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 7)
        with VerdictLedger(path) as ledger:
            assert len(ledger) == 7
            assert ledger.recovered == 7
            assert ledger.emitted == 0
            assert ledger.get("commit-3") == {"verdict": "CERTIFIED",
                                              "n": 3}

    def test_fresh_wipes_the_previous_run(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 5)
        (tmp_path / "l.jnl.ckpt").write_text('{"version": 1}')
        with VerdictLedger(path, fresh=True) as ledger:
            assert len(ledger) == 0
            assert ledger.recovered == 0
        assert not (tmp_path / "l.jnl.ckpt").exists()

    def test_resume_continues_after_recovered_keys(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 3)
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 6)  # commit-0..2 dedup, commit-3..5 fresh
            assert ledger.emitted == 3
        with VerdictLedger(path) as ledger:
            assert len(ledger) == 6


class TestMetaGuard:
    META = {"corpus_seed": "s1", "eval_commits": 40}

    def test_meta_survives_recovery(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            ledger.bind_meta(self.META)
        with VerdictLedger(path) as ledger:
            assert ledger.meta == self.META
            ledger.bind_meta(self.META)  # idempotent, no new append
            assert ledger.journal.appended == 0

    def test_mismatched_meta_is_refused(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            ledger.bind_meta(self.META)
        with VerdictLedger(path) as ledger:
            with pytest.raises(JournalError) as excinfo:
                ledger.bind_meta({"corpus_seed": "other",
                                  "eval_commits": 40})
            assert "different run" in str(excinfo.value)


def frames_by_key(path):
    """(keys of the WAL's verdict frames in order, its meta frame count)."""
    records = Journal(str(path)).replay().records
    keys = [entry["k"] for entry in records if "k" in entry]
    return keys, sum(1 for entry in records if "meta" in entry)


#: a short window keeps the run-level tests quick
RUN_LIMIT = 8


class TestOneFramePerKey:
    """The WAL is the only format: one frame per key, one meta frame."""

    def test_dedup_reopen_and_torn_tail_leave_one_frame_per_key(
            self, tmp_path):
        path = tmp_path / "l.jnl"
        with VerdictLedger(str(path)) as ledger:
            ledger.bind_meta(TestMetaGuard.META)
            emit_n(ledger, 4)
            assert ledger.emit("commit-2", {"again": True}) is False
        with VerdictLedger(str(path)) as ledger:
            ledger.bind_meta(TestMetaGuard.META)
            emit_n(ledger, 4, start=2)  # commit-2, -3 overlap
        path.write_bytes(path.read_bytes()[:-5])  # tear commit-5
        with VerdictLedger(str(path)) as ledger:
            assert ledger.truncated_bytes > 0
            ledger.bind_meta(TestMetaGuard.META)
            emit_n(ledger, 7)
        keys, metas = frames_by_key(path)
        assert keys == [f"commit-{index}" for index in range(7)]
        assert metas == 1

    def test_killed_and_resumed_run_leaves_one_frame_per_key(
            self, small_corpus, tmp_path):
        journal = tmp_path / "run.jnl"
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=RUN_LIMIT, journal=str(journal),
                on_journal_append=CrashPoint(3))
        result = EvaluationSession(small_corpus).run(
            limit=RUN_LIMIT, journal=str(journal), resume=True)
        assert result.journal_stats["resumed"] == 3
        keys, metas = frames_by_key(journal)
        assert sorted(keys) == sorted(record.commit_id
                                      for record in result.patches)
        assert len(keys) == len(set(keys))
        assert metas == 1


class TestStaleCheckpoint:
    """A ``.ckpt`` left by an older build's compaction is refused."""

    def leave_checkpoint(self, tmp_path, name):
        stale = tmp_path / f"{name}.ckpt"
        stale.write_text('{"version": 1, "meta": null, "records": []}')
        return stale

    def test_ledger_refuses_it_by_name(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 2)
        stale = self.leave_checkpoint(tmp_path, "l.jnl")
        with pytest.raises(JournalError) as excinfo:
            VerdictLedger(path)
        assert str(stale) in str(excinfo.value)
        with VerdictLedger(path, fresh=True) as ledger:
            assert len(ledger) == 0
        assert not stale.exists()

    def test_resumed_run_refuses_it_and_a_fresh_run_removes_it(
            self, small_corpus, tmp_path):
        journal = str(tmp_path / "run.jnl")
        with pytest.raises(SimulatedCrashError):
            EvaluationSession(small_corpus).run(
                limit=RUN_LIMIT, journal=journal,
                on_journal_append=CrashPoint(2))
        stale = self.leave_checkpoint(tmp_path, "run.jnl")
        with pytest.raises(JournalError) as excinfo:
            EvaluationSession(small_corpus).run(
                limit=RUN_LIMIT, journal=journal, resume=True)
        assert str(stale) in str(excinfo.value)
        result = EvaluationSession(small_corpus).run(
            limit=RUN_LIMIT, journal=journal)
        assert result.journal_stats["resumed"] == 0
        assert not stale.exists()


class TestDurabilityBarrier:
    def test_checkpoint_rewrites_nothing(self, tmp_path):
        path = tmp_path / "l.jnl"
        with VerdictLedger(str(path)) as ledger:
            emit_n(ledger, 4)
            before = path.read_bytes()
            ledger.checkpoint()
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["l.jnl"]
        with VerdictLedger(str(path)) as ledger:
            assert len(ledger) == 4

    def test_close_syncs_an_unsynced_ledger_once(self, tmp_path,
                                                 monkeypatch):
        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or fsync(fd))
        ledger = VerdictLedger(str(tmp_path / "l.jnl"), fsync=False,
                               fresh=True)
        emit_n(ledger, 3)
        assert synced == []
        ledger.close()
        assert len(synced) == 1
        ledger.checkpoint()  # no handle open: nothing to sync
        assert len(synced) == 1
