"""VerdictLedger: dedup, compaction, recovery, meta guard."""

import json

import pytest

from repro.errors import JournalCorruptError, JournalError
from repro.journal.ledger import CHECKPOINT_VERSION, VerdictLedger


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

    def test_negative_checkpoint_interval_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            VerdictLedger(str(tmp_path / "l.jnl"),
                          checkpoint_interval=-1)


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
        with VerdictLedger(path, checkpoint_interval=2) as ledger:
            emit_n(ledger, 5)
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


class TestCheckpointing:
    def test_interval_compacts_the_wal(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path, checkpoint_interval=3) as ledger:
            emit_n(ledger, 7)
            assert ledger.checkpoints_written == 2
            # 7 emits, last checkpoint at #6: one frame left in the WAL
            stats = ledger.stats()
            assert stats["checkpoints_written"] == 2
        ckpt = json.loads((tmp_path / "l.jnl.ckpt").read_text())
        assert ckpt["version"] == CHECKPOINT_VERSION
        assert len(ckpt["records"]) == 6

    def test_recovery_merges_checkpoint_and_wal(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path, checkpoint_interval=3) as ledger:
            emit_n(ledger, 7)
        with VerdictLedger(path) as ledger:
            assert len(ledger) == 7
            assert ledger.keys() == [f"commit-{i}" for i in range(7)]

    def test_explicit_checkpoint_truncates_the_wal(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 4)
            assert ledger.stats()["wal_bytes"] > 0
            ledger.checkpoint()
            assert ledger.stats()["wal_bytes"] == 0
        with VerdictLedger(path) as ledger:
            assert len(ledger) == 4

    def test_crash_between_checkpoint_and_truncate_is_harmless(
            self, tmp_path):
        # simulate: checkpoint written, WAL truncation never happened
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path) as ledger:
            emit_n(ledger, 5)
            # write the checkpoint by hand, leave the WAL full
            ledger.journal.close()
            (tmp_path / "l.jnl.ckpt").write_text(json.dumps({
                "version": CHECKPOINT_VERSION, "meta": None,
                "records": [[k, ledger.get(k)] for k in ledger.keys()],
            }))
        with VerdictLedger(path) as ledger:
            # duplicates dedup on replay: still exactly 5
            assert len(ledger) == 5

    def test_corrupt_checkpoint_is_typed(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path, checkpoint_interval=1) as ledger:
            emit_n(ledger, 2)
        (tmp_path / "l.jnl.ckpt").write_text("{not json")
        with pytest.raises(JournalCorruptError):
            VerdictLedger(path)

    def test_future_checkpoint_version_is_refused(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        (tmp_path / "l.jnl.ckpt").write_text(json.dumps(
            {"version": CHECKPOINT_VERSION + 1, "records": []}))
        with pytest.raises(JournalCorruptError):
            VerdictLedger(path)


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

    def test_meta_survives_checkpoint_compaction(self, tmp_path):
        path = str(tmp_path / "l.jnl")
        with VerdictLedger(path, checkpoint_interval=2) as ledger:
            ledger.bind_meta(self.META)
            emit_n(ledger, 4)
        with VerdictLedger(path) as ledger:
            assert ledger.meta == self.META
            assert len(ledger) == 4
