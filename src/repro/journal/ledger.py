"""The verdict ledger: dedup keys over the raw WAL.

A :class:`VerdictLedger` is what the evaluation runner and the check
service actually hold: an in-memory ``key -> record`` map backed by
the :class:`~repro.journal.wal.Journal`. Keys are dedup identities
(commit ids); :meth:`VerdictLedger.emit` appends exactly once per key,
which is what makes supervisor requeues and resumed runs unable to
double-emit a verdict. The WAL is the ledger's only on-disk format:
it holds one frame per key plus the meta frame, so recovery is one
replay.

A ``meta`` record (corpus identity, options fingerprint) guards
against resuming someone else's journal: :meth:`VerdictLedger.bind_meta`
refuses a mismatch with :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import os
import time

from repro.errors import JournalError
from repro.journal.wal import Journal, ReplayResult
from repro.obs.events import EVENT_JOURNAL_TRUNCATED, NULL_EVENTS
from repro.obs.logcfg import get_logger

_logger = get_logger("journal.ledger")


class VerdictLedger:
    """Durable, deduplicated ``key -> record`` storage for verdicts."""

    def __init__(self, path: str, *, fsync: bool = True,
                 injector=None, on_append=None,
                 fresh: bool = False, events=None) -> None:
        self.path = path
        self.journal = Journal(path, fsync=fsync, injector=injector)
        #: chaos observer, called after each durable *verdict* emit
        #: with the count of verdicts this process has emitted (meta
        #: and replayed records don't count — a kill offset of N means
        #: "die after N fresh verdicts")
        self.on_append = on_append
        #: verdicts emitted by this process
        self.emitted = 0
        self._records: dict[str, dict] = {}
        self.meta: dict | None = None
        #: records recovered from the WAL at open
        self.recovered = 0
        #: torn-tail bytes truncated at open
        self.truncated_bytes = 0
        #: structured-event log for durability transitions (torn-tail
        #: truncations)
        self.events = events if events is not None else NULL_EVENTS
        #: real seconds spent inside :meth:`emit` (encode + CRC +
        #: write + fsync) — the journal's whole warm-path cost,
        #: measured in-run so the overhead benchmark doesn't have to
        #: difference two noisy totals
        self.emit_seconds = 0.0
        if fresh:
            self._wipe()
        else:
            self._recover()

    # -- recovery --------------------------------------------------------------

    def _wipe(self) -> None:
        for stale in (self.path, self.path + ".ckpt"):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass

    def _recover(self) -> None:
        stale = self.path + ".ckpt"
        if os.path.exists(stale):
            # older builds compacted the WAL into this file; its records
            # and the meta frame may live only there, so replaying the
            # WAL alone would skip the meta guard and drop durable
            # verdicts
            raise JournalError(
                f"journal {self.path} has a checkpoint file {stale} "
                f"from an older build, which this build cannot read "
                f"(drop --resume to start over)")
        replay: ReplayResult = self.journal.replay()
        self.truncated_bytes = replay.truncated_bytes
        if self.truncated_bytes:
            self.events.emit(EVENT_JOURNAL_TRUNCATED, path=self.path,
                             truncated_bytes=self.truncated_bytes)
        for entry in replay.records:
            if "meta" in entry:
                if self.meta is None:
                    self.meta = entry["meta"]
                continue
            # dedup: first write wins (re-emitted keys are identical
            # by construction — verdicts are pure functions of the
            # commit — so which copy survives is immaterial)
            self._records.setdefault(entry["k"], entry["r"])
        self.recovered = len(self._records)
        if self.recovered:
            _logger.info(
                "journal %s: recovered %d verdict(s) "
                "(%d torn byte(s) truncated)",
                self.path, self.recovered, self.truncated_bytes)

    # -- meta guard ------------------------------------------------------------

    def bind_meta(self, meta: dict) -> None:
        """Bind (or verify) the run identity this journal belongs to."""
        if self.meta is not None:
            if self.meta != meta:
                raise JournalError(
                    f"journal {self.path} belongs to a different run: "
                    f"journal meta {self.meta!r} != current {meta!r} "
                    f"(use a fresh journal path, or drop --resume)")
            return
        self.meta = dict(meta)
        self.journal.append({"meta": self.meta})

    # -- the dedup surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> list[str]:
        """Every key with a durable verdict (insertion order)."""
        return list(self._records)

    def get(self, key: str) -> dict | None:
        """The durable record for one key (None when absent)."""
        return self._records.get(key)

    def emit(self, key: str, record: dict) -> bool:
        """Durably record one verdict exactly once.

        Returns True when the record was appended, False when the key
        was already present (the requeue/double-submit path) — the
        caller's record is then discarded in favor of the durable one.
        """
        if key in self._records:
            return False
        started = time.perf_counter()
        self.journal.append({"k": key, "r": record})
        self._records[key] = record
        self.emitted += 1
        self.emit_seconds += time.perf_counter() - started
        if self.on_append is not None:
            self.on_append(self.emitted)
        return True

    # -- durability ------------------------------------------------------------

    def checkpoint(self) -> None:
        """The durability barrier: fsync the open WAL handle once.

        Every verdict emitted so far is on disk when it returns, also
        under ``fsync=False``; with no handle open it does nothing.
        """
        self.journal.sync()

    def stats(self) -> dict:
        """Durability telemetry for ``--stats-out`` and tests."""
        return {
            "path": self.path,
            "records": len(self._records),
            "recovered": self.recovered,
            "emitted": self.emitted,
            "appended": self.journal.appended,
            "truncated_bytes": self.truncated_bytes,
            "wal_bytes": self.journal.size_bytes(),
            "emit_seconds": self.emit_seconds,
        }

    def close(self) -> None:
        """Sync (:meth:`checkpoint`) and close the journal handle."""
        self.checkpoint()
        self.journal.close()

    def __enter__(self) -> "VerdictLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
