"""The verdict ledger: dedup keys + compaction over the raw WAL.

A :class:`VerdictLedger` is what the evaluation runner and the check
service actually hold: an in-memory ``key -> record`` map backed by
the :class:`~repro.journal.wal.Journal`. Keys are dedup identities
(commit ids); :meth:`VerdictLedger.emit` appends exactly once per key,
which is what makes supervisor requeues and resumed runs unable to
double-emit a verdict.

Compaction: every ``checkpoint_interval`` appended records the ledger
writes a compacted checkpoint — the whole map as one crash-atomic JSON
file next to the WAL (``<path>.ckpt``) — then truncates the WAL.
Recovery loads the checkpoint first, replays the WAL on top, and
dedups by key, so a crash *between* the checkpoint write and the WAL
truncation only leaves harmless duplicates.

A ``meta`` record (corpus identity, options fingerprint) guards
against resuming someone else's journal: :meth:`VerdictLedger.bind_meta`
refuses a mismatch with :class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import JournalCorruptError, JournalError
from repro.journal.wal import Journal, ReplayResult
from repro.obs.events import (
    EVENT_JOURNAL_CHECKPOINT,
    EVENT_JOURNAL_TRUNCATED,
    NULL_EVENTS,
)
from repro.obs.logcfg import get_logger
from repro.util.atomicio import atomic_write_json

_logger = get_logger("journal.ledger")

CHECKPOINT_VERSION = 1


class VerdictLedger:
    """Durable, deduplicated ``key -> record`` storage for verdicts."""

    def __init__(self, path: str, *, fsync: bool = True,
                 checkpoint_interval: int = 0,
                 injector=None, on_append=None,
                 fresh: bool = False, events=None) -> None:
        if checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval cannot be negative, "
                f"got {checkpoint_interval!r}")
        self.path = path
        self.checkpoint_path = path + ".ckpt"
        self.checkpoint_interval = checkpoint_interval
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
        #: records recovered from disk at open (checkpoint + WAL)
        self.recovered = 0
        #: torn-tail bytes truncated at open
        self.truncated_bytes = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0
        #: structured-event log for durability transitions (torn-tail
        #: truncations, checkpoints)
        self.events = events if events is not None else NULL_EVENTS
        #: real seconds spent inside :meth:`emit` (encode + CRC +
        #: write + fsync + any triggered checkpoint) — the journal's
        #: whole warm-path cost, measured in-run so the overhead
        #: benchmark doesn't have to difference two noisy totals
        self.emit_seconds = 0.0
        if fresh:
            self._wipe()
        else:
            self._recover()

    # -- recovery --------------------------------------------------------------

    def _wipe(self) -> None:
        for stale in (self.path, self.checkpoint_path):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass

    def _load_checkpoint(self) -> None:
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError) as error:
            # checkpoints are written atomically; an unreadable one is
            # corruption at rest, and dropping it would silently forget
            # durable verdicts
            raise JournalCorruptError(
                f"unreadable journal checkpoint "
                f"{self.checkpoint_path}: {error}",
                path=self.checkpoint_path) from error
        if not isinstance(payload, dict) or \
                payload.get("version") != CHECKPOINT_VERSION:
            raise JournalCorruptError(
                f"journal checkpoint {self.checkpoint_path} has "
                f"unsupported version "
                f"{payload.get('version') if isinstance(payload, dict) else None!r}",
                path=self.checkpoint_path)
        self.meta = payload.get("meta")
        for key, record in payload.get("records", []):
            self._records[key] = record

    def _recover(self) -> None:
        self._load_checkpoint()
        from_checkpoint = len(self._records)
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
                "(%d from checkpoint, %d torn byte(s) truncated)",
                self.path, self.recovered, from_checkpoint,
                self.truncated_bytes)

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
        self._since_checkpoint += 1
        if self.checkpoint_interval and \
                self._since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()
        self.emit_seconds += time.perf_counter() - started
        if self.on_append is not None:
            self.on_append(self.emitted)
        return True

    # -- compaction ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Write the compacted map atomically, then truncate the WAL.

        Written without indentation: ``indent=None`` keeps ``json`` on
        its C encoder, and the map grows with every verdict.
        """
        atomic_write_json(self.checkpoint_path, {
            "version": CHECKPOINT_VERSION,
            "meta": self.meta,
            "records": [[key, record]
                        for key, record in self._records.items()],
        }, indent=None)
        self.journal.truncate_all()
        self.checkpoints_written += 1
        self._since_checkpoint = 0
        self.events.emit(EVENT_JOURNAL_CHECKPOINT, path=self.path,
                         checkpoint=self.checkpoints_written,
                         records=len(self._records))
        _logger.debug("journal %s: checkpoint #%d (%d record(s))",
                      self.path, self.checkpoints_written,
                      len(self._records))

    def stats(self) -> dict:
        """Durability telemetry for ``--stats-out`` and tests."""
        return {
            "path": self.path,
            "records": len(self._records),
            "recovered": self.recovered,
            "emitted": self.emitted,
            "appended": self.journal.appended,
            "truncated_bytes": self.truncated_bytes,
            "checkpoints_written": self.checkpoints_written,
            "wal_bytes": self.journal.size_bytes(),
            "emit_seconds": self.emit_seconds,
        }

    def close(self) -> None:
        """Close the underlying journal handle."""
        self.journal.close()

    def __enter__(self) -> "VerdictLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
