"""The persistent, queryable verdict store (fleet mode's memory).

A :class:`VerdictStore` is an SQLite database of every verdict a fleet
has computed. Records are migrated to the current ``schema_version`` on
the way in, shredded into per-(commit, file, arch, config) rows, and
kept whole as sorted-key canonical JSON, so a store answers both "was
this commit checked" and "show me every mips verdict for this file"
without any preprocess or compile work.

The journal is the store's write-ahead log: a verdict is *durable* once
the :class:`~repro.journal.ledger.VerdictLedger` holds it, and
*queryable* once :meth:`VerdictStore.ingest_ledger` replays it here, one
SQLite transaction per batch. The store can be deleted and rebuilt from
the journal at any time, and a crash between the two loses nothing —
re-ingest is idempotent because the store dedups on the same commit key
the ledger does, which is what makes kill-and-resume of ``jmake watch``
byte-identical to an uninterrupted run (:meth:`VerdictStore.canonical_dump`
is the proof format CI diffs). Both sides bind the same run identity,
so a store never swallows a journal from a different corpus or option
set.
"""

from __future__ import annotations

import dataclasses
import os
import sqlite3
from dataclasses import dataclass

from repro.core.report import migrate_record
from repro.errors import SchemaError, StoreError
from repro.obs.events import (
    EVENT_INGEST_BATCH,
    EVENT_INGEST_SCHEMA_ERROR,
    EVENT_STORE_COMPACTED,
    NULL_EVENTS,
)
from repro.obs.logcfg import get_logger
from repro.obs.metrics import NULL_METRICS
from repro.store.query import (
    JanitorViewCriteria,
    JanitorViewRow,
    StoredVerdict,
    VerdictFilter,
    filter_from_kwargs,
    janitor_rows,
    stored_verdict_from_row,
)
from repro.store.schema import (
    apply_schema,
    canonical_json,
    record_rows,
)

_logger = get_logger("store")


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest pass (batch or full ledger replay)."""
    #: records that landed as new rows
    ingested: int
    #: records offered to the transaction whose commit was already
    #: stored (a true double-offer inside one batch)
    duplicates: int
    #: commit ids of the landed records, in ingest order
    commits: tuple = ()
    #: ledger records skipped up front because the store already held
    #: them — the expected case on every replay after the first
    skipped_stored: int = 0

    def merged(self, other: "IngestResult") -> "IngestResult":
        """Fold two passes' tallies together."""
        return IngestResult(
            ingested=self.ingested + other.ingested,
            duplicates=self.duplicates + other.duplicates,
            commits=self.commits + other.commits,
            skipped_stored=self.skipped_stored + other.skipped_stored)


class VerdictStore:
    """Durable ``commit -> verdict`` facts with a typed query surface."""

    def __init__(self, path: str = ":memory:", *,
                 metrics=None, events=None) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.events = events if events is not None else NULL_EVENTS
        if path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        try:
            self._conn = sqlite3.connect(path)
            try:
                # explicit BEGIN/COMMIT: the ingest batch is the one and
                # only transaction boundary, never the driver's autocommit
                self._conn.isolation_level = None
                apply_schema(self._conn)
            except BaseException:
                # a refused open keeps no handle on the file
                self._conn.close()
                raise
        except sqlite3.DatabaseError as error:
            raise StoreError(
                f"cannot open verdict store {path}: {error}") from error
        self.ingested = 0
        self.duplicates = 0
        self.batches = 0
        self.queries = 0
        self.schema_errors = 0
        self._set_size_gauges()

    # -- identity guard --------------------------------------------------------

    @property
    def meta(self) -> dict | None:
        """The bound run identity (None until first bind)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'run_meta'").fetchone()
        if row is None:
            return None
        import json
        return json.loads(row[0])

    def bind_meta(self, meta: dict) -> None:
        """Bind (or verify) the run identity, mirroring the journal's
        :meth:`~repro.journal.ledger.VerdictLedger.bind_meta` guard —
        a store never ingests a journal from a different run."""
        import json
        existing = self.meta
        if existing is not None:
            if existing != meta:
                raise StoreError(
                    f"store {self.path} belongs to a different run: "
                    f"store meta {existing!r} != current {meta!r} "
                    f"(use a fresh store path)")
            return
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES ('run_meta', ?)",
            (json.dumps(meta, sort_keys=True),))

    # -- membership ------------------------------------------------------------

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM verdicts").fetchone()[0]

    def __contains__(self, commit_id: str) -> bool:
        return self.has(commit_id)

    def has(self, commit_id: str) -> bool:
        """True when a verdict for ``commit_id`` is already stored."""
        return self._conn.execute(
            "SELECT 1 FROM verdicts WHERE commit_id = ?",
            (commit_id,)).fetchone() is not None

    def commit_ids(self) -> set[str]:
        """The commit ids of every stored verdict, in one query."""
        return {row[0] for row in self._conn.execute(
            "SELECT commit_id FROM verdicts")}

    def get(self, commit_id: str) -> dict | None:
        """The full canonical record for one commit (None when absent)."""
        import json
        row = self._conn.execute(
            "SELECT record FROM verdicts WHERE commit_id = ?",
            (commit_id,)).fetchone()
        return None if row is None else json.loads(row[0])

    # -- ingest ----------------------------------------------------------------

    def ingest(self, record: dict) -> bool:
        """Ingest one record; True when it landed, False on duplicate."""
        result = self.ingest_batch([record])
        return result.ingested == 1

    def ingest_batch(self, records) -> IngestResult:
        """Land a batch of records in ONE transaction.

        Every record is migrated to the current ``schema_version``
        first (:class:`~repro.errors.SchemaError` rolls the whole batch
        back — a poisoned journal never half-lands). Duplicate commits
        are skipped via the primary key, which is what makes re-ingest
        after a crash idempotent.
        """
        landed: list[str] = []
        duplicates = 0
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            next_seq = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 "
                "FROM verdicts").fetchone()[0]
            for record in records:
                try:
                    migrated = migrate_record(record)
                except SchemaError as error:
                    self.schema_errors += 1
                    self.metrics.counter("store.schema_errors").inc()
                    self.events.emit(
                        EVENT_INGEST_SCHEMA_ERROR,
                        request_id=record.get("commit")
                        if isinstance(record, dict) else None,
                        error=str(error))
                    raise
                commit_id = migrated["commit"]
                author = migrated.get("author") or {}
                cursor = conn.execute(
                    "INSERT INTO verdicts (commit_id, seq, verdict, "
                    "certified, fully_checked, elapsed_seconds, "
                    "author_name, author_email, record) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(commit_id) DO NOTHING",
                    (commit_id, next_seq, migrated["verdict"],
                     int(bool(migrated["certified"])),
                     int(bool(migrated["fully_checked"])),
                     float(migrated.get("elapsed_seconds", 0.0)),
                     author.get("name"), author.get("email"),
                     canonical_json(migrated)))
                if cursor.rowcount == 0:
                    duplicates += 1
                    continue
                next_seq += 1
                for (path, arch, config, status, i_ok, o_ok) in \
                        record_rows(migrated):
                    conn.execute(
                        "INSERT INTO file_verdicts (commit_id, path, "
                        "arch, config, status, i_ok, o_ok) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (commit_id, path, arch, config, status,
                         i_ok, o_ok))
                landed.append(commit_id)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        self.ingested += len(landed)
        self.duplicates += duplicates
        self.batches += 1
        self.metrics.counter("store.ingested").inc(len(landed))
        self.metrics.counter("store.duplicates").inc(duplicates)
        self.metrics.counter("store.batches").inc()
        self._set_size_gauges()
        self.events.emit(EVENT_INGEST_BATCH, records=len(landed),
                         duplicates=duplicates, batch=self.batches)
        if landed or duplicates:
            _logger.debug("store %s: batch #%d landed %d record(s), "
                          "%d duplicate(s)", self.path, self.batches,
                          len(landed), duplicates)
        return IngestResult(ingested=len(landed), duplicates=duplicates,
                            commits=tuple(landed))

    def ingest_ledger(self, ledger) -> IngestResult:
        """Replay every ledger record (the WAL) into the store.

        Binds the ledger's run identity onto the store first (refusing a
        mismatch), then lands all records the store does not yet have,
        in one transaction. Duplicate keys are the *expected* case on
        resume — the journal holds everything ever checked, the store
        holds everything ever ingested, and the difference is exactly
        the crash window.
        """
        if ledger.meta is not None:
            self.bind_meta(ledger.meta)
        keys = ledger.keys()
        stored = self.commit_ids()
        pending = [key for key in keys if key not in stored]
        result = self.ingest_batch([ledger.get(key) for key in pending])
        self.set_lag(0)
        return dataclasses.replace(
            result, skipped_stored=len(keys) - len(pending))

    # -- retention -------------------------------------------------------------

    def compact(self, retain: int) -> dict:
        """Prune all but the newest ``retain`` verdicts, then vacuum.

        "Newest" is ingest order (the monotone ``seq`` column), so a
        long-running fleet keeps a sliding window of recent verdicts
        and sheds the tail. One transaction covers the verdict rows
        and their per-file rows, so the §IV ranking (derived on read)
        never counts a pruned commit. ``VACUUM`` (which cannot run
        inside a transaction) then returns the freed pages to the
        filesystem.

        Returns ``{"kept", "pruned", "file_rows_pruned"}``.
        """
        if isinstance(retain, bool) or not isinstance(retain, int):
            raise StoreError(
                f"retain must be a non-negative integer, "
                f"got {retain!r}")
        if retain < 0:
            raise StoreError(
                f"retain must be a non-negative integer, "
                f"got {retain!r}")
        conn = self._conn
        file_rows_before = self._count("file_verdicts")
        conn.execute("BEGIN IMMEDIATE")
        try:
            victims = [row[0] for row in conn.execute(
                "SELECT commit_id FROM verdicts "
                "ORDER BY seq DESC LIMIT -1 OFFSET ?", (retain,))]
            for commit_id in victims:
                conn.execute(
                    "DELETE FROM file_verdicts WHERE commit_id = ?",
                    (commit_id,))
                conn.execute(
                    "DELETE FROM verdicts WHERE commit_id = ?",
                    (commit_id,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("VACUUM")
        kept = len(self)
        file_rows_pruned = file_rows_before \
            - self._count("file_verdicts")
        self._set_size_gauges()
        self.metrics.counter("store.compactions").inc()
        self.metrics.counter("store.pruned").inc(len(victims))
        self.events.emit(EVENT_STORE_COMPACTED, kept=kept,
                         pruned=len(victims), retain=retain)
        _logger.info("store %s: compacted to %d verdict(s) "
                     "(%d pruned, %d file row(s) dropped)", self.path,
                     kept, len(victims), file_rows_pruned)
        return {"kept": kept, "pruned": len(victims),
                "file_rows_pruned": file_rows_pruned}

    # -- queries ---------------------------------------------------------------

    def query(self, filter: VerdictFilter | None = None,
              **kwargs) -> list[StoredVerdict]:
        """Answer a typed filter; pure read, never compiles anything."""
        resolved = filter_from_kwargs(filter, **kwargs)
        where, params = resolved.sql()
        sql = ("SELECT commit_id, verdict, certified, fully_checked, "
               "elapsed_seconds, author_name, author_email, record "
               "FROM verdicts v" + where + " ORDER BY v.commit_id")
        if resolved.limit is not None:
            sql += " LIMIT ?"
            params = params + [resolved.limit]
        self.queries += 1
        self.metrics.counter("store.queries").inc()
        results = []
        for row in self._conn.execute(sql, params).fetchall():
            file_rows = self._conn.execute(
                "SELECT path, arch, config, status, i_ok, o_ok "
                "FROM file_verdicts WHERE commit_id = ? "
                "ORDER BY path, arch, config", (row[0],)).fetchall()
            results.append(stored_verdict_from_row(row, file_rows))
        self.metrics.counter("store.query_rows").inc(len(results))
        return results

    def janitor_report(self, criteria: JanitorViewCriteria | None = None
                       ) -> list[JanitorViewRow]:
        """The §IV Table-II ranking, derived from the stored verdicts."""
        self.queries += 1
        self.metrics.counter("store.queries").inc()
        return janitor_rows(self._conn, criteria)

    # -- canonical dump --------------------------------------------------------

    def canonical_dump(self) -> str:
        """Byte-deterministic dump of every stored fact.

        Sorted by commit / path / arch / config / author email and
        independent of ingest order and batching, so two stores built
        from the same verdicts — one uninterrupted, one killed and
        resumed — dump identical bytes. CI diffs exactly this.
        """
        lines = [f"verdict-store canonical dump",
                 f"verdicts={len(self)} file_rows="
                 f"{self._count('file_verdicts')}"]
        for row in self._conn.execute(
                "SELECT commit_id, record FROM verdicts "
                "ORDER BY commit_id"):
            lines.append(f"verdict {row[0]} {row[1]}")
            for (path, arch, config, status, i_ok, o_ok) in \
                    self._conn.execute(
                        "SELECT path, arch, config, status, i_ok, o_ok "
                        "FROM file_verdicts WHERE commit_id = ? "
                        "ORDER BY path, arch, config", (row[0],)):
                lines.append(
                    f"  file {path} arch={arch or '-'} "
                    f"config={config or '-'} status={status} "
                    f"i_ok={i_ok} o_ok={o_ok}")
        for jrow in janitor_rows(
                self._conn, JanitorViewCriteria(min_patches=1,
                                                min_files=1,
                                                top_n=1 << 30)):
            lines.append(
                f"janitor {jrow.email} patches={jrow.patches} "
                f"certified={jrow.certified} partial={jrow.partial} "
                f"attention={jrow.attention} files={jrow.files} "
                f"file_cv={jrow.file_cv!r}")
        return "\n".join(lines) + "\n"

    # -- telemetry -------------------------------------------------------------

    def _count(self, table: str) -> int:
        return self._conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def _set_size_gauges(self) -> None:
        self.metrics.gauge("store.verdicts").set(self._count("verdicts"))
        self.metrics.gauge("store.file_rows").set(
            self._count("file_verdicts"))

    def set_lag(self, lag: int) -> None:
        """Publish ingest lag (journaled but not yet stored verdicts)."""
        self.metrics.gauge("store.lag").set(lag)

    def stats(self) -> dict:
        """Store telemetry for ``--stats-out``, ``jmake query``, tests."""
        return {
            "path": self.path,
            "verdicts": len(self),
            "file_rows": self._count("file_verdicts"),
            "authors": self._conn.execute(
                "SELECT COUNT(DISTINCT author_email) FROM verdicts "
                "WHERE author_email <> ''").fetchone()[0],
            "ingested": self.ingested,
            "duplicates": self.duplicates,
            "batches": self.batches,
            "queries": self.queries,
            "schema_errors": self.schema_errors,
        }

    def close(self) -> None:
        """Close the database handle."""
        self._conn.close()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
