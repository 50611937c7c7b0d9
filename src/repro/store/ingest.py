"""WAL → SQLite: the journal-to-store ingest boundary.

Fleet mode has exactly one durability story, told twice:

1. a verdict becomes *durable* the moment the check service's
   ``on_result`` hook emits it into the
   :class:`~repro.journal.ledger.VerdictLedger` (fsync'd, CRC-framed,
   dedup-keyed — PR 5's machinery, unchanged);
2. it becomes *queryable* when an ingest pass replays the ledger into
   the :class:`~repro.store.store.VerdictStore` — one SQLite
   transaction per batch covering the fact rows AND the §IV
   materialized view.

The journal is therefore the store's write-ahead log in the literal
database sense: the store can be deleted and rebuilt from the journal
at any time, and a crash anywhere between the two is harmless —
re-ingest is idempotent because the store dedups on the same commit
key the ledger does. ``identity`` binding is enforced on both sides
(ledger meta == store meta), so a store can never silently swallow a
journal from a different corpus or option set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingest pass (batch or full ledger replay)."""
    #: records that landed as new rows
    ingested: int
    #: records offered to the transaction whose commit was already
    #: stored (a true double-offer inside one batch)
    duplicates: int
    #: authors whose materialized-view rows were recomputed
    authors_refreshed: int
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
            authors_refreshed=self.authors_refreshed
            + other.authors_refreshed,
            commits=self.commits + other.commits,
            skipped_stored=self.skipped_stored + other.skipped_stored)


def ingest_ledger(store, ledger) -> IngestResult:
    """Replay every ledger record into the store, one transaction.

    Binds the ledger's run identity onto the store first (refusing a
    mismatch), then lands all records the store does not yet have.
    Duplicate keys are the *expected* case on resume — the journal
    holds everything ever checked, the store holds everything ever
    ingested, and the difference is exactly the crash window.
    """
    if ledger.meta is not None:
        store.bind_meta(ledger.meta)
    keys = ledger.keys()
    stored = store.commit_ids()
    pending = [key for key in keys if key not in stored]
    result = store.ingest_batch([ledger.get(key) for key in pending])
    store.set_lag(0)
    return dataclasses.replace(
        result, skipped_stored=len(keys) - len(pending))
