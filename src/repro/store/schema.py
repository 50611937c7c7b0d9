"""The verdict store's relational schema and canonical row derivation.

One store = one SQLite database holding every verdict a fleet has ever
computed, fed transactionally from the write-ahead journal (see
:mod:`repro.store.store`). Two families of tables:

- ``meta`` — key/value: the store schema version and the bound run
  identity (the same ``meta`` record the journal carries, so a store
  refuses to ingest someone else's journal);
- ``verdicts`` / ``file_verdicts`` — the fact tables: one row per
  commit, one row per (commit, file, arch, config) trial, plus the
  full canonical ``schema_version=4`` record as sorted-key JSON so
  nothing ``to_dict`` carries is ever lost to the relational shredding.

The §IV janitor ranking is derived from the fact tables when it is read
(:func:`repro.store.query.janitor_rows`), so no table holds it.

Row derivation is deliberately total: a record whose file entry carries
``attempts`` yields one row per distinct (arch, config) with the trial
outcomes OR-merged; a pre-v4 entry without attempts falls back to one
row per useful architecture (config unknown, spelled ``""``), and a
file nothing compiled still gets a single ``("", "")`` row so the file
and its status are queryable at all.
"""

from __future__ import annotations

import json

from repro.errors import StoreError

#: version of the relational layout (bump on any DDL change; the store
#: refuses to open a database written by a different layout). 2 drops
#: layout 1's ``author_files`` / ``janitor_view`` ranking tables; a
#: refused store is rebuilt from its journal (``jmake watch --resume``
#: with a fresh ``--store``).
STORE_SCHEMA_VERSION = 2

DDL = (
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS verdicts (
        commit_id TEXT PRIMARY KEY,
        seq INTEGER NOT NULL,
        verdict TEXT NOT NULL,
        certified INTEGER NOT NULL,
        fully_checked INTEGER NOT NULL,
        elapsed_seconds REAL NOT NULL,
        author_name TEXT,
        author_email TEXT,
        record TEXT NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS file_verdicts (
        commit_id TEXT NOT NULL,
        path TEXT NOT NULL,
        arch TEXT NOT NULL,
        config TEXT NOT NULL,
        status TEXT NOT NULL,
        i_ok INTEGER NOT NULL,
        o_ok INTEGER NOT NULL,
        PRIMARY KEY (commit_id, path, arch, config))""",
    """CREATE INDEX IF NOT EXISTS idx_file_verdicts_path
        ON file_verdicts (path)""",
    """CREATE INDEX IF NOT EXISTS idx_file_verdicts_arch
        ON file_verdicts (arch)""",
    """CREATE INDEX IF NOT EXISTS idx_verdicts_author
        ON verdicts (author_email)""",
)


def apply_schema(conn) -> None:
    """Create (or verify) the relational layout on ``conn``."""
    for statement in DDL:
        conn.execute(statement)
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'store_schema'").fetchone()
    if row is None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('store_schema', ?)",
            (str(STORE_SCHEMA_VERSION),))
        return
    found = row[0]
    if found != str(STORE_SCHEMA_VERSION):
        raise StoreError(
            f"store has layout version {found}, this build speaks "
            f"{STORE_SCHEMA_VERSION}; refusing to mix layouts")


def canonical_json(record: dict) -> str:
    """The byte-deterministic serialization of a canonical record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def file_rows(path: str, entry: dict) -> list[tuple]:
    """Shred one migrated file entry into ``file_verdicts`` rows.

    Returns ``(path, arch, config, status, i_ok, o_ok)`` tuples sorted
    by (arch, config) so row order never depends on attempt order.
    Repeated trials of the same (arch, config) pair (retries) are
    OR-merged: the pair compiled if any trial did.
    """
    status = entry["status"]
    merged: dict[tuple[str, str], list[int]] = {}
    for attempt in entry.get("attempts", []):
        key = (attempt["arch"], attempt["config"])
        flags = merged.setdefault(key, [0, 0])
        flags[0] |= int(bool(attempt["i_ok"]))
        flags[1] |= int(bool(attempt["o_ok"]))
    if not merged:
        # pre-v4 records carry no attempts; the useful architectures
        # are the only per-arch facts available (config unknown)
        for arch in entry.get("useful_archs", []):
            merged[(arch, "")] = [1, 1]
    if not merged:
        merged[("", "")] = [0, 0]
    return [(path, arch, config, status, flags[0], flags[1])
            for (arch, config), flags in sorted(merged.items())]


def record_rows(record: dict) -> list[tuple]:
    """All ``file_verdicts`` rows of one migrated record, path-sorted."""
    rows: list[tuple] = []
    for path in sorted(record["files"]):
        rows.extend(file_rows(path, record["files"][path]))
    return rows
