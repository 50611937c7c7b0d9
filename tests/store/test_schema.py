"""Relational layout and canonical row derivation."""

import sqlite3

import pytest

from repro.core.report import migrate_record
from repro.errors import StoreError
from repro.store.schema import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    file_rows,
    record_rows,
)
from repro.store.store import VerdictStore
from tests.store.conftest import v3_record, v4_record


class TestFileRows:
    def test_attempts_become_rows_sorted_by_arch_config(self):
        entry = {"status": "ok", "attempts": [
            {"arch": "x86_64", "config": "allyesconfig",
             "i_ok": True, "o_ok": True},
            {"arch": "arm", "config": "allyesconfig",
             "i_ok": True, "o_ok": False},
        ]}
        rows = file_rows("a.c", entry)
        assert rows == [
            ("a.c", "arm", "allyesconfig", "ok", 1, 0),
            ("a.c", "x86_64", "allyesconfig", "ok", 1, 1),
        ]

    def test_retries_of_one_pair_are_or_merged(self):
        entry = {"status": "ok", "attempts": [
            {"arch": "x86_64", "config": "allyesconfig",
             "i_ok": True, "o_ok": False},
            {"arch": "x86_64", "config": "allyesconfig",
             "i_ok": False, "o_ok": True},
        ]}
        assert file_rows("a.c", entry) == [
            ("a.c", "x86_64", "allyesconfig", "ok", 1, 1)]

    def test_pre_v4_entries_fall_back_to_useful_archs(self):
        entry = {"status": "ok", "useful_archs": ["mips", "arm"]}
        assert file_rows("a.c", entry) == [
            ("a.c", "arm", "", "ok", 1, 1),
            ("a.c", "mips", "", "ok", 1, 1),
        ]

    def test_uncompiled_files_still_get_one_row(self):
        entry = {"status": "comment-only"}
        assert file_rows("a.h", entry) == [
            ("a.h", "", "", "comment-only", 0, 0)]

    def test_record_rows_are_path_sorted(self):
        record = migrate_record(v4_record(files={
            "z/last.c": [("x86_64", "allyesconfig", True, True)],
            "a/first.c": [("x86_64", "allyesconfig", True, True)],
        }))
        paths = [row[0] for row in record_rows(record)]
        assert paths == sorted(paths)


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        record = migrate_record(v4_record())
        shuffled = dict(reversed(list(record.items())))
        assert canonical_json(record) == canonical_json(shuffled)

    def test_round_trips_through_json(self):
        import json
        record = migrate_record(v4_record())
        assert json.loads(canonical_json(record)) == record


class TestLayoutGuard:
    def test_fresh_store_stamps_the_layout_version(self, store_path):
        with VerdictStore(store_path):
            pass
        conn = sqlite3.connect(store_path)
        row = conn.execute("SELECT value FROM meta WHERE "
                           "key = 'store_schema'").fetchone()
        conn.close()
        assert row == (str(STORE_SCHEMA_VERSION),)

    def test_reopening_same_layout_is_fine(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest(v4_record())
        with VerdictStore(store_path) as store:
            assert len(store) == 1

    def test_foreign_layout_is_refused(self, store_path):
        with VerdictStore(store_path):
            pass
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE meta SET value = '99' "
                     "WHERE key = 'store_schema'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="layout version 99"):
            VerdictStore(store_path)

    def test_non_database_file_is_refused(self, tmp_path):
        path = tmp_path / "not-a-db.sqlite"
        path.write_text("this is not SQLite\n" * 100)
        with pytest.raises(StoreError, match="cannot open"):
            VerdictStore(str(path))


class TestVersionTag:
    def test_canonical_records_in_dump_carry_v3_suffix(self, store_path):
        """The dump embeds canonical JSON; it must be current-schema."""
        with VerdictStore(store_path) as store:
            store.ingest(v3_record())
            dump = store.canonical_dump()
        assert '"schema_version":4' in dump
