"""Retention compaction: prune old verdicts, rebuild the matview.

``compact(retain)`` keeps the newest ``retain`` verdicts by ingest
sequence and rebuilds the janitor materialized view from the
survivors inside the same transaction — so the ranking a dashboard
reads immediately after compaction is exactly what a fresh store
built from only the surviving records would produce.
"""

import pytest

from repro.errors import StoreError
from repro.obs.events import EVENT_STORE_COMPACTED, EventLog
from repro.store.store import VerdictStore
from tests.store.conftest import build_report

AUTHORS = [("Dan Carpenter", "dan@example.org"),
           ("Julia Lawall", "julia@example.org"),
           ("Arnd Bergmann", "arnd@example.org")]


def seeded_records(count):
    """``count`` distinct canonical records across three authors."""
    return [build_report(
        f"c{index:03d}",
        author=AUTHORS[index % len(AUTHORS)],
        files={f"drivers/f{index % 4}.c": [
            ("x86_64", "allyesconfig", True, True),
            ("arm", "defconfig", True, index % 2 == 0)]}).to_dict()
        for index in range(count)]


class TestCompaction:
    def test_keeps_the_newest_by_ingest_sequence(self, store_path):
        records = seeded_records(10)
        with VerdictStore(store_path) as store:
            store.ingest_batch(records)
            result = store.compact(4)
            assert result["kept"] == 4
            assert result["pruned"] == 6
            assert result["file_rows_pruned"] > 0
            assert len(store) == 4
            for record in records[-4:]:
                assert store.has(record["commit"])
            for record in records[:6]:
                assert not store.has(record["commit"])

    def test_matview_matches_a_fresh_store_of_survivors(
            self, store_path, tmp_path):
        """The rebuilt ranking carries no ghost contributions from
        pruned verdicts: it equals a store that never saw them."""
        records = seeded_records(12)
        with VerdictStore(store_path) as store:
            store.ingest_batch(records)
            store.compact(5)
            compacted_rows = store.janitor_report()
            compacted_dump = store.canonical_dump()
        with VerdictStore(str(tmp_path / "fresh.sqlite")) as fresh:
            fresh.ingest_batch(records[-5:])
            assert fresh.janitor_report() == compacted_rows
            assert fresh.canonical_dump() == compacted_dump

    def test_generous_retention_is_a_noop(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch(seeded_records(3))
            result = store.compact(10)
            assert result == {"kept": 3, "pruned": 0,
                              "file_rows_pruned": 0}
            assert len(store) == 3

    def test_retain_zero_empties_the_store(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch(seeded_records(3))
            result = store.compact(0)
            assert result["kept"] == 0
            assert result["pruned"] == 3
            assert len(store) == 0
            assert store.janitor_report() == []

    def test_compaction_survives_reopen(self, store_path):
        records = seeded_records(6)
        with VerdictStore(store_path) as store:
            store.ingest_batch(records)
            store.compact(2)
        with VerdictStore(store_path) as store:
            assert len(store) == 2
            assert store.has(records[-1]["commit"])
            assert not store.has(records[0]["commit"])

    def test_store_stays_writable_after_compaction(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch(seeded_records(4))
            store.compact(1)
            assert store.ingest(
                build_report("after-compact").to_dict()) is True
            assert len(store) == 2

    def test_compaction_is_idempotent(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch(seeded_records(8))
            first = store.compact(3)
            assert first["pruned"] == 5
            again = store.compact(3)
            assert again == {"kept": 3, "pruned": 0,
                             "file_rows_pruned": 0}


class TestRetainValidation:
    @pytest.mark.parametrize("retain", [True, False, -1, 2.5, "3",
                                        None])
    def test_non_count_retain_is_refused(self, store_path, retain):
        with VerdictStore(store_path) as store:
            store.ingest(build_report("c1").to_dict())
            with pytest.raises(StoreError):
                store.compact(retain)
            # the refused call changed nothing
            assert len(store) == 1


class TestTelemetry:
    def test_compaction_event_and_counters(self, store_path):
        events = EventLog()
        with VerdictStore(store_path, events=events) as store:
            store.ingest_batch(seeded_records(5))
            store.compact(2)
        assert events.counts[EVENT_STORE_COMPACTED] == 1
        emitted = events.events(EVENT_STORE_COMPACTED)[0]
        assert emitted.attrs["kept"] == 2
        assert emitted.attrs["pruned"] == 3
        assert emitted.attrs["retain"] == 2
