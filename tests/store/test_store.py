"""VerdictStore: transactional ingest, dedup, telemetry, dumps."""

import pytest

from repro.errors import SchemaError, StoreError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.store.store import VerdictStore
from tests.store.conftest import v4_record


class TestIngest:
    def test_ingest_lands_and_is_queryable(self, store_path):
        with VerdictStore(store_path) as store:
            assert store.ingest(v4_record("c1")) is True
            assert store.has("c1")
            assert "c1" in store
            assert len(store) == 1
            assert store.get("c1")["commit"] == "c1"

    def test_duplicate_ingest_is_a_noop(self, store_path):
        with VerdictStore(store_path) as store:
            assert store.ingest(v4_record("c1")) is True
            assert store.ingest(v4_record("c1")) is False
            assert len(store) == 1

    def test_batch_reports_landed_and_duplicates(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest(v4_record("c1"))
            result = store.ingest_batch(
                [v4_record("c1"), v4_record("c2"), v4_record("c3")])
            assert result.ingested == 2
            assert result.duplicates == 1
            assert result.commits == ("c2", "c3")

    def test_rows_survive_reopen(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest(v4_record("c1"))
        with VerdictStore(store_path) as store:
            assert store.has("c1")

    def test_stored_records_are_migrated_to_current(self, store_path):
        from tests.store.conftest import v2_record
        from repro.core.report import SCHEMA_VERSION, migrate_record
        old = v2_record("c1")
        with VerdictStore(store_path) as store:
            store.ingest(old)
            stored = store.get("c1")
        assert stored["schema_version"] == SCHEMA_VERSION
        assert stored == migrate_record(old)


class TestPoisonedBatchRollsBack:
    def test_schema_error_lands_nothing(self, store_path):
        poisoned = v4_record("bad")
        del poisoned["verdict"]
        with VerdictStore(store_path) as store:
            with pytest.raises(SchemaError):
                store.ingest_batch([v4_record("c1"), poisoned,
                                    v4_record("c2")])
            # the whole batch rolled back — not even c1 landed
            assert len(store) == 0
            assert store.schema_errors == 1

    def test_inconsistent_fully_checked_poisons_the_batch(self,
                                                          store_path):
        record = v4_record("bad")
        record["verdict"] = "PARTIAL:arm"
        # fully_checked stays True: the two encodings now disagree
        with VerdictStore(store_path) as store:
            with pytest.raises(SchemaError, match="inconsistent"):
                store.ingest_batch([record])
            assert len(store) == 0


class TestIdentityGuard:
    def test_meta_binds_once_and_rebinds_identically(self, store_path):
        meta = {"mode": "watch", "corpus_seed": "s1"}
        with VerdictStore(store_path) as store:
            assert store.meta is None
            store.bind_meta(meta)
            store.bind_meta(dict(meta))
            assert store.meta == meta

    def test_foreign_run_identity_is_refused(self, store_path):
        with VerdictStore(store_path) as store:
            store.bind_meta({"corpus_seed": "s1"})
            with pytest.raises(StoreError,
                               match="belongs to a different run"):
                store.bind_meta({"corpus_seed": "s2"})


class TestTelemetry:
    def test_counters_and_gauges(self, store_path):
        metrics = MetricsRegistry()
        with VerdictStore(store_path, metrics=metrics) as store:
            store.ingest_batch([v4_record("c1"), v4_record("c2")])
            store.ingest(v4_record("c1"))
            store.query()
        data = metrics.to_dict()
        assert data["counters"]["store.ingested"] == 2
        assert data["counters"]["store.duplicates"] == 1
        assert data["counters"]["store.batches"] == 2
        assert data["counters"]["store.queries"] == 1
        assert data["counters"]["store.query_rows"] == 2
        assert data["gauges"]["store.verdicts"] == 2

    def test_lag_gauge(self, store_path):
        metrics = MetricsRegistry()
        with VerdictStore(store_path, metrics=metrics) as store:
            store.set_lag(7)
        assert metrics.to_dict()["gauges"]["store.lag"] == 7

    def test_ingest_events(self, store_path):
        events = EventLog()
        with VerdictStore(store_path, events=events) as store:
            store.ingest_batch([v4_record("c1")])
        assert events.counts["ingest.batch"] == 1
        assert events.counts["ingest.matview_refreshed"] == 1

    def test_schema_error_event(self, store_path):
        events = EventLog()
        poisoned = v4_record("bad")
        del poisoned["files"]
        with VerdictStore(store_path, events=events) as store:
            with pytest.raises(SchemaError):
                store.ingest_batch([poisoned])
        assert events.counts["ingest.schema_error"] == 1

    def test_stats_shape(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest(v4_record("c1"))
            stats = store.stats()
        assert stats["verdicts"] == 1
        assert stats["ingested"] == 1
        assert stats["batches"] == 1
        assert stats["path"] == store_path


class TestCanonicalDump:
    def test_dump_is_independent_of_ingest_order_and_batching(
            self, tmp_path):
        records = [v4_record(f"c{i}", files={
            f"drivers/f{i % 3}.c": [("x86_64", "allyesconfig",
                                     True, True)]})
            for i in range(6)]
        with VerdictStore(str(tmp_path / "a.sqlite")) as store_a:
            store_a.ingest_batch(records)
            dump_a = store_a.canonical_dump()
        with VerdictStore(str(tmp_path / "b.sqlite")) as store_b:
            for record in reversed(records):
                store_b.ingest(record)
            dump_b = store_b.canonical_dump()
        assert dump_a == dump_b

    def test_dump_counts_header(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest(v4_record("c1"))
            dump = store.canonical_dump()
        assert dump.startswith("verdict-store canonical dump\n"
                               "verdicts=1 file_rows=1\n")
