"""Every historical schema version survives the full fleet path.

journal (WAL) -> store ingest -> ``query_verdicts`` must hand back
exactly the record ``migrate_record`` produces in memory — byte for
byte under canonical JSON — for v2 (PR-4), v3 (PR-5), and current v4
records, quarantined PARTIAL rows included. This is the contract that
lets a fleet upgrade JMake without ever re-checking old journals.
"""

import pytest

from repro import api
from repro.core.report import migrate_record
from repro.journal.ledger import VerdictLedger
from repro.store.schema import canonical_json
from tests.store.conftest import v2_record, v3_record, v4_record

BUILDERS = {"v2": v2_record, "v3": v3_record, "v4": v4_record}


def fleet_records():
    """One certified + one PARTIAL record per historical version."""
    records = {}
    for version, build in BUILDERS.items():
        records[f"{version}-ok"] = build(
            f"{version}-ok", files={
                "drivers/a.c": [("x86_64", "allyesconfig",
                                 True, True)],
                "drivers/b.h": [("arm", "allyesconfig",
                                 True, False)]})
        records[f"{version}-part"] = build(
            f"{version}-part", quarantined=("arm", "mips"), files={
                "drivers/p.c": [("powerpc", "allyesconfig",
                                 True, True)]})
    return records


@pytest.fixture
def journaled(tmp_path):
    """A ledger holding every version's records, as a real WAL would."""
    records = fleet_records()
    path = str(tmp_path / "run.jnl")
    ledger = VerdictLedger(path, fsync=False, fresh=True)
    ledger.bind_meta({"mode": "roundtrip"})
    for key, record in records.items():
        assert ledger.emit(key, record)
    ledger.close()
    return path, records


class TestJournalToStoreRoundTrip:
    def test_every_version_is_byte_identical_to_in_memory(
            self, journaled, store_path):
        path, originals = journaled
        with VerdictLedger(path, fsync=False) as ledger, \
                api.open_store(store_path) as store:
            result = api.ingest_ledger(store, ledger)
            assert result.ingested == len(originals)
            stored = {v.commit: v for v in api.query_verdicts(store)}
        assert set(stored) == set(originals)
        for key, original in originals.items():
            expected = migrate_record(original)
            assert canonical_json(stored[key].record) == \
                canonical_json(expected), key

    def test_partial_rows_stay_quarantined(self, journaled,
                                           store_path):
        path, _ = journaled
        with VerdictLedger(path, fsync=False) as ledger, \
                api.open_store(store_path) as store:
            api.ingest_ledger(store, ledger)
            partials = api.query_verdicts(store, verdict="PARTIAL")
        assert {v.commit for v in partials} == \
            {"v2-part", "v3-part", "v4-part"}
        for verdict in partials:
            assert not verdict.fully_checked
            assert verdict.record["quarantined_archs"] == \
                ["arm", "mips"]

    def test_pre_v4_records_are_queryable_by_arch(self, journaled,
                                                  store_path):
        """v2/v3 entries have no attempts; the useful-arch fallback
        rows must still answer arch filters."""
        path, _ = journaled
        with VerdictLedger(path, fsync=False) as ledger, \
                api.open_store(store_path) as store:
            api.ingest_ledger(store, ledger)
            hits = api.query_verdicts(store, arch="x86_64")
        assert {v.commit for v in hits} == \
            {"v2-ok", "v3-ok", "v4-ok"}

    def test_reingest_is_idempotent(self, journaled, store_path):
        path, originals = journaled
        with api.open_store(store_path) as store:
            for _ in range(2):
                with VerdictLedger(path, fsync=False) as ledger:
                    result = api.ingest_ledger(store, ledger)
            assert result.ingested == 0
            assert result.skipped_stored == len(originals)
            dump_after = store.canonical_dump()
        with api.open_store(str(store_path) + ".fresh") as fresh:
            with VerdictLedger(path, fsync=False) as ledger:
                api.ingest_ledger(fresh, ledger)
            assert dump_after == fresh.canonical_dump()

    def test_ingest_probes_the_store_once_per_pass(
            self, journaled, store_path, monkeypatch):
        """A pass reads the stored ids in one query, not one per key."""
        path, originals = journaled
        passes = []
        commit_ids = api.VerdictStore.commit_ids

        def counted_commit_ids(store):
            passes.append(store)
            return commit_ids(store)

        def per_key_probe(store, commit_id):
            raise AssertionError(f"per-key probe of {commit_id}")

        monkeypatch.setattr(api.VerdictStore, "commit_ids",
                            counted_commit_ids)
        monkeypatch.setattr(api.VerdictStore, "has", per_key_probe)
        with api.open_store(store_path) as store:
            store.ingest_batch([originals["v4-ok"]])
            results = []
            for _ in range(2):
                with VerdictLedger(path, fsync=False) as ledger:
                    results.append(api.ingest_ledger(store, ledger))
        assert len(passes) == 2
        assert [(r.ingested, r.skipped_stored) for r in results] == \
            [(len(originals) - 1, 1), (0, len(originals))]

    def test_store_inherits_the_ledger_identity(self, journaled,
                                                store_path):
        path, _ = journaled
        with VerdictLedger(path, fsync=False) as ledger, \
                api.open_store(store_path) as store:
            api.ingest_ledger(store, ledger)
            assert store.meta == {"mode": "roundtrip"}
