"""The §IV janitor materialized view: incremental, transactional."""

from repro.store.matview import JanitorViewCriteria
from repro.store.store import VerdictStore
from tests.store.conftest import v4_record


def patch(commit, email, path, **kwargs):
    return v4_record(commit, author=(email.split("@")[0], email),
                     files={path: [("x86_64", "allyesconfig",
                                    True, True)]}, **kwargs)


class TestRanking:
    def test_uniform_authors_rank_before_file_hammerers(self,
                                                        store_path):
        with VerdictStore(store_path) as store:
            # janitor: three patches, three distinct files (cv = 0)
            store.ingest_batch([
                patch("j1", "janitor@x.org", "drivers/a.c"),
                patch("j2", "janitor@x.org", "drivers/b.c"),
                patch("j3", "janitor@x.org", "drivers/c.c"),
            ])
            # maintainer: three patches over two files (cv > 0)
            store.ingest_batch([
                patch("m1", "maint@x.org", "drivers/hot.c"),
                patch("m2", "maint@x.org", "drivers/hot.c"),
                patch("m3", "maint@x.org", "drivers/cold.c"),
            ])
            rows = store.janitor_report(JanitorViewCriteria(
                min_patches=3, min_files=2, top_n=10))
        assert [row.email for row in rows] == \
            ["janitor@x.org", "maint@x.org"]
        assert rows[0].file_cv == 0.0
        assert rows[1].file_cv > 0.0
        assert rows[0].files == 3
        assert rows[1].files == 2

    def test_thresholds_filter(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch([
                patch("c1", "casual@x.org", "drivers/a.c")])
            rows = store.janitor_report(JanitorViewCriteria(
                min_patches=2, min_files=1))
        assert rows == []

    def test_verdict_tallies(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch([
                patch("c1", "dev@x.org", "drivers/a.c"),
                patch("c2", "dev@x.org", "drivers/b.c",
                      quarantined=("arm",)),
            ])
            (row,) = store.janitor_report(JanitorViewCriteria(
                min_patches=1, min_files=1))
        assert row.patches == 2
        assert row.certified == 1
        assert row.partial == 1
        assert row.attention == 0


class TestIncrementalRefresh:
    def test_second_batch_updates_existing_author(self, store_path):
        with VerdictStore(store_path) as store:
            store.ingest_batch([
                patch("c1", "dev@x.org", "drivers/a.c")])
            store.ingest_batch([
                patch("c2", "dev@x.org", "drivers/b.c")])
            (row,) = store.janitor_report(JanitorViewCriteria(
                min_patches=1, min_files=1))
        assert row.patches == 2
        assert row.files == 2

    def test_refresh_count_is_per_touched_author(self, store_path):
        with VerdictStore(store_path) as store:
            result = store.ingest_batch([
                patch("c1", "a@x.org", "drivers/a.c"),
                patch("c2", "a@x.org", "drivers/b.c"),
                patch("c3", "b@x.org", "drivers/a.c"),
            ])
        assert result.authors_refreshed == 2

    def test_authorless_records_do_not_enter_the_view(self,
                                                      store_path):
        with VerdictStore(store_path) as store:
            result = store.ingest_batch([
                v4_record("c1", author=None)])
            rows = store.janitor_report(JanitorViewCriteria(
                min_patches=1, min_files=1))
        assert result.authors_refreshed == 0
        assert rows == []

    def test_view_matches_a_from_scratch_rebuild(self, tmp_path):
        """Incremental refresh == rebuilding the store in one batch."""
        batches = [
            [patch("c1", "a@x.org", "drivers/a.c"),
             patch("c2", "b@x.org", "drivers/b.c")],
            [patch("c3", "a@x.org", "drivers/a.c")],
            [patch("c4", "a@x.org", "drivers/c.c"),
             patch("c5", "b@x.org", "drivers/b.c")],
        ]
        with VerdictStore(str(tmp_path / "inc.sqlite")) as inc:
            for batch in batches:
                inc.ingest_batch(batch)
            incremental = inc.canonical_dump()
        with VerdictStore(str(tmp_path / "one.sqlite")) as one:
            one.ingest_batch([r for batch in batches for r in batch])
            oneshot = one.canonical_dump()
        assert incremental == oneshot
