"""Typed filters over the store — pure reads, never a compile."""

import pytest

from repro import api
from repro.errors import StoreError
from repro.core.report import FileStatus
from repro.store.query import VerdictFilter
from repro.store.store import VerdictStore
from tests.store.conftest import v4_record


@pytest.fixture
def populated(store_path):
    """Five verdicts spanning authors, archs, and verdict kinds."""
    records = [
        v4_record("c1", author=("Dan", "dan@example.org"), files={
            "drivers/scsi/a.c": [("x86_64", "allyesconfig",
                                  True, True)]}),
        v4_record("c2", author=("Dan", "dan@example.org"), files={
            "drivers/usb/b.c": [("arm", "allyesconfig", True, True),
                                ("x86_64", "allyesconfig",
                                 True, False)]}),
        v4_record("c3", author=("Eve", "eve@example.org"), files={
            "drivers/usb/b.c": [("mips", "allyesconfig",
                                 True, True)]}),
        v4_record("c4", author=("Eve", "eve@example.org"),
                  quarantined=("arm",), files={
            "drivers/net/c.c": [("x86_64", "allyesconfig",
                                 True, True)]}),
        v4_record("c5", author=None, files={
            "drivers/net/c.c": [("x86_64", "allmodconfig",
                                 True, True)]}),
        v4_record("c6", author=("Mal", "mal@example.org"),
                  status=FileStatus.O_FAILED, files={
            "drivers/net/d.c": [("x86_64", "allyesconfig",
                                 True, False)]}),
    ]
    with VerdictStore(store_path) as store:
        store.ingest_batch(records)
    return store_path


class TestFilters:
    def test_no_filter_returns_everything_commit_sorted(self,
                                                        populated):
        results = api.query_verdicts(populated)
        assert [v.commit for v in results] == \
            ["c1", "c2", "c3", "c4", "c5", "c6"]

    def test_by_commit(self, populated):
        results = api.query_verdicts(populated, commit="c2")
        assert len(results) == 1
        assert results[0].commit == "c2"
        assert results[0].record["schema_version"] == 4

    def test_by_path_returns_whole_verdicts(self, populated):
        results = api.query_verdicts(populated,
                                     path="drivers/usb/b.c")
        assert {v.commit for v in results} == {"c2", "c3"}
        # file rows come back complete, not just the matching ones
        assert all(v.files for v in results)

    def test_by_arch(self, populated):
        results = api.query_verdicts(populated, arch="mips")
        assert [v.commit for v in results] == ["c3"]

    def test_by_config(self, populated):
        results = api.query_verdicts(populated, config="allmodconfig")
        assert [v.commit for v in results] == ["c5"]

    def test_partial_kind_matches_by_prefix(self, populated):
        results = api.query_verdicts(populated, verdict="PARTIAL")
        assert [v.commit for v in results] == ["c4"]
        assert results[0].partial
        assert not results[0].fully_checked

    def test_exact_partial_verdict(self, populated):
        assert api.query_verdicts(populated, verdict="PARTIAL:arm")
        assert not api.query_verdicts(populated,
                                      verdict="PARTIAL:mips")

    def test_by_author(self, populated):
        results = api.query_verdicts(populated,
                                     author="eve@example.org")
        assert {v.commit for v in results} == {"c3", "c4"}

    def test_by_certified(self, populated):
        uncertified = api.query_verdicts(populated, certified=False)
        assert [v.commit for v in uncertified] == ["c6"]
        assert uncertified[0].verdict == "ATTENTION REQUIRED"

    def test_by_fully_checked(self, populated):
        partial = api.query_verdicts(populated, fully_checked=False)
        assert [v.commit for v in partial] == ["c4"]

    def test_by_status(self, populated):
        failed = api.query_verdicts(populated, status="o-failed")
        assert [v.commit for v in failed] == ["c6"]

    def test_limit(self, populated):
        assert len(api.query_verdicts(populated, limit=2)) == 2

    def test_ready_filter_object(self, populated):
        results = api.query_verdicts(
            populated, VerdictFilter(author="dan@example.org",
                                     arch="arm"))
        assert [v.commit for v in results] == ["c2"]

    def test_attempt_outcomes_survive(self, populated):
        (verdict,) = api.query_verdicts(populated, commit="c2")
        by_arch = {row.arch: row for row in verdict.files}
        assert by_arch["arm"].o_ok is True
        assert by_arch["x86_64"].o_ok is False


class TestValidation:
    def test_unknown_predicate(self, populated):
        with pytest.raises(StoreError, match="unknown filter"):
            api.query_verdicts(populated, flavour="spicy")

    def test_filter_and_kwargs_are_exclusive(self, populated):
        with pytest.raises(StoreError, match="not both"):
            api.query_verdicts(populated, VerdictFilter(), commit="c1")

    def test_bad_verdict_kind(self, populated):
        with pytest.raises(StoreError, match="verdict"):
            api.query_verdicts(populated, verdict="MAYBE")

    @pytest.mark.parametrize("bad", [0, -1, True, "3"])
    def test_bad_limit(self, populated, bad):
        with pytest.raises(StoreError, match="limit"):
            api.query_verdicts(populated, limit=bad)

    def test_non_string_predicate(self, populated):
        with pytest.raises(StoreError, match="must be a string"):
            api.query_verdicts(populated, arch=7)


class TestPureRead:
    def test_queries_never_compile(self, populated, monkeypatch):
        """Answering from the store must not touch the pipeline."""
        from repro.core import jmake

        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("a query triggered a check")

        monkeypatch.setattr(jmake.CheckSession, "check_commit",
                            explode)
        monkeypatch.setattr(jmake.CheckSession, "check_patch", explode)
        results = api.query_verdicts(populated, verdict="CERTIFIED")
        assert len(results) == 4

    def test_path_variant_opens_and_closes(self, populated):
        # string path in, fresh handle out — twice, to prove close
        assert api.query_verdicts(populated, commit="c1")
        assert api.janitor_report(
            populated, api.JanitorViewCriteria(min_patches=1,
                                               min_files=1))
