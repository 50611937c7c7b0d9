"""Tests for the commit-stream generator and corpus builder."""

import pytest

from repro.workload.corpus import Corpus, CorpusSpec, build_corpus
from repro.workload.personas import PersonaKind, default_roster


SMALL_SPEC = CorpusSpec(seed="test-corpus", history_commits=120,
                        eval_commits=60, regular_developers=10)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(SMALL_SPEC)


class TestRoster:
    def test_ten_janitors(self):
        roster = default_roster(["drivers/net", "fs/ext4"])
        janitors = [p for p in roster if p.kind is PersonaKind.JANITOR]
        assert len(janitors) == 10
        assert sum(1 for p in janitors if p.tool_user) == 3
        assert sum(1 for p in janitors if p.intern) == 1

    def test_maintainer_per_subsystem(self):
        roster = default_roster(["drivers/net", "fs/ext4"],
                                regular_developers=0)
        maintainers = [p for p in roster
                       if p.kind is PersonaKind.MAINTAINER]
        assert len(maintainers) == 2
        assert maintainers[0].home_subsystems == ("drivers/net",)

    def test_mixtures_sum_below_one(self):
        for persona in default_roster(["drivers/net"]):
            mix = persona.mixture
            assert mix.c_only + mix.h_only + mix.both < 1.0
            assert mix.ignorable > 0


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(SMALL_SPEC)
        b = build_corpus(SMALL_SPEC)
        assert [m.commit_id for m in a.eval_metadata] == \
            [m.commit_id for m in b.eval_metadata]

    def test_window_sizes(self, corpus):
        assert len(corpus.history_metadata) == 120
        assert len(corpus.eval_metadata) == 60

    def test_tags_bound_windows(self, corpus):
        repo = corpus.repository
        start = repo.resolve(Corpus.TAG_EVAL_START)
        end = repo.resolve(Corpus.TAG_EVAL_END)
        assert start.id == corpus.history_metadata[-1].commit_id
        assert end.id == corpus.eval_metadata[-1].commit_id

    def test_log_filters_match_metadata(self, corpus):
        """Commits the paper's git invocation would drop are exactly the
        ignorable ones (plus any whitespace-only edits)."""
        repo = corpus.repository
        selected = repo.log(since=Corpus.TAG_EVAL_START,
                            until=Corpus.TAG_EVAL_END)
        selected_ids = {commit.id for commit in selected}
        for record in corpus.eval_metadata:
            if record.shape == "merge":
                assert record.commit_id not in selected_ids
            elif record.shape in ("c_only", "h_only", "both") \
                    and record.edits:
                assert record.commit_id in selected_ids, record.shape

    def test_whitespace_commits_dropped_by_w(self, corpus):
        repo = corpus.repository
        ws_records = [record for record in corpus.eval_metadata
                      if record.shape == "ws"]
        if not ws_records:
            pytest.skip("no whitespace commits in this window")
        with_w = repo.log(since=Corpus.TAG_EVAL_START,
                          until=Corpus.TAG_EVAL_END)
        ids_with_w = {commit.id for commit in with_w}
        for record in ws_records:
            assert record.commit_id not in ids_with_w

    def test_shapes_cover_table_iii_classes(self, corpus):
        shapes = {record.shape for record in
                  corpus.history_metadata + corpus.eval_metadata}
        assert {"c_only", "both"} <= shapes

    def test_commit_diffs_match_declared_shape(self, corpus):
        repo = corpus.repository
        checked = 0
        for record in corpus.eval_metadata:
            if record.is_ignorable or not record.edits:
                continue
            patch = repo.show(record.commit_id)
            paths = patch.paths()
            has_c = any(path.endswith(".c") for path in paths)
            has_h = any(path.endswith(".h") for path in paths)
            if record.shape == "c_only":
                assert has_c and not has_h, record.commit_id
            elif record.shape == "h_only":
                assert has_h and not has_c
            elif record.shape == "both":
                assert has_h and has_c
            checked += 1
        assert checked > 20

    def test_janitors_touch_many_subsystems(self, corpus):
        """Breadth-first behaviour: janitor commits span subsystems."""
        by_author: dict[str, set[str]] = {}
        for record in corpus.history_metadata + corpus.eval_metadata:
            if record.author.kind is not PersonaKind.JANITOR:
                continue
            for edit in record.edits:
                by_author.setdefault(record.author.name, set()).add(
                    edit.path.rsplit("/", 1)[0])
        busiest = max(by_author.values(), key=len, default=set())
        assert len(busiest) >= 5

    def test_maintainers_stay_home(self, corpus):
        for record in corpus.eval_metadata:
            if record.author.kind is not PersonaKind.MAINTAINER:
                continue
            home = record.author.home_subsystems[0]
            for edit in record.edits:
                if edit.path.startswith("arch/"):
                    continue  # arch_rate applies to everyone
                assert edit.path.startswith(home + "/"), \
                    (record.author.name, edit.path)

    def test_hazard_edits_recorded(self, corpus):
        hazard_records = [record for record in
                          corpus.history_metadata + corpus.eval_metadata
                          if record.hazard_kinds()]
        assert hazard_records, "expected some hazard-touching commits"

    def test_edited_files_still_compile(self, corpus):
        """Spot-check: the head-state fs/ files still build end to end."""
        from repro.kbuild.build import BuildSystem
        head = corpus.repository.head()
        build = BuildSystem(head.tree.get,
                            path_lister=lambda: head.tree.paths())
        config = build.make_config("x86_64", "allyesconfig")
        compiled = 0
        for path in head.tree.paths():
            if path.endswith(".c") and path.startswith("fs/"):
                if not build.is_buildable(path, "x86_64", config):
                    continue  # e.g. negative-dependency drivers
                obj = build.make_o(path, "x86_64", config)
                assert obj.token_count > 0
                compiled += 1
        assert compiled >= 5
