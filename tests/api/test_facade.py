"""The ``repro.api`` facade: completeness and the one-shot helpers."""

import pytest

from repro import api


class TestSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_sessions_are_the_real_classes(self):
        from repro.core.jmake import CheckSession
        from repro.evalsuite.runner import EvaluationSession
        from repro.service.service import CheckService
        assert api.CheckSession is CheckSession
        assert api.EvaluationSession is EvaluationSession
        assert api.CheckService is CheckService

    def test_schema_constants_exported(self):
        assert api.SCHEMA_VERSION >= 2
        assert callable(api.migrate_record)

    def test_store_and_watch_names_are_the_real_classes(self):
        from repro.service.watch import WatchSession, WindowSource
        from repro.store.store import VerdictStore
        from repro.store.query import StoredVerdict, VerdictFilter
        assert api.VerdictStore is VerdictStore
        assert api.VerdictFilter is VerdictFilter
        assert api.StoredVerdict is StoredVerdict
        assert api.WatchSession is WatchSession
        assert api.WindowSource is WindowSource
        assert isinstance(api.OUT_DIR_DEFAULTS, dict)


class TestValidateJobs:
    def test_accepts_positive_ints(self):
        assert api.validate_jobs(1) == 1
        assert api.validate_jobs(25) == 25

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", None, True])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError,
                           match="must be a positive integer"):
            api.validate_jobs(bad)

    def test_custom_label_lands_in_message(self):
        with pytest.raises(ValueError, match="--shards"):
            api.validate_jobs(0, what="--shards")


class TestOneShotHelpers:
    def test_check_patch_on_demo_edit(self):
        tree = api.generate_tree()
        path = "drivers/staging/comedi/comedi0.c"
        original = tree.files[path]
        edited = original.replace("int status = 0;",
                                  "int status = 0;\n\tint extra = 1;")
        files = dict(tree.files)
        files[path] = edited
        worktree = api.CheckSession.worktree_for_files(files)
        patch = api.Patch(files=[api.diff_texts(path, original,
                                                edited)])
        report = api.check_patch(worktree, patch, tree=tree)
        assert report.verdict == "CERTIFIED"
        assert report.to_dict()["schema_version"] == api.SCHEMA_VERSION

    def test_check_commit_matches_session(self, small_corpus,
                                          checkable_commits):
        commit = checkable_commits[0]
        via_helper = api.check_commit(small_corpus.tree,
                                      small_corpus.repository, commit)
        session = api.CheckSession.from_generated_tree(
            small_corpus.tree)
        direct = session.check_commit(small_corpus.repository, commit)
        assert via_helper.to_dict() == direct.to_dict()

    def test_evaluate_helper_runs_window(self, small_corpus):
        result = api.evaluate(small_corpus, limit=3,
                              use_ground_truth_janitors=True)
        assert len(result.patches) == 3

    def test_serve_helper_builds_service(self, small_corpus,
                                         checkable_commits):
        service = api.serve(small_corpus,
                            config=api.ServiceConfig(shards=2))
        results = service.check_commits(
            [checkable_commits[0].id])
        assert len(results) == 1
        assert results[0].verdict


class TestReadSurface:
    """The fleet-mode read helpers: open, query, rank, watch."""

    def test_open_store_round_trips_a_record(self, tmp_path):
        record = api.check_patch(
            api.CheckSession.worktree_for_files(
                {"a.c": "int x;\n"}),
            api.Patch(files=[api.diff_texts("a.c", "int x;\n",
                                            "int x;\nint y;\n")]),
            tree=None)
        path = str(tmp_path / "v.sqlite")
        with api.open_store(path) as store:
            store.ingest(dict(record.to_dict(), commit="c1",
                              journal={"dedup_key": "c1"}))
        assert api.query_verdicts(path)[0].commit == "c1"

    def test_query_verdicts_accepts_path_and_object(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with api.open_store(path) as store:
            assert api.query_verdicts(store) == []
        assert api.query_verdicts(path) == []

    def test_janitor_report_empty_store(self, tmp_path):
        assert api.janitor_report(str(tmp_path / "v.sqlite")) == []

    def test_watch_is_the_service_entry_point(self):
        import repro.service.watch as watch_module
        assert api.WatchSession is watch_module.WatchSession


class TestResolveOutputs:
    def test_overrides_win_over_out_dir(self, tmp_path):
        out = api.resolve_outputs(str(tmp_path / "fleet"), {
            "stats": None, "journal": "/x/custom.jnl"})
        assert out["stats"].endswith("fleet/stats.json")
        assert out["journal"] == "/x/custom.jnl"
        import os
        assert os.path.isdir(tmp_path / "fleet")

    def test_without_out_dir_unset_sinks_stay_off(self):
        out = api.resolve_outputs(None, {"stats": None,
                                         "events": "e.jsonl"})
        assert out == {"stats": None, "events": "e.jsonl"}

    def test_unknown_sink_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown output sink"):
            api.resolve_outputs(None, {"flotsam": None})

    def test_out_dir_over_a_file_is_rejected(self, tmp_path):
        clash = tmp_path / "taken"
        clash.write_text("not a directory")
        with pytest.raises(ValueError, match="not a directory"):
            api.resolve_outputs(str(clash), {"stats": None})
