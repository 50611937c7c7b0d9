"""Patches ``Repository.show`` memoizes stay as they were diffed.

``show`` hands every caller the same :class:`Patch` object, so one
caller mutating it would change what every later caller reads. After
the evaluation protocol and a fleet watch have both read the shared
corpus, every memoized patch must still render exactly like a fresh
diff of its commit.
"""

from repro import api


def test_pipeline_leaves_memoized_patches_untouched(small_corpus,
                                                    tmp_path):
    repository = small_corpus.repository
    api.EvaluationSession(small_corpus).run()
    api.watch(small_corpus, store=str(tmp_path / "verdicts.sqlite"),
              journal=str(tmp_path / "watch.jnl"),
              config=api.WatchConfig(fsync=False))
    memo = repository._patches
    assert len(memo) >= len(repository.commits_after(
        api.Corpus.TAG_EVAL_START))
    for (commit_id, ignore_whitespace), patch in memo.items():
        fresh = repository._diff(repository.resolve(commit_id),
                                 ignore_whitespace)
        assert patch.render() == fresh.render(), commit_id
