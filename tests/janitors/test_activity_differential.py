"""Differential tests: ``ActivityAnalyzer.analyze`` against its parent.

``analyze`` reads each commit's changed paths instead of its patch and
matches each distinct path against MAINTAINERS once per call instead of
once per read. The oracle is the method it replaced, copied verbatim
as a function: it read ``show(commit).paths()`` and called
``entries_for_path`` for every path of every commit. Both run over the
shared corpora, on copies with empty memos, for several windows and
log options.
"""

import pickle

import pytest

from repro.janitors.activity import ActivityAnalyzer, DeveloperActivity
from repro.kernel.maintainers import MaintainersDb
from repro.vcs.repository import LogOptions
from repro.workload.corpus import Corpus

CORPORA = ["small_corpus", "midsize_corpus"]
WINDOWS = [(None, None), (None, Corpus.TAG_EVAL_END),
           (Corpus.TAG_EVAL_START, Corpus.TAG_EVAL_END)]
OPTIONS = [None, LogOptions(ignore_whitespace=False),
           LogOptions(modifications_only=False, no_merges=False)]


def parent_analyze(repository, maintainers, since=None, until=None,
                   options=None):
    """Activity per developer email over the given window."""
    activities: dict[str, DeveloperActivity] = {}
    for commit in repository.log(since=since, until=until,
                                 options=options):
        email = commit.author.email
        activity = activities.get(email)
        if activity is None:
            activity = DeveloperActivity(name=commit.author.name,
                                         email=email)
            activities[email] = activity
        patch = repository.show(commit)
        paths = patch.paths()
        if not paths:
            continue
        activity.patches += 1
        is_maintainer_patch = False
        for path in paths:
            activity.file_touches[path] = \
                activity.file_touches.get(path, 0) + 1
            for entry in maintainers.entries_for_path(path):
                activity.subsystems.add(entry.name)
                activity.lists.update(entry.lists)
                if email in entry.maintainer_emails():
                    is_maintainer_patch = True
        if is_maintainer_patch:
            activity.maintainer_patches += 1
    return activities


def fresh_copy(repository):
    """The same history with empty memos (pickling drops them)."""
    return pickle.loads(pickle.dumps(repository))


@pytest.mark.parametrize("corpus_name", CORPORA)
def test_same_activities_as_parent(request, corpus_name):
    corpus = request.getfixturevalue(corpus_name)
    maintainers = corpus.tree.maintainers
    repository = fresh_copy(corpus.repository)
    for since, until in WINDOWS:
        for options in OPTIONS:
            expected = parent_analyze(repository, maintainers,
                                      since, until, options)
            actual = ActivityAnalyzer(repository, maintainers).analyze(
                since=since, until=until, options=options)
            assert list(actual) == list(expected)
            assert actual == expected, (since, until, options)
    # the maintainer-email match is exercised, not vacuous
    assert any(activity.maintainer_patches for activity in
               ActivityAnalyzer(repository, maintainers).analyze().values())


@pytest.mark.parametrize("corpus_name", CORPORA)
def test_each_distinct_path_is_matched_once_per_call(request, monkeypatch,
                                                     corpus_name):
    corpus = request.getfixturevalue(corpus_name)
    repository = fresh_copy(corpus.repository)
    matched = []
    entries_for_path = MaintainersDb.entries_for_path

    def counting_entries_for_path(self, path):
        matched.append(path)
        return entries_for_path(self, path)

    monkeypatch.setattr(MaintainersDb, "entries_for_path",
                        counting_entries_for_path)
    analyzer = ActivityAnalyzer(repository, corpus.tree.maintainers)
    read = [path for commit in repository.log()
            for path in repository.changed_paths(commit)]
    assert len(read) > len(set(read))   # paths repeat across commits
    for _ in range(2):
        # the map belongs to one call: a second call matches again
        matched.clear()
        analyzer.analyze()
        assert sorted(matched) == sorted(set(read))
