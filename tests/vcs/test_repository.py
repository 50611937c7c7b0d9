"""Tests for repository history, log filtering, and worktrees."""

import pickle

import pytest

import repro.vcs.repository
from repro.errors import VcsError
from repro.vcs.diff import diff_texts, Patch, texts_differ
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import LogOptions, Repository


def sig(name="Dev", email="dev@example.org", date="2015-11-10T00:00:00"):
    return Signature(name=name, email=email, date=date)


@pytest.fixture
def repo_with_history():
    repo = Repository()
    t0 = Tree({"a.c": "int a;\n", "b.c": "int b;\n"})
    c0 = repo.commit(t0, sig("Base"), "initial")
    repo.tag("v4.3", c0.id)

    t1 = t0.with_files({"a.c": "int a2;\n"})
    c1 = repo.commit(t1, sig("Alice"), "change a")

    t2 = t1.with_files({"b.c": "int  b ;\n"})  # whitespace-only
    c2 = repo.commit(t2, sig("Bob"), "reformat b")

    merge = repo.commit(t2, sig("Linus"), "Merge branch",
                        parents=(c2.id, c1.id))

    t3 = t2.with_files({"c.c": "int c;\n"})  # pure addition (not a mod)
    c3 = repo.commit(t3, sig("Carol"), "add c.c")

    t4 = t3.with_files({"c.c": "int c2;\n"})
    c4 = repo.commit(t4, sig("Dan"), "modify c.c")
    repo.tag("v4.4", c4.id)
    return repo, (c0, c1, c2, merge, c3, c4)


def long_history(length=40):
    """A root commit, then ``length`` commits modifying one file each.

    Every fifth commit only reformats its file, so ``-w`` filters it
    out of the stream; every commit still has exactly one file whose
    text differs from its parent's.
    """
    repo = Repository()
    files = {f"f{n}.c": f"int f{n};\n" for n in range(4)}
    tree = Tree(files)
    repo.commit(tree, sig("Base"), "initial")
    for index in range(length):
        path = f"f{index % 4}.c"
        text = tree[path]
        text = text.replace(" ", "  ", 1) if index % 5 == 4 \
            else f"int v{index};\n"
        tree = tree.with_files({path: text})
        repo.commit(tree, sig(f"Dev{index % 3}"), f"change {index}")
    return repo


def drain(repo, limit):
    """Every stream commit, pulled ``limit`` at a time."""
    cursor, seen = None, []
    while True:
        pulled = repo.commits_after(cursor, limit=limit)
        if not pulled:
            return seen
        seen.extend(pulled)
        cursor = pulled[-1].id


class TestCommitGraph:
    def test_implicit_parent_chain(self, repo_with_history):
        repo, commits = repo_with_history
        c0, c1 = commits[0], commits[1]
        assert c1.parents == (c0.id,)

    def test_unknown_parent_rejected(self):
        repo = Repository()
        with pytest.raises(VcsError):
            repo.commit(Tree({}), sig(), "bad", parents=("deadbeef",))

    def test_resolve_by_prefix(self, repo_with_history):
        repo, commits = repo_with_history
        target = commits[1]
        assert repo.resolve(target.id[:12]).id == target.id

    def test_resolve_unknown(self, repo_with_history):
        repo, _ = repo_with_history
        with pytest.raises(VcsError):
            repo.resolve("zzzz")

    def test_tag_resolution(self, repo_with_history):
        repo, commits = repo_with_history
        assert repo.resolve("v4.3").id == commits[0].id

    def test_head(self, repo_with_history):
        repo, commits = repo_with_history
        assert repo.head().id == commits[-1].id

    def test_empty_repo_head_raises(self):
        with pytest.raises(VcsError):
            Repository().head()


class TestLog:
    def test_log_filters_match_paper_invocation(self, repo_with_history):
        """-w --diff-filter=M --no-merges between the tags."""
        repo, commits = repo_with_history
        selected = repo.log(since="v4.3", until="v4.4")
        messages = [commit.message for commit in selected]
        # whitespace-only commit dropped by -w; merge dropped; addition
        # dropped by --diff-filter=M.
        assert messages == ["change a", "modify c.c"]

    def test_log_without_whitespace_filter(self, repo_with_history):
        repo, _ = repo_with_history
        options = LogOptions(ignore_whitespace=False)
        selected = repo.log(since="v4.3", until="v4.4", options=options)
        assert "reformat b" in [commit.message for commit in selected]

    def test_log_keeps_merges_when_asked(self, repo_with_history):
        repo, _ = repo_with_history
        options = LogOptions(no_merges=False, modifications_only=False)
        selected = repo.log(since="v4.3", until="v4.4", options=options)
        assert "Merge branch" in [commit.message for commit in selected]

    def test_log_full_range(self, repo_with_history):
        # The root commit has no parent, so --diff-filter=M drops it too.
        repo, _ = repo_with_history
        selected = repo.log()
        assert [commit.message for commit in selected] == \
            ["change a", "modify c.c"]


class TestCommitsAfter:
    """The fleet pull surface: cursor-based incremental streaming."""

    def test_none_cursor_streams_from_the_root(self,
                                               repo_with_history):
        repo, _ = repo_with_history
        assert [c.id for c in repo.commits_after()] == \
            [c.id for c in repo.log()]

    def test_cursor_excludes_itself(self, repo_with_history):
        repo, commits = repo_with_history
        pulled = repo.commits_after(commits[0].id)
        assert commits[0].id not in [c.id for c in pulled]

    def test_limit_truncates(self, repo_with_history):
        repo, _ = repo_with_history
        assert len(repo.commits_after(limit=1)) == 1

    def test_bad_limit_raises(self, repo_with_history):
        repo, _ = repo_with_history
        with pytest.raises(VcsError, match="limit"):
            repo.commits_after(limit=0)

    def test_cursor_walk_covers_the_stream_exactly_once(
            self, repo_with_history):
        repo, _ = repo_with_history
        cursor, seen = None, []
        while True:
            pulled = repo.commits_after(cursor, limit=1)
            if not pulled:
                break
            seen.extend(c.id for c in pulled)
            cursor = pulled[-1].id
        assert seen == [c.id for c in repo.log()]

    def test_unknown_cursor_raises(self, repo_with_history):
        repo, _ = repo_with_history
        with pytest.raises(VcsError, match="unknown ref"):
            repo.commits_after("zzzz")

    @pytest.mark.parametrize("limit", [1, 8])
    def test_draining_walks_and_diffs_each_commit_once(self, monkeypatch,
                                                       limit):
        """A pull stops at its limit instead of walking the rest of the
        stream, and no commit is diffed twice. The ``--diff-filter=M``
        test reads changed paths, which compare texts but build no
        hunks."""
        repo = long_history()
        walked, compared, diffed = [], [], []
        changed_paths = Repository.changed_paths

        def counting_changed_paths(self, commit, *args, **kwargs):
            walked.append(commit.id)
            return changed_paths(self, commit, *args, **kwargs)

        def counting_texts_differ(*args, **kwargs):
            compared.append(args)
            return texts_differ(*args, **kwargs)

        def counting_diff_texts(path, *args, **kwargs):
            diffed.append(path)
            return diff_texts(path, *args, **kwargs)

        monkeypatch.setattr(Repository, "changed_paths",
                            counting_changed_paths)
        monkeypatch.setattr(repro.vcs.repository, "texts_differ",
                            counting_texts_differ)
        monkeypatch.setattr(repro.vcs.repository, "diff_texts",
                            counting_diff_texts)
        seen = drain(repo, limit)
        assert len(walked) == len(set(walked)) == len(repo)
        # the root commit has no parent to diff against
        assert len(compared) == len(repo) - 1
        assert diffed == []
        assert [c.id for c in seen] == [c.id for c in repo.log()]

    def test_new_commits_show_up_on_the_next_pull(self,
                                                  repo_with_history):
        repo, commits = repo_with_history
        cursor = repo.head().id
        assert repo.commits_after(cursor) == []
        t_new = repo.head().tree.with_files({"c.c": "int c3;\n"})
        fresh = repo.commit(t_new, sig("Eve"), "modify c.c again")
        assert [c.id for c in repo.commits_after(cursor)] == [fresh.id]


class TestShow:
    def test_show_produces_patch(self, repo_with_history):
        repo, commits = repo_with_history
        patch = repo.show(commits[1])
        assert patch.paths() == ["a.c"]
        added = patch.files[0].hunks[0].added_lines()
        assert [line.text for line in added] == ["int a2;"]

    def test_show_by_id_string(self, repo_with_history):
        repo, commits = repo_with_history
        patch = repo.show(commits[1].id)
        assert patch.paths() == ["a.c"]

    def test_show_root_commit_has_no_modifications(self, repo_with_history):
        repo, commits = repo_with_history
        assert repo.show(commits[0]).files == []


class TestShowMemo:
    """``show`` diffs each (commit, -w flag) once and shares the patch."""

    def test_repeated_show_returns_the_same_object(self,
                                                    repo_with_history):
        repo, commits = repo_with_history
        assert repo.show(commits[1]) is repo.show(commits[1])

    def test_commit_and_ref_share_one_entry(self, repo_with_history):
        repo, commits = repo_with_history
        patch = repo.show(commits[1])
        assert repo.show(commits[1].id) is patch
        assert repo.show(commits[1].id[:12]) is patch

    @pytest.mark.parametrize("whitespace_first", [True, False])
    def test_whitespace_flag_keys_its_own_entry(self, repo_with_history,
                                                whitespace_first):
        repo, commits = repo_with_history
        reformat = commits[2]
        if whitespace_first:
            exact = repo.show(reformat, ignore_whitespace=False)
            ignoring = repo.show(reformat)
        else:
            ignoring = repo.show(reformat)
            exact = repo.show(reformat, ignore_whitespace=False)
        assert ignoring.files == []
        assert exact.paths() == ["b.c"]

    def test_pickle_drops_the_memo(self):
        """A corpus shipped to spawned workers carries no patches."""
        fresh, shown = long_history(), long_history()
        keys = [(commit_id, ignore_whitespace)
                for commit_id in shown._order
                for ignore_whitespace in (True, False)]
        patches = [shown.show(*key).render() for key in keys]
        payload = pickle.dumps(shown)
        assert len(payload) <= len(pickle.dumps(fresh))
        clone = pickle.loads(payload)
        assert [clone.show(*key).render() for key in keys] == patches
        assert [c.id for c in clone.commits_after(shown._order[3])] == \
            [c.id for c in shown.commits_after(shown._order[3])]


class TestChangedPaths:
    """``changed_paths`` names what ``show`` diffs, without diffing."""

    def test_paths_of_a_modification(self, repo_with_history):
        repo, commits = repo_with_history
        assert repo.changed_paths(commits[1]) == ("a.c",)
        assert repo.changed_paths(commits[1].id[:12]) == ("a.c",)

    def test_root_and_pure_addition_change_nothing(self,
                                                   repo_with_history):
        repo, commits = repo_with_history
        assert repo.changed_paths(commits[0]) == ()
        assert repo.changed_paths(commits[4]) == ()

    def test_whitespace_flag_keys_its_own_entry(self, repo_with_history):
        repo, commits = repo_with_history
        reformat = commits[2]
        assert repo.changed_paths(reformat) == ()
        assert repo.changed_paths(reformat, ignore_whitespace=False) \
            == ("b.c",)
        assert repo.changed_paths(reformat) == ()

    def test_memoized_and_not_diffed(self, repo_with_history, monkeypatch):
        repo, commits = repo_with_history
        first = repo.changed_paths(commits[1])
        monkeypatch.setattr(repro.vcs.repository, "texts_differ", None)
        assert repo.changed_paths(commits[1]) is first
        assert repo._patches == {}


class TestWorktree:
    def test_checkout_reads_tree(self, repo_with_history):
        repo, commits = repo_with_history
        tree = repo.checkout(commits[1])
        assert tree.read("a.c") == "int a2;\n"

    def test_overlay_write_and_reset(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[1])
        worktree.write("a.c", "MUTATED\n")
        assert worktree.read("a.c") == "MUTATED\n"
        worktree.reset_hard()
        assert worktree.read("a.c") == "int a2;\n"

    def test_untracked_survives_reset_only_if_not_cleaned(self,
                                                          repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[1])
        worktree.write_untracked("a.i", "preprocessed")
        assert worktree.read("a.i") == "preprocessed"
        worktree.clean()
        assert not worktree.exists("a.i")

    def test_overlay_untracked_rejected(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[1])
        with pytest.raises(VcsError):
            worktree.write("nonexistent.c", "x")

    def test_missing_read_raises(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[1])
        with pytest.raises(VcsError):
            worktree.read("missing.c")

    def test_apply_patch_mutates_overlay(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[0])
        file_diff = diff_texts("a.c", "int a;\n", "int a; /* note */\n")
        worktree.apply_patch(Patch(files=[file_diff]))
        assert worktree.read("a.c") == "int a; /* note */\n"

    def test_file_provider_view(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[0])
        provider = worktree.as_file_provider()
        assert provider("a.c") == "int a;\n"
        assert provider("missing.h") is None

    def test_paths_union(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[0])
        worktree.write_untracked("gen.i", "")
        assert "gen.i" in worktree.paths()
        assert "a.c" in worktree.paths()

    @staticmethod
    def _union_paths(worktree):
        """The set-union form of the worktree's paths."""
        all_paths = set(worktree.commit.tree.paths())
        all_paths.update(worktree.overlay)
        all_paths.update(worktree.untracked)
        return sorted(all_paths)

    def test_paths_equal_the_union_form(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[-1])
        assert worktree.paths() == self._union_paths(worktree)
        worktree.write("a.c", "int mutated;\n")
        assert worktree.paths() == self._union_paths(worktree)
        for path in ("0.i", "a.i", "zz/gen.o", "a.c"):
            worktree.write_untracked(path, "")
            assert worktree.paths() == self._union_paths(worktree)
        worktree.clean()
        assert worktree.paths() == self._union_paths(worktree)

    def test_provider_reads_each_layer_in_order(self, repo_with_history):
        repo, commits = repo_with_history
        worktree = repo.checkout(commits[0])
        provider = worktree.as_file_provider()
        worktree.write_untracked("gen.i", "generated")
        worktree.write_untracked("a.c", "untracked a")
        assert provider("a.c") == worktree.read("a.c") == "untracked a"
        worktree.write("a.c", "")
        assert provider("a.c") == worktree.read("a.c") == ""
        assert provider("gen.i") == "generated"
        worktree.reset_hard()
        assert provider("a.c") == worktree.read("a.c") == "int a;\n"
        assert provider("gen.i") is None
        assert not worktree.exists("gen.i")
