"""Tests for trees and commits."""

import hashlib
import pickle

import pytest

from repro.vcs.objects import Commit, Signature, Tree


def sig(name="Dev", email="dev@example.org", date="2015-11-10T00:00:00"):
    return Signature(name=name, email=email, date=date)


class TestTree:
    def test_ids_depend_on_content(self):
        a = Tree({"f.c": "int x;\n"})
        b = Tree({"f.c": "int y;\n"})
        assert a.id != b.id

    def test_ids_stable_across_insertion_order(self):
        a = Tree(dict([("a.c", "1"), ("b.c", "2")]))
        b = Tree(dict([("b.c", "2"), ("a.c", "1")]))
        assert a.id == b.id

    def test_rejects_absolute_paths(self):
        with pytest.raises(ValueError):
            Tree({"/etc/passwd": "x"})

    def test_rejects_parent_escapes(self):
        with pytest.raises(ValueError):
            Tree({"a/../b.c": "x"})

    def test_with_files_returns_new_tree(self):
        base = Tree({"a.c": "1"})
        updated = base.with_files({"b.c": "2"})
        assert "b.c" not in base
        assert updated["b.c"] == "2"
        assert updated["a.c"] == "1"

    def test_without_files(self):
        base = Tree({"a.c": "1", "b.c": "2"})
        trimmed = base.without_files(["a.c"])
        assert "a.c" not in trimmed
        assert "b.c" in trimmed

    def test_glob_by_suffix_and_prefix(self):
        tree = Tree({
            "drivers/net/a.c": "",
            "drivers/net/a.h": "",
            "fs/ext4/b.c": "",
        })
        assert tree.glob(suffix=".c") == ["drivers/net/a.c", "fs/ext4/b.c"]
        assert tree.glob(prefix="drivers") == ["drivers/net/a.c",
                                               "drivers/net/a.h"]
        assert tree.glob(prefix="drivers/", suffix=".h") == ["drivers/net/a.h"]

    def test_iteration_is_sorted(self):
        tree = Tree({"z.c": "", "a.c": ""})
        assert list(tree) == ["a.c", "z.c"]

    def test_get_default(self):
        tree = Tree({})
        assert tree.get("missing") is None
        assert tree.get("missing", "dflt") == "dflt"


class TestCommit:
    def test_id_changes_with_message(self):
        tree = Tree({"a.c": "1"})
        c1 = Commit(tree=tree, author=sig(), message="one")
        c2 = Commit(tree=tree, author=sig(), message="two")
        assert c1.id != c2.id

    def test_merge_detection(self):
        tree = Tree({})
        root = Commit(tree=tree, author=sig(), message="root")
        merge = Commit(tree=tree, author=sig(), message="merge",
                       parents=(root.id, root.id))
        assert not root.is_merge
        assert merge.is_merge

    def test_subject_is_first_line(self):
        commit = Commit(tree=Tree({}), author=sig(),
                        message="fix: things\n\nLong body.")
        assert commit.subject == "fix: things"


def recomputed_commit_id(commit: Commit) -> str:
    """The commit hash recomputed from its fields on each read."""
    hasher = hashlib.sha256()
    hasher.update(commit.tree.id.encode("ascii"))
    hasher.update(str(commit.author).encode("utf-8"))
    hasher.update(commit.author.date.encode("utf-8"))
    hasher.update(commit.message.encode("utf-8"))
    for parent in commit.parents:
        hasher.update(parent.encode("ascii"))
    return hasher.hexdigest()


def recomputed_tree_id(files: dict) -> str:
    """The tree hash over its files in sorted path order."""
    hasher = hashlib.sha256()
    for path in sorted(files):
        hasher.update(path.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(files[path].encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


class TestStoredIds:
    def _commits(self):
        root = Commit(tree=Tree({"b.c": "2", "a.c": "1"}), author=sig(),
                      message="root\n\nbody")
        child = Commit(tree=Tree({"a.c": "3"}), author=sig(name="Other"),
                       message="child", parents=(root.id,))
        merge = Commit(tree=Tree({}), author=sig(date="2016-01-01"),
                       message="merge", parents=(root.id, child.id))
        return [root, child, merge]

    def test_commit_id_equals_the_recomputed_hash(self):
        for commit in self._commits():
            assert commit.id == recomputed_commit_id(commit)

    def test_commit_id_survives_pickling(self):
        for commit in self._commits():
            loaded = pickle.loads(pickle.dumps(commit))
            assert loaded.id == commit.id == recomputed_commit_id(loaded)

    def test_replace_recomputes_the_id(self):
        import dataclasses
        commit = self._commits()[0]
        edited = dataclasses.replace(commit, message="edited")
        assert edited.id == recomputed_commit_id(edited) != commit.id

    def test_tree_keeps_paths_sorted(self):
        files = {"z/a.c": "1", "a.c": "2", "arch/x/b.c": "3", "arch.c": "4"}
        tree = Tree(files)
        assert tree.paths() == sorted(files) == list(tree)
        assert tree.id == recomputed_tree_id(files)
        assert tree.with_files({"b.c": "5"}).paths() == \
            sorted([*files, "b.c"])
        assert pickle.loads(pickle.dumps(tree)).paths() == sorted(files)
