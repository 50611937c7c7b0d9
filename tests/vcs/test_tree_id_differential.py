"""Differential tests: ``Tree.id`` and ``Tree.with_files`` against their
earlier forms.

``Tree.id`` now hashes one joined ``path\\0text\\0...`` stream in one
call, and ``with_files`` copies its parent's sorted map, validates only
the paths the parent lacks, and sorts again only when one is added. The
oracles are the earlier code, copied verbatim: four ``update`` calls
per file over the sorted paths, and a ``with_files`` that builds a new
``Tree`` from the merged map (validating and sorting every path).

Inputs are generated file maps (nested and non-ASCII paths, empty,
non-ASCII and ``\\0``-holding texts) and chains of updates
that replace, add and mix both. Every commit of a generated history is
checked too, since its tree was built by a chain of ``with_files``.
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.vcs.objects import Tree
from repro.vcs.repository import LogOptions

# -- the oracle: the tree before this change -----------------------------------


def parent_tree_id(files: dict) -> str:
    """Content hash of the whole snapshot."""
    hasher = hashlib.sha256()
    for path, text in sorted(files.items()):
        hasher.update(path.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def parent_with_files(files: dict, updates: dict) -> dict:
    """The merged map ``with_files`` built a new validated tree from."""
    for path in updates:
        if path.startswith("/") or ".." in path.split("/"):
            raise ValueError(f"invalid tree path: {path!r}")
    merged = dict(files)
    merged.update(updates)
    return dict(sorted(merged.items()))


# -- generated inputs ----------------------------------------------------------------

segment = st.sampled_from(["drivers", "net", "a.c", "b.h", "é.c", "ü",
                           "Kconfig", "x", "a", "a.c.orig", "z"])
paths = st.lists(segment, min_size=1, max_size=3).map("/".join)
texts = st.text(max_size=40) | st.sampled_from(["", "\0", "int x;\n",
                                                 "héllo\n"])
file_maps = st.dictionaries(paths, texts, max_size=12)


def assert_same_tree(tree: Tree, files: dict) -> None:
    assert tree.id == parent_tree_id(files)
    assert tree.paths() == sorted(files)
    assert dict(tree.items()) == files


@settings(max_examples=300, deadline=None)
@given(file_maps)
def test_tree_id_matches_the_parent_hash(files):
    assert_same_tree(Tree(files), files)


@settings(max_examples=200, deadline=None)
@given(file_maps, st.lists(file_maps, max_size=5))
def test_with_files_chain_matches_fresh_trees(base, updates):
    """Each snapshot of a chain has the id, order and files of a tree
    built from scratch."""
    tree, files = Tree(base), dict(base)
    for update in updates:
        tree = tree.with_files(update)
        files = parent_with_files(files, update)
        assert_same_tree(tree, files)
        assert_same_tree(pickle.loads(pickle.dumps(tree)), files)


def test_empty_tree_hashes_nothing():
    assert Tree({}).id == hashlib.sha256().hexdigest()


@pytest.mark.parametrize("bad", ["/abs.c", "a/../b.c", ".."])
def test_with_files_validates_the_paths_it_adds(bad):
    tree = Tree({"a.c": "1"})
    with pytest.raises(ValueError, match="invalid tree path"):
        tree.with_files({"b.c": "2", bad: "3"})
    with pytest.raises(ValueError, match="invalid tree path"):
        Tree({bad: "3"})


def test_every_generated_commit_tree_matches(small_corpus):
    """A generated history's trees were built by ``with_files`` chains."""
    everything = LogOptions(modifications_only=False, no_merges=False)
    commits = small_corpus.repository.log(options=everything)
    assert len(commits) > 100
    for commit in commits:
        files = dict(commit.tree.items())
        assert_same_tree(commit.tree, files)
