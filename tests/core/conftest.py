"""Shared fixtures: a generated tree and JMake bound to it."""

import pytest

from repro.core.jmake import CheckSession
from repro.kernel.generator import generate_tree


@pytest.fixture(scope="session")
def tree():
    return generate_tree()


@pytest.fixture
def jmake(tree):
    return CheckSession.from_generated_tree(tree)


@pytest.fixture
def worktree(tree):
    return CheckSession.worktree_for_files(tree.files)


def edit_file(tree, worktree, path, old, new):
    """Produce (patch, post-edit worktree) for a one-string edit."""
    from repro.vcs.diff import Patch, diff_texts

    original = tree.files[path]
    assert old in original, f"{old!r} not found in {path}"
    edited = original.replace(old, new)
    files = dict(tree.files)
    files[path] = edited
    new_worktree = CheckSession.worktree_for_files(files)
    file_diff = diff_texts(path, original, edited)
    assert file_diff is not None
    return Patch(files=[file_diff]), new_worktree
