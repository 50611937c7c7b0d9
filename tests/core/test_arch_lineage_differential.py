"""Differential tests: the arch/ index carried along the tree lineage.

A tree made by ``Tree.with_files`` remembers its base and the paths
whose text it changed or added. ``ArchSelector`` takes its arch/ index
from the nearest tree of the lineage that holds one, unless a tree on
the way updated an arch/ path, and reads the arch/ files through the
worktree as before when the overlay or the untracked files hold an
arch/ path. The oracle is the index read before, copied verbatim: every
arch/ file of the worktree read through its provider on every check.

Inputs are Hypothesis histories that add, edit and whitespace-only
edit arch/ files and Makefiles, touch other files or nothing, check
some of the trees (in order and out of order) and mutate an arch/ or a
driver ``.c`` file in the overlay of a check; and every commit of both
shared corpora, checked in apply order.
"""

import pickle
from bisect import bisect_left
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.archselect import ArchSelector, _ArchIndex, _arch_index
from repro.kbuild.build import BuildSystem
from repro.util.rng import DeterministicRng
from repro.vcs.objects import Commit, Signature, Tree
from repro.vcs.repository import LogOptions, Repository, Worktree
from tests.core.test_archselect_differential import (
    ARCH_PATHS,
    NAMES,
    _base_files,
    arch_texts,
)


class ParentArchSelector(ArchSelector):
    """The arch/ index as each check read it before, as the oracle."""

    def _mention_index(self) -> _ArchIndex:
        """The index of this check's arch/ files, each read once."""
        if self._index is None:
            paths = self._paths()
            # sorted paths put arch/ in one slice: "0" follows "/"
            start = bisect_left(paths, "arch/")
            stop = bisect_left(paths, "arch0", start)
            provider = self._provider
            files = []
            for path in paths[start:stop]:
                if path.count("/") >= 2:
                    text = provider(path)
                    if text is not None:
                        files.append((path, text))
            self._index = _arch_index(tuple(files))
        return self._index


SIGNATURE = Signature("dev", "dev@example.org", "2016-01-01T00:00:00")
SOURCES = [f"drivers/dut/f{index}.c" for index in range(len(NAMES))] + [
    "drivers/dut/stray.c", "arch/arm/kernel/setup.c"]


def _index_content(index: _ArchIndex):
    return dict(index.dirs), dict(index.configs)


def assert_same_check(worktree: Worktree, sources=SOURCES) -> None:
    """The carried index and every selection equal the oracle's."""
    def selector(cls, **extra):
        build = BuildSystem(worktree.as_file_provider(),
                            path_lister=worktree.paths)
        return cls(build, worktree.paths, worktree.as_file_provider(),
                   rng=DeterministicRng("lineage"), **extra)

    carried = selector(ArchSelector,
                       committed_tree=worktree.committed_tree)
    read = selector(ParentArchSelector)
    assert _index_content(carried._mention_index()) == \
        _index_content(read._mention_index())
    for source in sources:
        got, want = carried.select(source), read.select(source)
        assert (got.candidates, got.unsupported, got.no_makefile) == \
            (want.candidates, want.unsupported, want.no_makefile), source


# -- generated histories ------------------------------------------------------

MAKEFILES = ["drivers/dut/Makefile", "arch/arm/kernel/Makefile"]
OTHERS = ["drivers/dut/f0.c", "drivers/dut/new.c", "kernel/new.c"]


class Step(NamedTuple):
    """One commit of a generated history."""
    kind: str        # what the commit updates
    arch_path: str
    arch_text: str
    makefile: str
    name: str        # a variable the update or the overlay mentions
    other: str
    checked: bool
    overlay: "str | None" = None  # a path the check mutates in place


#: a check of a tree as committed, after the history
AS_COMMITTED = Step("same", "", "", "", "FOO", "", True)


@st.composite
def steps(draw):
    return Step(
        draw(st.sampled_from(["arch", "arch_ws", "makefile",
                              "makefile_ws", "other", "same"])),
        draw(st.sampled_from(ARCH_PATHS)), draw(arch_texts()),
        draw(st.sampled_from(MAKEFILES)), draw(st.sampled_from(NAMES)),
        draw(st.sampled_from(OTHERS)), draw(st.booleans()),
        draw(st.sampled_from([None, "arch/arm/kernel/setup.c",
                              "arch/x86/kernel/a.c", "drivers/dut/f0.c"])))


def _update(tree: Tree, step: Step) -> dict[str, str]:
    if step.kind == "arch":
        return {step.arch_path: step.arch_text}
    if step.kind == "arch_ws":
        return {step.arch_path: (tree.get(step.arch_path) or "") + " \n"}
    if step.kind == "makefile":
        return {step.makefile: (tree.get(step.makefile) or "")
                + f"obj-$(CONFIG_{step.name}) += stray.o\n"}
    if step.kind == "makefile_ws":
        return {step.makefile: (tree.get(step.makefile) or "") + "\t\n"}
    if step.kind == "other":
        return {step.other: f"int x; /* CONFIG_{step.name} */\n"}
    return {path: tree[path] for path in tree.paths()[:3]}


def _checkout(tree: Tree, message: str, step: Step) -> Worktree:
    worktree = Worktree(Repository(), Commit(tree, SIGNATURE, message))
    if step.overlay is not None and step.overlay in tree:
        worktree.write(step.overlay, tree[step.overlay]
                       + f"int m; /* CONFIG_{step.name} */\n")
    return worktree


class TestLineageMatchesRead:
    @given(arch_texts(), st.lists(steps(), min_size=1, max_size=12),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_histories(self, setup_text, history, check_base):
        files = {**_base_files(),
                 "arch/arm/kernel/setup.c": setup_text,
                 "arch/arm/kernel/Makefile": "obj-y += setup.o\n",
                 "arch/x86/kernel/a.c": "int a;\n"}
        tree = Tree(files)
        trees = [tree]
        if check_base:
            assert_same_check(_checkout(tree, "base", history[0]))
        for number, step in enumerate(history):
            tree = tree.with_files(_update(tree, step))
            trees.append(tree)
            if step.checked:
                assert_same_check(_checkout(tree, str(number), step))
        # out of order: every tree again, newest first, as committed
        for number, tree in enumerate(reversed(trees)):
            assert_same_check(_checkout(tree, f"again {number}",
                                        AS_COMMITTED))

    def test_an_added_arch_file_breaks_the_lineage(self):
        base = Tree({**_base_files(), "arch/arm/Kconfig": "config FOO\n"})
        assert_same_check(_checkout(base, "base", AS_COMMITTED))
        added = base.with_files({"arch/x86/Kconfig": "config FOO\n"})
        assert added._updated == ("arch/x86/Kconfig",)
        assert_same_check(_checkout(added, "added", AS_COMMITTED))
        carried = ArchSelector(
            BuildSystem(added.get), added.paths, added.get,
            committed_tree=lambda prefix: added)._mention_index()
        assert carried.dirs["FOO"] == ("arm", "x86")

    def test_an_overlaid_arch_file_is_read(self):
        tree = Tree({**_base_files(), "arch/arm/kernel/setup.c": "int s;\n"})
        worktree = _checkout(tree, "base", AS_COMMITTED)
        assert_same_check(worktree)
        worktree.write("arch/arm/kernel/setup.c", "int s; /* CONFIG_FOO */\n")
        assert worktree.committed_tree("arch/") is None
        assert_same_check(worktree)

    def test_a_loaded_tree_is_a_root(self):
        base = Tree({**_base_files(), "arch/arm/Kconfig": "config FOO\n"})
        child = base.with_files({"drivers/dut/f0.c": "int f0;\n"})
        assert child.__getstate__() == {"files": dict(child.items()),
                                        "id": None}
        loaded = pickle.loads(pickle.dumps(child))
        assert (loaded._base, loaded._updated, loaded._carried) == \
            (None, (), None)
        assert_same_check(_checkout(loaded, "loaded", AS_COMMITTED))


# -- both shared corpora --------------------------------------------------------


@pytest.mark.parametrize("corpus_name", ["small_corpus", "midsize_corpus"])
def test_every_commit_of_the_corpus(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    everything = LogOptions(modifications_only=False, no_merges=False)
    commits = corpus.repository.log(options=everything)
    assert len(commits) > 100
    sampled = [path for path in commits[-1].tree.paths()
               if path.endswith(".c")][::7]
    arch_commits = 0
    for commit in commits:
        worktree = corpus.repository.checkout(commit)
        arch_commits += any(path.startswith("arch/")
                            for path in commit.tree._updated)
        changed = [path for path in corpus.repository.changed_paths(commit)
                   if path.endswith(".c")]
        assert_same_check(worktree, changed + sampled)
    assert arch_commits > 0
