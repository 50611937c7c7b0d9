"""Differential tests: ``Repository.changed_paths`` against diffing.

``changed_paths`` lists the files ``show`` would diff from one walk of
the two trees' path → text maps and a whitespace-squeezed comparison,
without building hunks. The oracle is the walk it replaced, copied
verbatim: three ``Tree`` calls per path, then the old ``diff_texts``
(also copied verbatim), keeping the paths it returned a FileDiff for.

Inputs are generated tree pairs, built from edits ``-w`` must see
through (whitespace only, a moved line break, blank lines, a final
newline, ``\\t``/``\\r``/``\\x0b``/``\\x0c``/``\\u2028``), empty files and
added and removed paths, and every commit of the shared corpora, under
both ``-w`` values. Each commit is asked before and after ``show``.
"""

import difflib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.text import split_lines_keepends
from repro.vcs.diff import FileDiff, Hunk, HunkLine, LineKind
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import LogOptions, Repository

EVERY_COMMIT = LogOptions(modifications_only=False, no_merges=False)


def parent_diff_texts(path: str, old: str, new: str, *, context: int = 3,
                      ignore_whitespace: bool = False) -> FileDiff | None:
    """Produce a :class:`FileDiff` between two file texts.

    Returns ``None`` when the texts are equal (or, with
    ``ignore_whitespace``, equal modulo whitespace — the ``-w`` behaviour
    the paper's git invocation uses).
    """
    old_lines = [line.rstrip("\n") for line in split_lines_keepends(old)]
    new_lines = [line.rstrip("\n") for line in split_lines_keepends(new)]

    if ignore_whitespace:
        def normalize(line: str) -> str:
            return "".join(line.split())
        matcher = difflib.SequenceMatcher(
            a=[normalize(line) for line in old_lines],
            b=[normalize(line) for line in new_lines], autojunk=False)
    else:
        matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines,
                                          autojunk=False)

    file_diff = FileDiff(path=path)
    for group in matcher.get_grouped_opcodes(context):
        first, last = group[0], group[-1]
        hunk = Hunk(
            old_start=first[1] + 1 if first[2] > first[1] else first[1],
            old_count=last[2] - first[1],
            new_start=first[3] + 1 if first[4] > first[3] else first[3],
            new_count=last[4] - first[3],
        )
        # difflib start for empty ranges needs the "line before" convention.
        if hunk.old_count == 0:
            hunk.old_start = first[1]
        else:
            hunk.old_start = first[1] + 1
        if hunk.new_count == 0:
            hunk.new_start = first[3]
        else:
            hunk.new_start = first[3] + 1
        for tag, i1, i2, j1, j2 in group:
            if tag in ("equal",):
                for offset, line in enumerate(old_lines[i1:i2]):
                    hunk.lines.append(HunkLine(
                        LineKind.CONTEXT, line,
                        old_lineno=i1 + offset + 1,
                        new_lineno=j1 + offset + 1))
            if tag in ("replace", "delete"):
                for offset, line in enumerate(old_lines[i1:i2]):
                    hunk.lines.append(HunkLine(
                        LineKind.REMOVED, line,
                        old_lineno=i1 + offset + 1, new_lineno=None))
            if tag in ("replace", "insert"):
                for offset, line in enumerate(new_lines[j1:j2]):
                    hunk.lines.append(HunkLine(
                        LineKind.ADDED, line,
                        old_lineno=None, new_lineno=j1 + offset + 1))
        file_diff.hunks.append(hunk)
    if not file_diff.hunks:
        return None
    return file_diff


def parent_changed_paths(repository, commit, ignore_whitespace):
    """The paths the old ``Repository._diff`` kept."""
    old_tree = repository.parent_tree(commit)
    new_tree = commit.tree
    paths = []
    for path in new_tree.paths():
        if path not in old_tree:
            continue
        old_text = old_tree[path]
        new_text = new_tree[path]
        if old_text == new_text:
            continue
        file_diff = parent_diff_texts(path, old_text, new_text,
                                      ignore_whitespace=ignore_whitespace)
        if file_diff is not None:
            paths.append(path)
    return tuple(paths)


def assert_matches_oracle(repository, commits, show_first=False):
    """changed_paths equals the oracle whether it is asked before or
    after show, and show lists exactly those paths."""
    for commit in commits:
        for ignore_whitespace in (True, False):
            expected = parent_changed_paths(repository, commit,
                                            ignore_whitespace)
            if show_first:
                patch = repository.show(commit, ignore_whitespace)
            first = repository.changed_paths(commit, ignore_whitespace)
            if not show_first:
                patch = repository.show(commit, ignore_whitespace)
            again = repository.changed_paths(commit.id, ignore_whitespace)
            assert first == again == expected, (commit.id,
                                                ignore_whitespace)
            assert tuple(patch.paths()) == expected


def fresh_copy(repository):
    """The same history with empty memos (pickling drops them)."""
    return pickle.loads(pickle.dumps(repository))


SIG = Signature("Dev", "dev@example.org", "2015-11-10T00:00:00")
PATHS = ("a.c", "b.h", "dir/c.c", "dir/d.h", "Documentation/e.txt")
PIECES = ("int", "x", "=", "1;", "{", "}", "a", "", " ", "  ", "\t",
          "\r", "\x0b", "\x0c", "\u2028")
SPACES = PIECES[8:]
lines = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
texts = st.builds(lambda body, newline: "\n".join(body)
                  + ("\n" if newline else ""),
                  st.lists(lines, max_size=8), st.booleans())


@st.composite
def edited(draw, text):
    """The text after one edit, often one that -w cannot see."""
    kind = draw(st.sampled_from(
        ["keep", "whitespace", "move_break", "add_blank", "drop_blank",
         "toggle_final", "replace", "empty", "anything"]))
    at = draw(st.integers(0, len(text)))
    if kind == "keep":
        return text
    if kind == "whitespace":
        return text[:at] + draw(st.sampled_from(SPACES)) + text[at:]
    if kind == "move_break":
        breaks = [index for index, ch in enumerate(text) if ch == "\n"]
        if breaks:
            cut = draw(st.sampled_from(breaks))
            text = text[:cut] + text[cut + 1:]
            at = min(at, len(text))
        return text[:at] + "\n" + text[at:]
    if kind == "add_blank":
        starts = [0] + [index + 1 for index, ch in enumerate(text)
                        if ch == "\n"]
        at = draw(st.sampled_from(starts))
        return text[:at] + "\n" + text[at:]
    if kind == "drop_blank":
        blanks = [index for index in range(len(text))
                  if text[index] == "\n"
                  and (index == 0 or text[index - 1] == "\n")]
        if not blanks:
            return text
        cut = draw(st.sampled_from(blanks))
        return text[:cut] + text[cut + 1:]
    if kind == "toggle_final":
        return text[:-1] if text.endswith("\n") else text + "\n"
    if kind == "replace":
        return text[:at] + draw(lines) + text[at:]
    if kind == "empty":
        return ""
    return draw(texts)


@st.composite
def histories(draw):
    """A repository of 2-4 commits: each later tree edits, adds and
    removes files of the one before."""
    repository = Repository()
    files = {path: draw(texts)
             for path in draw(st.lists(st.sampled_from(PATHS),
                                       unique=True, max_size=5))}
    repository.commit(Tree(files), SIG, "root")
    for step in range(draw(st.integers(1, 3))):
        files = {path: draw(edited(text)) for path, text in files.items()
                 if not draw(st.booleans()) or draw(st.booleans())}
        for path in draw(st.lists(st.sampled_from(PATHS), unique=True,
                                  max_size=2)):
            files.setdefault(path, draw(texts))
        repository.commit(Tree(files), SIG, f"step {step}")
    return repository


class TestChangedPathsMatchesDiffing:
    @given(histories())
    @settings(max_examples=400, deadline=None)
    def test_generated_trees(self, repository):
        commits = repository.log(options=EVERY_COMMIT)
        assert_matches_oracle(repository, commits)
        assert_matches_oracle(fresh_copy(repository), commits,
                              show_first=True)

    @pytest.mark.parametrize("old, new, ignoring, exact", [
        ("int a;\n", "int  a;\n", (), ("f.c",)),         # whitespace only
        ("int a;\n", "int\na;\n", ("f.c",), ("f.c",)),   # moved line break
        ("a\nb\n", "a\n\nb\n", ("f.c",), ("f.c",)),      # blank line added
        ("a\n", "a", (), ()),                            # final newline
        ("a\tb\n", "a\x0cb\r\n", (), ("f.c",)),
        ("a\u2028b\n", "ab\n", (), ("f.c",)),
        ("", "\n", ("f.c",), ("f.c",)),
        ("", " ", ("f.c",), ("f.c",)),
    ])
    def test_edge_edits(self, old, new, ignoring, exact):
        repository = Repository()
        repository.commit(Tree({"f.c": old}), SIG, "root")
        commit = repository.commit(Tree({"f.c": new}), SIG, "edit")
        assert repository.changed_paths(commit) == ignoring
        assert repository.changed_paths(commit, False) == exact
        assert_matches_oracle(fresh_copy(repository), [commit])

    @pytest.mark.parametrize("corpus_name",
                             ["small_corpus", "midsize_corpus"])
    def test_every_commit_of_the_shared_corpora(self, request,
                                                corpus_name):
        shared = request.getfixturevalue(corpus_name).repository
        repository = fresh_copy(shared)
        commits = repository.log(options=EVERY_COMMIT)
        assert len(commits) == len(repository)
        assert_matches_oracle(repository, commits)
