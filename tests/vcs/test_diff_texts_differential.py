"""Differential tests: ``diff_texts`` against the version it replaced.

``diff_texts`` splits each text once, squeezes each side's lines in one
comprehension under ``-w`` and appends hunk lines directly. The oracle
is the function it replaced, copied verbatim: it split through
``split_lines_keepends`` and normalized through a nested function per
line. Inputs are generated text pairs and every modified file pair of
the shared corpora, under both ``-w`` values. ``texts_differ`` must say
"differs" exactly when the oracle returns a FileDiff.
"""

import difflib

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.text import split_lines_keepends
from repro.vcs.diff import (
    FileDiff,
    Hunk,
    HunkLine,
    LineKind,
    diff_texts,
    texts_differ,
)
from repro.vcs.repository import LogOptions

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


def assert_same(old: str, new: str) -> None:
    for ignore_whitespace in (True, False):
        for context in (0, 1, 3):
            expected = parent_diff_texts(
                "f.c", old, new, context=context,
                ignore_whitespace=ignore_whitespace)
            actual = diff_texts("f.c", old, new, context=context,
                                ignore_whitespace=ignore_whitespace)
            assert actual == expected, (old, new, ignore_whitespace,
                                        context)
            if actual is not None:
                assert actual.render() == expected.render()
        assert texts_differ(old, new,
                            ignore_whitespace=ignore_whitespace) \
            == (expected is not None), (old, new, ignore_whitespace)


# lines drawn from a small pool so that pairs share lines, with every
# kind of whitespace str.split() knows about but "\n"
PIECES = ("int", "x", "=", "1;", "{", "}", "a", "", " ", "  ", "\t",
          "\r", "\x0b", "\x0c", "\u2028", "\x1c", "\x85")
SPACES = PIECES[8:]
lines = st.lists(st.sampled_from(PIECES), max_size=5).map("".join)
texts = st.builds(lambda body, newline: "\n".join(body)
                  + ("\n" if newline else ""),
                  st.lists(lines, max_size=12), st.booleans())


@st.composite
def edited(draw, text):
    """The text after one edit, often one that -w cannot see."""
    kind = draw(st.sampled_from(
        ["whitespace", "move_break", "add_blank", "drop_newline",
         "toggle_final", "replace", "anything"]))
    at = draw(st.integers(0, len(text)))
    if kind == "whitespace":
        space = draw(st.sampled_from(SPACES))
        return text[:at] + space + text[at:]
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
    if kind == "drop_newline":
        breaks = [index for index, ch in enumerate(text) if ch == "\n"]
        if not breaks:
            return text
        cut = draw(st.sampled_from(breaks))
        return text[:cut] + text[cut + 1:]
    if kind == "toggle_final":
        return text[:-1] if text.endswith("\n") else text + "\n"
    if kind == "replace":
        return text[:at] + draw(lines) + text[at:]
    return draw(texts)


@st.composite
def text_pairs(draw):
    old = draw(texts)
    new = old
    for _ in range(draw(st.integers(1, 3))):
        new = draw(edited(new))
    return old, new


class TestDiffTextsMatchesParent:
    @given(text_pairs())
    @settings(max_examples=600, deadline=None)
    def test_generated_pairs(self, pair):
        assert_same(*pair)

    @pytest.mark.parametrize("old, new", [
        ("", ""), ("", "\n"), ("\n", ""), ("a", "a\n"), ("a\n", "a"),
        ("a\n", "a\n\n"), ("a b\n", "ab\n"), ("a b\n", "a\nb\n"),
        ("a\n\nb\n", "a\nb\n"), ("a\r\n", "a\n"), ("a\u2028b", "ab"),
        ("x\n" * 20, "x\n" * 9 + "y\n" + "x\n" * 10),
    ])
    def test_edge_pairs(self, old, new):
        assert_same(old, new)

    @pytest.mark.parametrize("corpus_name",
                             ["small_corpus", "midsize_corpus"])
    def test_every_modified_file_of_the_shared_corpora(self, request,
                                                       corpus_name):
        repository = request.getfixturevalue(corpus_name).repository
        pairs = 0
        for commit in repository.log(options=EVERY_COMMIT):
            old_tree = repository.parent_tree(commit)
            for path, new_text in commit.tree.items():
                old_text = old_tree.get(path)
                if old_text is None or old_text == new_text:
                    continue
                pairs += 1
                for ignore_whitespace in (True, False):
                    expected = parent_diff_texts(
                        path, old_text, new_text,
                        ignore_whitespace=ignore_whitespace)
                    assert diff_texts(
                        path, old_text, new_text,
                        ignore_whitespace=ignore_whitespace) == expected
                    assert texts_differ(
                        old_text, new_text,
                        ignore_whitespace=ignore_whitespace) \
                        == (expected is not None)
        assert pairs > 100
