"""Differential tests: SourceMap's comment stripper against its loop.

``_strip_comment_state`` returns a line unchanged when it opens no
comment and does not start inside one. The oracle is the
character-by-character loop it short-cuts, copied verbatim. Whole
SourceMaps are compared too, built once with each stripper: line
classes, macro regions, ``starts_mid_comment`` and
``comment_end_column``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import sourcemap
from repro.core.sourcemap import SourceMap, _strip_comment_state


def parent_strip_comment_state(line: str, in_block: bool
                               ) -> tuple[str, bool, int]:
    """Strip comments from one line given entry state.

    Returns (visible_text, exit_state, end_column) where ``end_column``
    is the index just past the last ``*/`` that closed an entry-state
    comment (0 if not applicable).
    """
    out: list[str] = []
    i = 0
    n = len(line)
    end_column = 0
    entered_in_block = in_block
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True, end_column
            in_block = False
            i = end + 2
            if entered_in_block:
                end_column = i
                entered_in_block = False
            out.append(" ")
            continue
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if ch in "\"'":
            j = i + 1
            while j < n:
                if line[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if line[j] == ch:
                    j += 1
                    break
                j += 1
            out.append(line[i:j])
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block, end_column


PIECES = ["/*", "*/", "//", "/", "*", '"', "'", "\\", " ", "\t", "x",
          "int a = 1;", '"/*"', "'/'", '"a\\"b"', "#define M(x) x",
          "#define N", "#if A", "#ifdef B", "#elif C", "#else", "#endif",
          "#include <a.h>", "# define S 1"]
ENDS = ["\n", "\\\n", "\r\n", ""]


@st.composite
def source_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        pieces = draw(st.lists(st.sampled_from(PIECES), max_size=5))
        lines.append("".join(pieces) + draw(st.sampled_from(ENDS)))
    return "".join(lines)


def _snapshot(source_map: SourceMap):
    return ([(info.lineno, info.text, info.line_class,
              None if info.macro is None else
              (info.macro.name, info.macro.start, info.macro.end),
              info.starts_mid_comment, info.comment_end_column)
             for info in source_map.lines],
            [(region.name, region.start, region.end)
             for region in source_map.macros])


def _assert_same_map(path: str, text: str) -> None:
    fast = _snapshot(SourceMap(path, text))
    with mock.patch.object(sourcemap, "_strip_comment_state",
                           parent_strip_comment_state):
        loop = _snapshot(SourceMap(path, text))
    assert fast == loop, path


class TestStripMatchesLoop:
    @given(st.text(alphabet="ab /*\"'\\\t", max_size=16), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_lines(self, line, in_block):
        assert _strip_comment_state(line, in_block) == \
            parent_strip_comment_state(line, in_block)

    @given(source_texts())
    @settings(max_examples=300, deadline=None)
    def test_source_maps(self, text):
        _assert_same_map("gen.c", text)

    def test_every_file_of_generated_tree(self, tree):
        for path in sorted(tree.files):
            _assert_same_map(path, tree.files[path])
