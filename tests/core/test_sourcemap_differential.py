"""Differential tests: SourceMap's comment stripper against its loop.

``_strip_comment_state`` returns a line unchanged when it opens no
comment and does not start inside one. The oracle is the
character-by-character loop it short-cuts, copied verbatim. Whole
SourceMaps are compared too, built once with each stripper from a
cleared line memo: line classes, macro regions, ``starts_mid_comment``
and ``comment_end_column``.

``SourceMap`` classifies each distinct (line, entry comment state)
pair once, through a process-wide LRU. ``parent_analyze`` is the
whole-file analysis without it, copied verbatim; every example is
checked with the memo cleared and then again warm.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import sourcemap
from repro.core.sourcemap import (
    LineClass,
    LineInfo,
    MacroRegion,
    SourceMap,
    _CONDITIONAL_KEYWORDS,
    _directive_keyword,
    _is_pure_comment,
    _macro_name,
    _strip_comment_state,
)
from repro.util.text import split_lines_keepends


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
    # the line memo would answer the second build from the first's
    # facts, so each build starts cold, and the loop's facts are
    # dropped before any other test reads the memo
    sourcemap._line_facts.cache_clear()
    fast = _snapshot(SourceMap(path, text))
    sourcemap._line_facts.cache_clear()
    try:
        with mock.patch.object(sourcemap, "_strip_comment_state",
                               parent_strip_comment_state):
            loop = _snapshot(SourceMap(path, text))
    finally:
        sourcemap._line_facts.cache_clear()
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


def parent_analyze(self) -> None:
    physical = [line.rstrip("\n")
                for line in split_lines_keepends(self.text)]
    in_block_comment = False
    index = 0
    while index < len(physical):
        raw = physical[index]
        started_in_comment = in_block_comment
        visible, in_block_comment, end_column = _strip_comment_state(
            raw, in_block_comment)
        lineno = index + 1

        if started_in_comment and not visible.strip() \
                and in_block_comment:
            # Entire line inside an unterminated block comment.
            self.lines.append(LineInfo(
                lineno=lineno, text=raw, line_class=LineClass.COMMENT))
            index += 1
            continue
        if not visible.strip() and (started_in_comment or
                                    _is_pure_comment(raw)):
            self.lines.append(LineInfo(
                lineno=lineno, text=raw, line_class=LineClass.COMMENT))
            index += 1
            continue

        keyword = _directive_keyword(visible)
        if keyword == "define":
            start = lineno
            # Extend through continuations.
            end_index = index
            while end_index < len(physical) - 1 and \
                    physical[end_index].rstrip(" \t").endswith("\\"):
                end_index += 1
            name = _macro_name(visible)
            region = MacroRegion(name=name, start=start,
                                 end=end_index + 1)
            self.macros.append(region)
            for offset in range(index, end_index + 1):
                self.lines.append(LineInfo(
                    lineno=offset + 1, text=physical[offset],
                    line_class=LineClass.MACRO_DEF, macro=region))
                # Comment state may change inside the macro body.
                if offset != index:
                    _, in_block_comment, _ = _strip_comment_state(
                        physical[offset], in_block_comment)
            index = end_index + 1
            continue
        if keyword in _CONDITIONAL_KEYWORDS:
            line_class = LineClass.CONDITIONAL
        elif keyword is not None and keyword != "":
            line_class = LineClass.DIRECTIVE
        else:
            line_class = LineClass.CODE
        self.lines.append(LineInfo(
            lineno=lineno, text=raw, line_class=line_class,
            starts_mid_comment=started_in_comment and not in_block_comment,
            comment_end_column=end_column if started_in_comment else 0))
        index += 1


class ParentSourceMap(SourceMap):
    """The whole-file analysis without the line memo, as the oracle."""
    _analyze = parent_analyze


def _assert_cold_then_warm(path: str, text: str) -> None:
    want = _snapshot(ParentSourceMap(path, text))
    sourcemap._line_facts.cache_clear()
    assert _snapshot(SourceMap(path, text)) == want, "cold"
    assert _snapshot(SourceMap(path, text)) == want, "warm"


#: the same physical line entered outside and then inside a comment
BOTH_STATES = "a */ b\n/*\na */ b\n"


class TestLineMemoMatchesParent:
    @given(source_texts())
    @settings(max_examples=300, deadline=None)
    def test_source_maps(self, text):
        _assert_cold_then_warm("gen.c", text)

    def test_one_line_under_both_entry_states(self):
        _assert_cold_then_warm("both.c", BOTH_STATES)
        lines = SourceMap("both.c", BOTH_STATES).lines
        assert (lines[0].starts_mid_comment, lines[0].comment_end_column) \
            == (False, 0)
        assert (lines[2].starts_mid_comment, lines[2].comment_end_column) \
            == (True, 4)

    def test_define_continuation_under_both_entry_states(self):
        text = "#define M(x) \\\n/* x */ x\n/*\n/* x */ x\n"
        _assert_cold_then_warm("define.c", text)

    def test_every_file_of_generated_tree(self, tree):
        sourcemap._line_facts.cache_clear()
        for path in sorted(tree.files):
            want = _snapshot(ParentSourceMap(path, tree.files[path]))
            assert _snapshot(SourceMap(path, tree.files[path])) == want
        for path in sorted(tree.files):
            want = _snapshot(ParentSourceMap(path, tree.files[path]))
            assert _snapshot(SourceMap(path, tree.files[path])) == want
