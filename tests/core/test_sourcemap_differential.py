"""Differential tests: SourceMap against its earlier forms.

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

``SourceMap`` now keeps one ``LineClass`` per line, the macro regions
and the comment-end pairs of the lines that have one, builds a
``LineInfo`` only when asked, and sends a line with neither ``/`` nor
``#`` to CODE (COMMENT inside a block comment) without the memo.
``ParentSourceMap`` is the class before that, copied verbatim: a
``LineInfo`` per line from the memo. Every query is compared on
generated texts, on lines that close an entry comment and open another
(``b */ c /* d``, whose pair is ``(False, 4)``), on ``*``-led lines
outside a comment, and on every file text of both shared corpora.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import sourcemap
from repro.core.sourcemap import (
    LineClass,
    LineInfo,
    MacroRegion,
    SourceMap,
    _CONDITIONAL_KEYWORDS,
    _directive_keyword,
    _is_pure_comment,
    _line_facts,
    _macro_name,
    _strip_comment_state,
)
from repro.util.text import split_lines_keepends
from repro.vcs.repository import LogOptions


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


class ParentSourceMap:
    """Per-line classification of one file's text."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines: list[LineInfo] = []
        self.macros: list[MacroRegion] = []
        self._analyze()

    # -- queries -----------------------------------------------------------

    def info(self, lineno: int) -> LineInfo:
        """The LineInfo for a 1-based line number."""
        if not 1 <= lineno <= len(self.lines):
            raise IndexError(f"{self.path}: no line {lineno}")
        return self.lines[lineno - 1]

    def classify(self, lineno: int) -> LineClass:
        """The LineClass for a 1-based line number."""
        return self.info(lineno).line_class

    def macro_at(self, lineno: int) -> MacroRegion | None:
        """The macro region covering the line, or None."""
        return self.info(lineno).macro

    def last_conditional_before(self, lineno: int) -> int:
        """1-based line of the nearest conditional directive strictly
        before ``lineno``; 0 when none (i.e. since file start)."""
        for index in range(lineno - 2, -1, -1):
            if self.lines[index].line_class is LineClass.CONDITIONAL:
                return index + 1
        return 0

    def line_count(self) -> int:
        """Number of physical lines in the file."""
        return len(self.lines)

    # -- analysis -------------------------------------------------------------

    def _analyze(self) -> None:
        physical = [line.rstrip("\n")
                    for line in split_lines_keepends(self.text)]
        in_block_comment = False
        index = 0
        while index < len(physical):
            raw = physical[index]
            facts = _line_facts(raw, in_block_comment)
            in_block_comment = facts.exit_state
            if facts.line_class is not None:
                self.lines.append(LineInfo(
                    lineno=index + 1, text=raw, line_class=facts.line_class,
                    starts_mid_comment=facts.starts_mid_comment,
                    comment_end_column=facts.comment_end_column))
                index += 1
                continue
            # A #define: extend through continuations.
            end_index = index
            while end_index < len(physical) - 1 and \
                    physical[end_index].rstrip(" \t").endswith("\\"):
                end_index += 1
            region = MacroRegion(name=facts.macro_name, start=index + 1,
                                 end=end_index + 1)
            self.macros.append(region)
            for offset in range(index, end_index + 1):
                self.lines.append(LineInfo(
                    lineno=offset + 1, text=physical[offset],
                    line_class=LineClass.MACRO_DEF, macro=region))
                # Comment state may change inside the macro body.
                if offset != index:
                    in_block_comment = _line_facts(
                        physical[offset], in_block_comment).exit_state
            index = end_index + 1


class LoopSourceMap(ParentSourceMap):
    """The whole-file analysis without the line memo, as the oracle."""
    _analyze = parent_analyze


def _assert_cold_then_warm(path: str, text: str) -> None:
    want = _snapshot(LoopSourceMap(path, text))
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
            want = _snapshot(LoopSourceMap(path, tree.files[path]))
            assert _snapshot(SourceMap(path, tree.files[path])) == want
        for path in sorted(tree.files):
            want = _snapshot(LoopSourceMap(path, tree.files[path]))
            assert _snapshot(SourceMap(path, tree.files[path])) == want


#: a line that closes the comment it entered and opens another: it does
#: not start mid-comment (it ends inside one), yet its column is 4
REOPENED = "/* a\nb */ c /* d\ne */ f;\n"

#: lines that close an entry comment: ``… */ … /* …`` and its kin
CLOSERS = ["b */ c /* d", "*/ /*", "b */ c", "b */ /* d */ e", "*/",
           " * b */ c /* d", "b */ \"/*\" /* d", "b */ c // d /* e",
           "#if A */ /* b", "#define M */ x /* y"]
#: ``*``-led lines with neither ``/`` nor ``#``: code outside a comment
STARRED = [" * b", "*", "\t* x;", " *", "** y", " * 1;"]


@st.composite
def reopening_texts(draw):
    """Texts whose comments close and reopen on one line."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        lines.append(draw(st.one_of(
            st.sampled_from(CLOSERS), st.sampled_from(STARRED),
            st.sampled_from(["/* a", "/*", "x;", "", "#define M \\",
                             "#if B", "c /* d */ e", "// f"]))))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _queries(source_map) -> list:
    """Every query's answer for every line, and the out-of-range ones."""
    answers = []
    count = source_map.line_count()
    for lineno in range(1, count + 1):
        info = source_map.info(lineno)
        macro = source_map.macro_at(lineno)
        answers.append((
            lineno, info.lineno, info.text, source_map.classify(lineno),
            None if macro is None else (macro.name, macro.start, macro.end),
            info.starts_mid_comment, info.comment_end_column,
            source_map.last_conditional_before(lineno)))
    for lineno in (0, count + 1):
        for query in (source_map.info, source_map.classify,
                      source_map.macro_at):
            with pytest.raises(IndexError) as caught:
                query(lineno)
            answers.append(str(caught.value))
    answers.append(source_map.last_conditional_before(count + 1))
    return answers


def _assert_same_as_parent(path: str, text: str) -> None:
    parent = ParentSourceMap(path, text)
    compact = SourceMap(path, text)
    assert _snapshot(compact) == _snapshot(parent), path
    assert _queries(compact) == _queries(parent), path
    assert compact.classes == [info.line_class for info in parent.lines]


def _corpus_texts(corpus) -> dict[str, str]:
    """Every distinct (path, text) of every commit of a corpus."""
    everything = LogOptions(modifications_only=False, no_merges=False)
    texts: dict[tuple[str, str], None] = {}
    for commit in corpus.repository.log(options=everything):
        for path, text in commit.tree.items():
            texts[path, text] = None
    return texts


class TestCompactMatchesParent:
    @given(source_texts())
    @settings(max_examples=300, deadline=None)
    def test_source_maps(self, text):
        _assert_same_as_parent("gen.c", text)

    @given(reopening_texts())
    @settings(max_examples=300, deadline=None)
    def test_reopened_comments(self, text):
        _assert_same_as_parent("reopen.c", text)

    def test_closing_and_reopening_line(self):
        _assert_same_as_parent("reopen.c", REOPENED)
        info = SourceMap("reopen.c", REOPENED).info(2)
        assert (info.starts_mid_comment, info.comment_end_column) \
            == (False, 4)
        assert info.line_class is LineClass.CODE

    def test_starred_lines_outside_a_comment_are_code(self):
        text = "int a;\n" + "\n".join(STARRED) + "\n/*\n * b\n */\n"
        _assert_same_as_parent("star.c", text)
        classes = SourceMap("star.c", text).classes
        assert classes[1:1 + len(STARRED)] == [LineClass.CODE] * len(STARRED)
        assert classes[-2] is LineClass.COMMENT

    @pytest.mark.parametrize("corpus_name", ["small_corpus",
                                             "midsize_corpus"])
    def test_every_text_of_every_commit(self, corpus_name, request):
        corpus = request.getfixturevalue(corpus_name)
        texts = _corpus_texts(corpus)
        assert len(texts) > 300
        for path, text in texts:
            _assert_same_as_parent(path, text)
