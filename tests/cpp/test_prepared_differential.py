"""Differential tests: shared line records and memoized include candidates.

``prepare_text`` prepares each distinct (logical line, span, entry
comment state) once, through a process-wide LRU, and returns records
that carry a ``span`` instead of a physical ``start``/``end``. The oracle
is the per-file loop it replaces, copied verbatim with its
``PreparedLine``/``PreparedFile`` classes and helpers; positions are
rebuilt from the spans and compared with the oracle's. Every example is
checked with the memo cleared and then again warm, in one process, so a
memo answering one text from another's facts fails here.

``Preprocessor._resolve_include`` takes its candidate paths from an LRU
keyed by (target, angled, including file, include roots). The oracle is
the inline computation it replaces, copied verbatim; the resolved path,
the probe order and the missing-include list must match.
"""

import posixpath

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpp import preprocessor as preprocessor_module
from repro.cpp import prepared
from repro.cpp.lexer import CommentStripper
from repro.cpp.preprocessor import Preprocessor
from repro.kernel.generator import generate_tree
from repro.util.text import split_lines_keepends


# -- the parent's prepare_text, verbatim ------------------------------------

class ParentPreparedLine:
    """One logical line, pre-stripped, pre-spliced, pre-classified.

    ``start``/``end`` are the 1-based physical line range the logical
    line spans (inclusive). For directive lines, ``directive`` is the
    keyword ("" for the null directive) and ``rest`` the pre-stripped
    text after it; for ordinary text lines both are None and ``blank``
    says whether the line is whitespace-only after stripping.
    """

    __slots__ = ("text", "start", "end", "directive", "rest", "blank")

    def __init__(self, text: str, start: int, end: int,
                 directive: str | None, rest: str | None,
                 blank: bool) -> None:
        self.text = text
        self.start = start
        self.end = end
        self.directive = directive
        self.rest = rest
        self.blank = blank


class ParentPreparedFile:
    """The prepared (content-only) form of one source file."""

    __slots__ = ("lines", "line_count", "leaf")

    def __init__(self, lines: tuple[ParentPreparedLine, ...],
                 line_count: int) -> None:
        self.lines = lines
        self.line_count = line_count
        #: no #include directive anywhere -> replay-cache eligible
        self.leaf = all(line.directive != "include" for line in lines)


def parent_splice_logical_line(lines: list[str],
                               index: int) -> tuple[str, int]:
    """Join backslash-continued physical lines into one logical line.

    Returns ``(logical_text, next_index)``; the logical line spans
    physical lines ``index .. next_index - 1`` (0-based).
    """
    parts: list[str] = []
    while index < len(lines):
        raw = lines[index].rstrip("\n")
        trimmed = raw.rstrip(" \t")
        if trimmed.endswith("\\") and index + 1 < len(lines):
            parts.append(trimmed[:-1])
            index += 1
            continue
        parts.append(raw)
        index += 1
        break
    return "".join(parts), index


def parent_directive_name(stripped_line: str) -> str | None:
    """The directive keyword, or None for ordinary text lines."""
    text = stripped_line.lstrip(" \t")
    if not text.startswith("#"):
        return None
    rest = text[1:].lstrip(" \t")
    name = ""
    for ch in rest:
        if ch.isalpha():
            name += ch
        else:
            break
    return name  # may be "" for a null directive "#"


def parent_prepare_text(text: str) -> ParentPreparedFile:
    """Strip, splice, and classify one file's content (pure function)."""
    lines = split_lines_keepends(text)
    stripper = CommentStripper()
    prepared: list[ParentPreparedLine] = []
    index = 0
    count = len(lines)
    while index < count:
        start = index + 1
        logical, index = parent_splice_logical_line(lines, index)
        stripped = stripper.strip_line(logical)
        directive = parent_directive_name(stripped)
        if directive is None:
            prepared.append(ParentPreparedLine(
                stripped, start, index, None, None,
                not stripped.strip()))
        else:
            body = stripped.strip()[1:].strip()
            rest = body[len(directive):].strip()
            prepared.append(ParentPreparedLine(
                stripped, start, index, directive, rest, False))
    return ParentPreparedFile(tuple(prepared), count)


# -- the parent's include resolution, verbatim ------------------------------

def parent_resolve_include(self, target: str, angled: bool,
                           including_file: str) -> str | None:
    candidates: list[str] = []
    if not angled:
        base = posixpath.dirname(including_file)
        candidates.append(posixpath.normpath(posixpath.join(base, target))
                          if base else target)
    for search in self._include_paths:
        candidates.append(posixpath.normpath(
            posixpath.join(search, target)))
    for candidate in candidates:
        if self._provider(candidate) is not None:
            return candidate
        self._missing_probes.append(candidate)
    return None


# -- helpers -----------------------------------------------------------------

def parent_view(text: str):
    pfile = parent_prepare_text(text)
    lines = [(line.text, line.start, line.end, line.directive, line.rest,
              line.blank) for line in pfile.lines]
    return lines, pfile.line_count, pfile.leaf


def view(pfile: prepared.PreparedFile):
    """The records with positions rebuilt from the spans."""
    lines = []
    end = 0
    for line in pfile.lines:
        start = end + 1
        end += line.span
        lines.append((line.text, start, end, line.directive, line.rest,
                      line.blank))
    return lines, pfile.line_count, pfile.leaf


def assert_matches_parent(text: str) -> None:
    """Cold (cleared memo) and then warm, against the oracle."""
    expected = parent_view(text)
    prepared.clear_caches()
    assert view(prepared.prepare_text(text)) == expected, "cold"
    assert view(prepared.prepare_text(text)) == expected, "warm"


@pytest.fixture(autouse=True)
def cold_fast_path():
    prepared.configure(True)
    preprocessor_module._include_candidates.cache_clear()
    yield
    prepared.configure(True)


# -- prepare_text ------------------------------------------------------------

#: one-or-more-line pieces the text strategy strings together
FRAGMENTS = [
    "int a;",
    "   ",
    "",
    "#",
    "# /* null */",
    "#define A 1",
    "#define A \\",
    "1",
    "#define LONG(x) \\",
    "\t((x) + 1)",
    "#include <linux/a.h>",
    '#include "b.h"',
    "#if 0",
    "#endif",
    "int open; /* block",
    "still inside",
    "close */ int after;",
    "#define C 2 /* opener in a spliced line \\",
    "more */ int tail;",
    "// line comment \\",
    "int hidden;",
    "int s; \\  ",
    "int t; \\\t",
    'char *q = "/* not a comment */";',
    "char c = '\\\\';",
    "int été = 1; /* café */",
    "/* whole */ #define D 4",
    "  #  ifdef CONFIG_X",
]


@st.composite
def source_texts(draw):
    pieces = draw(st.lists(st.sampled_from(FRAGMENTS), max_size=14))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(pieces)
    if pieces and draw(st.booleans()):
        text += newline
    return text


class TestPrepareTextMatchesParent:
    @given(source_texts())
    @settings(max_examples=600, deadline=None)
    def test_fragment_texts(self, text):
        assert_matches_parent(text)

    @given(st.text(alphabet="ab#/*\\ \t\n\r\"'é", max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_random_texts(self, text):
        assert_matches_parent(text)

    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "#",
        "int z; \\",
        "int z; \\\n",
        "int a; /* open\nstill\nclose */ int b;\n",
        "#define C 2 /* c \\\nmore */ int d;\nint e;\n",
        "// note \\\nint hidden;\nint shown;\n",
        "#define S 1 \\  \n + 2\n",
        "int a;\r\n#define B 2\r\n",
        "int é = 1;\n/* ü */\n",
    ])
    def test_named_texts(self, text):
        assert_matches_parent(text)

    def test_last_backslash_is_not_a_continuation(self):
        pfile = prepared.prepare_text("int a;\nint z; \\")
        assert pfile.lines[-1].text == "int z; \\"
        assert [line.span for line in pfile.lines] == [1, 1]

    def test_same_logical_line_with_other_span(self):
        # both lines splice to "#define A 1"; only the span differs
        text = "#define A \\\n1\n#define A 1\nint x = __LINE__;\n"
        assert_matches_parent(text)
        assert [line.span for line in prepared.prepare_text(text).lines] \
            == [2, 1, 1]

    def test_same_line_under_other_comment_state(self):
        text = "still\nint a; /* open\nstill\n*/\nstill\n"
        assert_matches_parent(text)
        lines = prepared.prepare_text(text).lines
        assert lines[0].text == "still" and lines[2].blank


# -- sharing -----------------------------------------------------------------

class TestSharing:
    def test_shared_line_is_one_record(self):
        first = prepared.prepare_text("int shared;\nint a;\n")
        second = prepared.prepare_text("int b;\nint shared;\n")
        assert first.lines[0] is second.lines[1]

    def test_entry_state_separates_records(self):
        outside = prepared.prepare_text("int shared;\n")
        inside = prepared.prepare_text("/* open\nint shared;\n*/\n")
        assert outside.lines[0] is not inside.lines[1]
        assert inside.lines[1].blank

    def test_records_are_immutable(self):
        record = prepared.prepare_text("int a;\n").lines[0]
        with pytest.raises(AttributeError):
            record.span = 2

    def test_mutated_copy_adds_only_its_changed_line(self):
        tree = generate_tree()
        path = max((p for p in tree.files if p.endswith(".c")),
                   key=lambda p: tree.files[p].count("\n"))
        original = tree.files[path]
        lines = original.split("\n")
        target = next(index for index, line in enumerate(lines)
                      if line.strip().endswith(";")
                      and "/" not in line and "\\" not in line
                      and not line.lstrip().startswith("#"))
        lines[target] += " §"
        mutated = "\n".join(lines)
        prepared.clear_caches()
        before = prepared.prepare_text(original)
        misses = prepared._prepared_line.cache_info().misses
        after = prepared.prepare_text(mutated)
        assert prepared._prepared_line.cache_info().misses == misses + 1
        changed = [index for index, (old, new)
                   in enumerate(zip(before.lines, after.lines))
                   if old is not new]
        assert len(changed) == 1
        assert view(after) == parent_view(mutated)


# -- positions end to end ----------------------------------------------------

POSITION_TEXTS = [
    ("#define LONG(x) \\\n   ((x) + 1)\n#if 0\ndead;\n#endif\n"
     "int line = __LINE__;\n"),
    ("int a = 1, \\\n    b = 2;\n#if 0\ndead;\n#endif\nint c;\n"
     "int at = __LINE__;\n"),
    ("#define A \\\n1\n#define A 1\n#if 0\n#endif\nint x = __LINE__;\n"),
    ("/* open\n#define HIDDEN 1\n*/ int y = __LINE__;\n#if 0\n#endif\n"
     "int z;\n"),
    ("int s = 1 + \\  \n 2;\n#if 0\n#endif\nint t = __LINE__;\n"),
]


def _preprocess(files, main, fastpath):
    pp = Preprocessor(files.get, include_paths=["include"],
                      predefined={"CONFIG_X": "1"}, fastpath=fastpath)
    result = pp.preprocess(main)
    return result.text, result.included_files, result.missing_includes


class TestPositionsEndToEnd:
    @pytest.mark.parametrize("text", POSITION_TEXTS)
    def test_fast_matches_slow(self, text):
        files = {"f.c": text}
        slow = _preprocess(files, "f.c", fastpath=False)
        prepared.clear_caches()
        assert _preprocess(files, "f.c", fastpath=True) == slow
        assert _preprocess(files, "f.c", fastpath=True) == slow

    def test_markers_follow_spliced_lines(self):
        text = POSITION_TEXTS[0]
        out = _preprocess({"f.c": text}, "f.c", fastpath=True)[0]
        assert '# 6 "f.c"\nint line = 6;\n' in out

    @given(source_texts())
    @settings(max_examples=300, deadline=None)
    def test_fragment_texts_fast_matches_slow(self, text):
        files = {"f.c": text + "\nint end_line = __LINE__;\n",
                 "include/linux/a.h": "int from_a;\n",
                 "b.h": "#define B_H 1\n"}
        try:
            slow = _preprocess(files, "f.c", fastpath=False)
        except Exception as error:  # diagnostics must match too
            slow = (type(error).__name__, str(error))
        prepared.clear_caches()
        for _ in ("cold", "warm"):
            try:
                fast = _preprocess(files, "f.c", fastpath=True)
            except Exception as error:
                fast = (type(error).__name__, str(error))
            assert fast == slow


# -- include candidates ------------------------------------------------------

INCLUDERS = ["f.c", "drivers/net/e.c", "drivers/usb/u.c",
             "arch/x86/kernel/setup.c", "include/linux/k.h"]
TARGETS = ["x.h", "./x.h", "../x.h", "../../include/linux/x.h",
           "linux/x.h", "linux/../x.h", "a/./b.h", "asm/io.h"]
ROOTS = [(), ("include",), ("arch/x86/include", "include")]
PRESENT = ["x.h", "drivers/x.h", "drivers/net/x.h", "include/linux/x.h",
           "include/x.h", "arch/x86/include/asm/io.h", "a/b.h",
           "drivers/usb/a/b.h", "include/a/b.h"]


def _resolver(files, roots):
    pp = Preprocessor(files.get, include_paths=list(roots))
    pp._fast_active = True
    return pp


def _resolve_both(files, roots, requests):
    """Resolve each request with the memo and with the oracle; each
    side returns its resolved paths and its missing-probe list."""
    current, parent = _resolver(files, roots), _resolver(files, roots)
    got = [current._resolve_include(t, a, i) for t, a, i in requests]
    want = [parent_resolve_include(parent, t, a, i) for t, a, i in requests]
    return (got, current._missing_probes), (want, parent._missing_probes)


class TestIncludeCandidates:
    @given(st.lists(st.tuples(st.sampled_from(TARGETS), st.booleans(),
                              st.sampled_from(INCLUDERS)),
                    min_size=1, max_size=10),
           st.sampled_from(ROOTS),
           st.sets(st.sampled_from(PRESENT)))
    @settings(max_examples=500, deadline=None)
    def test_matches_parent(self, requests, roots, present):
        files = {path: "int p;\n" for path in present}
        for _ in ("cold", "warm"):
            got, want = _resolve_both(files, roots, requests)
            assert got == want

    def test_same_target_from_two_directories(self):
        files = {"drivers/net/x.h": "", "drivers/usb/x.h": ""}
        requests = [("x.h", False, "drivers/net/e.c"),
                    ("x.h", False, "drivers/usb/u.c"),
                    ("x.h", False, "drivers/scsi/s.c")]
        got, want = _resolve_both(files, ("include",), requests)
        assert got == want
        assert got[0] == ["drivers/net/x.h", "drivers/usb/x.h", None]
        assert got[1] == ["drivers/scsi/x.h", "include/x.h"]

    def test_root_includer_keeps_the_target_as_written(self):
        files = {"include/x.h": ""}
        requests = [("./x.h", False, "f.c"), ("../x.h", False, "f.c")]
        got, want = _resolve_both(files, ("include",), requests)
        assert got == want
        assert got[1][:2] == ["./x.h", "../x.h"]

    def test_preprocessed_include_lists_match_the_slow_path(self):
        files = {"drivers/net/e.c": ('#include "x.h"\n'
                                     '#include "../x.h"\n'
                                     "#include <linux/x.h>\n"),
                 "drivers/usb/u.c": '#include "x.h"\n#include "./x.h"\n',
                 "drivers/usb/x.h": "int usb;\n",
                 "drivers/x.h": "int drivers;\n",
                 "include/x.h": "int top;\n",
                 "include/linux/x.h": "int linux;\n"}
        for main in ("drivers/net/e.c", "drivers/usb/u.c"):
            slow = _preprocess(files, main, fastpath=False)
            assert _preprocess(files, main, fastpath=True) == slow
