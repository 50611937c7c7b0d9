"""Tests for unified diff generation, parsing, and application."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import PatchApplyError, PatchFormatError
from repro.vcs.diff import (
    LineKind,
    Patch,
    _SPACES,
    _squeezed,
    apply_file_diff,
    diff_texts,
    parse_patch,
    texts_differ,
)

OLD = """\
int a;
int b;
int c;
int d;
int e;
"""

NEW = """\
int a;
int b;
int c2;
int d;
int e;
"""


class TestDiffTexts:
    def test_none_for_equal_texts(self):
        assert diff_texts("f.c", OLD, OLD) is None

    def test_single_change(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        assert file_diff is not None
        assert file_diff.path == "f.c"
        assert len(file_diff.hunks) == 1
        hunk = file_diff.hunks[0]
        assert [line.text for line in hunk.removed_lines()] == ["int c;"]
        assert [line.text for line in hunk.added_lines()] == ["int c2;"]

    def test_new_linenos_match_new_text(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        added = file_diff.hunks[0].added_lines()[0]
        assert added.new_lineno == 3
        assert NEW.split("\n")[added.new_lineno - 1] == "int c2;"

    def test_whitespace_only_change_suppressed_with_w(self):
        changed = OLD.replace("int b;", "int  b ;")
        assert diff_texts("f.c", OLD, changed, ignore_whitespace=True) is None

    def test_whitespace_only_change_visible_without_w(self):
        changed = OLD.replace("int b;", "int  b ;")
        file_diff = diff_texts("f.c", OLD, changed, ignore_whitespace=False)
        assert file_diff is not None

    def test_pure_addition_hunk(self):
        new = OLD + "int f;\n"
        file_diff = diff_texts("f.c", OLD, new)
        hunk = file_diff.hunks[-1]
        assert hunk.is_pure_addition()
        assert not hunk.is_pure_removal()

    def test_pure_removal_hunk(self):
        new = OLD.replace("int e;\n", "")
        file_diff = diff_texts("f.c", OLD, new)
        hunk = file_diff.hunks[-1]
        assert hunk.is_pure_removal()

    def test_multiple_hunks_for_distant_changes(self):
        old = "\n".join(f"line{i};" for i in range(40)) + "\n"
        new = old.replace("line2;", "line2x;").replace("line35;", "line35x;")
        file_diff = diff_texts("f.c", old, new)
        assert len(file_diff.hunks) == 2


class TestRoundTrip:
    def test_render_parse_roundtrip(self):
        file_diff = diff_texts("dir/f.c", OLD, NEW)
        patch = Patch(files=[file_diff])
        reparsed = parse_patch(patch.render())
        assert reparsed.paths() == ["dir/f.c"]
        hunk = reparsed.files[0].hunks[0]
        assert [line.text for line in hunk.added_lines()] == ["int c2;"]
        assert hunk.added_lines()[0].new_lineno == 3

    def test_apply_reproduces_new_text(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        assert apply_file_diff(OLD, file_diff) == NEW

    def test_apply_pure_addition(self):
        new = "int z;\n" + OLD
        file_diff = diff_texts("f.c", OLD, new)
        assert apply_file_diff(OLD, file_diff) == new

    def test_apply_pure_removal(self):
        new = OLD.replace("int a;\n", "")
        file_diff = diff_texts("f.c", OLD, new)
        assert apply_file_diff(OLD, file_diff) == new

    @given(st.lists(st.sampled_from(
        ["int a;", "int b;", "char *s;", "return 0;", "", "/* c */"]),
        min_size=1, max_size=30),
        st.lists(st.sampled_from(
            ["int a;", "long q;", "char *s;", "break;", "", "// x"]),
            min_size=1, max_size=30))
    def test_apply_diff_reconstructs_any_pair(self, old_lines, new_lines):
        old = "\n".join(old_lines) + "\n"
        new = "\n".join(new_lines) + "\n"
        file_diff = diff_texts("f.c", old, new, ignore_whitespace=False)
        if file_diff is None:
            assert old == new
        else:
            assert apply_file_diff(old, file_diff) == new


class TestParseErrors:
    def test_hunk_outside_file(self):
        with pytest.raises(PatchFormatError):
            parse_patch("@@ -1,1 +1,1 @@\n-x\n+y\n")

    def test_count_mismatch(self):
        bad = ("--- a/f.c\n+++ b/f.c\n"
               "@@ -1,2 +1,1 @@\n-x\n+y\n")
        with pytest.raises(PatchFormatError):
            parse_patch(bad)

    def test_git_show_preamble_skipped(self):
        text = ("commit abc123\nAuthor: A <a@x>\n\n    fix stuff\n\n"
                + Patch(files=[diff_texts("f.c", OLD, NEW)]).render())
        patch = parse_patch(text)
        assert patch.paths() == ["f.c"]

    def test_no_newline_marker_tolerated(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        rendered = Patch(files=[file_diff]).render()
        rendered += "\\ No newline at end of file\n"
        patch = parse_patch(rendered)
        assert patch.paths() == ["f.c"]


class TestApplyErrors:
    def test_context_mismatch(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        with pytest.raises(PatchApplyError):
            apply_file_diff(OLD.replace("int b;", "int q;"), file_diff)

    def test_runs_past_eof(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        with pytest.raises(PatchApplyError):
            apply_file_diff("int a;\n", file_diff)


class TestHunkAccessors:
    def test_changed_new_linenos(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        assert file_diff.changed_new_linenos() == [3]

    def test_header_format(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        header = file_diff.hunks[0].header
        assert header.startswith("@@ -")
        assert header.endswith("@@")

    def test_context_lines_have_both_numbers(self):
        file_diff = diff_texts("f.c", OLD, NEW)
        for line in file_diff.hunks[0].lines:
            if line.kind is LineKind.CONTEXT:
                assert line.old_lineno is not None
                assert line.new_lineno is not None


class TestWhitespaceSqueeze:
    def test_table_is_every_space_but_the_newline(self):
        spaces = {chr(point) for point in range(sys.maxunicode + 1)
                  if chr(point).isspace()}
        assert set(_SPACES) == spaces - {"\n"}
        assert len(_SPACES) == len(set(_SPACES)) == 28

    def test_squeeze_removes_what_split_removes(self):
        text = "\u3000a\x85b \tc\r\n\u2028\nd\xa0e"
        assert _squeezed(text) == ["".join(line.split())
                                   for line in text.split("\n")]

    def test_final_line_is_decided_on_the_text(self):
        # a last line of spaces squeezes to "" and is still a line
        assert _squeezed("a\n  ") == ["a", ""]
        assert _squeezed("a\n") == ["a"]
        assert _squeezed("") == []
        assert _squeezed(" ") == [""]
        assert texts_differ("a\n", "a\n  ", ignore_whitespace=True)
        assert diff_texts("f.c", "a\n", "a\n  ",
                          ignore_whitespace=True) is not None
        assert not texts_differ("a\n", " a\t\n", ignore_whitespace=True)
