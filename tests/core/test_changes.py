"""Tests for changed-line extraction and the checkable rule."""

import pytest

from repro.core.changes import (
    ChangedFile,
    changed_lines_of_file_diff,
    extract_changed_files,
    is_checkable,
)
from repro.vcs.diff import Patch, diff_texts
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import Repository
from repro.workload.corpus import Corpus

OLD = """\
int a;
int b;
int c;
int d;
int e;
int f;
int g;
"""


class TestChangedLines:
    def test_modification(self):
        new = OLD.replace("int c;", "long c;")
        file_diff = diff_texts("f.c", OLD, new)
        assert changed_lines_of_file_diff(file_diff) == [3]

    def test_pure_addition(self):
        new = OLD.replace("int c;\n", "int c;\nint c2;\nint c3;\n")
        file_diff = diff_texts("f.c", OLD, new)
        assert changed_lines_of_file_diff(file_diff) == [4, 5]

    def test_pure_removal_takes_following_line(self):
        """§III-B: 'the changed line is considered to be the first line
        remaining after the removed code'."""
        new = OLD.replace("int c;\n", "")
        file_diff = diff_texts("f.c", OLD, new)
        # In the new file, "int d;" is now line 3.
        assert changed_lines_of_file_diff(file_diff) == [3]

    def test_removal_at_end_takes_eof(self):
        new = OLD.replace("int f;\nint g;\n", "")
        file_diff = diff_texts("f.c", OLD, new)
        new_count = new.count("\n") + 1
        lines = changed_lines_of_file_diff(file_diff, new_count)
        assert len(lines) == 1
        assert lines[0] >= 5

    def test_distant_hunks_report_both(self):
        old = "\n".join(f"int v{i};" for i in range(30)) + "\n"
        new = old.replace("int v2;", "long v2;").replace("int v25;\n", "")
        file_diff = diff_texts("f.c", old, new)
        lines = changed_lines_of_file_diff(file_diff)
        assert 3 in lines          # modification
        assert len(lines) == 2     # plus the line after the removal

    def test_mixed_hunk_uses_added_lines(self):
        """A hunk with both + and - counts its added lines (§III-B
        distinguishes only pure-addition and pure-removal hunks)."""
        new = OLD.replace("int c;\nint d;\n", "long c2;\n")
        file_diff = diff_texts("f.c", OLD, new)
        lines = changed_lines_of_file_diff(file_diff)
        assert lines == [3]


class TestExtraction:
    def make_patch(self, *paths):
        patch = Patch()
        for path in paths:
            new = OLD.replace("int c;", "long c;")
            patch.files.append(diff_texts(path, OLD, new))
        return patch

    def test_c_and_h_kept(self):
        patch = self.make_patch("drivers/a.c", "include/linux/b.h")
        changed = extract_changed_files(patch)
        assert [record.path for record in changed] == \
            ["drivers/a.c", "include/linux/b.h"]

    def test_other_extensions_dropped(self):
        patch = self.make_patch("drivers/a.c", "drivers/Makefile",
                                "drivers/notes.txt")
        changed = extract_changed_files(patch)
        assert [record.path for record in changed] == ["drivers/a.c"]

    def test_ignored_directories_dropped(self):
        """§V-A: Documentation, scripts, tools are ignored."""
        patch = self.make_patch("Documentation/doc.c", "scripts/gen.c",
                                "tools/perf/x.c", "drivers/a.c")
        changed = extract_changed_files(patch)
        assert [record.path for record in changed] == ["drivers/a.c"]

    def test_relevance_flags(self):
        assert ChangedFile("a/b.c").is_relevant
        assert ChangedFile("a/b.h").is_relevant
        assert not ChangedFile("a/b.S").is_relevant
        assert not ChangedFile("tools/b.c").is_relevant

    def test_relevant_only_false_keeps_all(self):
        patch = self.make_patch("scripts/gen.c")
        changed = extract_changed_files(patch, relevant_only=False)
        assert [record.path for record in changed] == ["scripts/gen.c"]

    def test_new_texts_improve_eof_rule(self):
        old = "int a;\nint b;\n"
        new = "int a;\n"
        file_diff = diff_texts("f.c", old, new)
        patch = Patch(files=[file_diff])
        changed = extract_changed_files(patch, new_texts={"f.c": new})
        assert changed[0].changed_lines == [1]


class TestIsCheckable:
    """The checkable rule reads changed paths and agrees with the
    changed files extracted from the diffed patch."""

    @pytest.mark.parametrize("corpus_name",
                             ["small_corpus", "midsize_corpus"])
    def test_matches_extracted_files_on_the_window(self, request,
                                                   corpus_name):
        repository = request.getfixturevalue(corpus_name).repository
        window = repository.log(since=Corpus.TAG_EVAL_START,
                                until=Corpus.TAG_EVAL_END)
        verdicts = [is_checkable(repository, commit) for commit in window]
        assert verdicts == [
            bool(extract_changed_files(repository.show(commit)))
            for commit in window]
        assert any(verdicts) and not all(verdicts)

    def test_relevant_paths_decide(self):
        sig = Signature("Dev", "dev@example.org", "2015-11-10T00:00:00")
        repository = Repository()
        files = {"drivers/a.c": "int a;\n", "tools/b.c": "int b;\n",
                 "arch/x86/c.S": "nop\n", "include/d.h": "int d;\n"}
        repository.commit(Tree(files), sig, "root")
        expected = {"tools/b.c": False, "arch/x86/c.S": False,
                    "drivers/a.c": True, "include/d.h": True}
        for path, checkable in expected.items():
            files = dict(files, **{path: files[path] + "int z;\n"})
            commit = repository.commit(Tree(files), sig, f"edit {path}")
            assert is_checkable(repository, commit) is checkable, path
