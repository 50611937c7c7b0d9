"""Failure injection: JMake must degrade gracefully, never crash.

Each test corrupts the tree or the patch in a way real kernel work
produces (missing Makefiles, broken headers, unsupported architectures,
preprocessor-hostile source) and asserts a structured verdict.
"""

import pytest

from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileStatus
from repro.kernel.generator import generate_tree
from repro.vcs.diff import Patch, diff_texts


@pytest.fixture(scope="module")
def tree():
    return generate_tree()


def check_edited(tree, files, path, old, new, **options):
    original = files[path]
    edited = original.replace(old, new)
    assert edited != original
    files = dict(files)
    files[path] = edited
    worktree = CheckSession.worktree_for_files(files)
    patch = Patch(files=[diff_texts(path, original, edited)])
    jmake = CheckSession.from_generated_tree(
        tree, options=JMakeOptions(**options) if options else None)
    return jmake.check_patch(worktree, patch)


class TestTreeCorruption:
    def test_missing_makefile(self, tree):
        files = dict(tree.files)
        files["orphan/widget.c"] = "int widget = 1;\n"
        report = check_edited(tree, files, "orphan/widget.c",
                              "int widget = 1;", "int widget = 2;")
        assert report.file_reports["orphan/widget.c"].status is \
            FileStatus.NO_MAKEFILE

    def test_unsupported_architecture(self, tree):
        files = dict(tree.files)
        files["arch/hexagon/kernel/init.c"] = "int hexagon_init = 3;\n"
        files["arch/hexagon/kernel/Makefile"] = "obj-y += init.o\n"
        report = check_edited(tree, files, "arch/hexagon/kernel/init.c",
                              "= 3;", "= 4;")
        assert report.file_reports["arch/hexagon/kernel/init.c"].status \
            is FileStatus.UNSUPPORTED_ARCH

    def test_broken_include_everywhere(self, tree):
        """A file whose include can never resolve: .i fails on every
        candidate."""
        files = dict(tree.files)
        target = "fs/ext4/ext40.c"
        files[target] = '#include <linux/nonexistent.h>\n' + files[target]
        report = check_edited(tree, files, target,
                              "int status = 0;", "int status = 1;")
        assert report.file_reports[target].status is FileStatus.I_FAILED

    def test_deleted_shared_header_breaks_i(self, tree):
        files = dict(tree.files)
        del files["include/linux/device.h"]
        target = "fs/ext4/ext40.c"
        report = check_edited(tree, files, target,
                              "int status = 0;", "int status = 1;")
        assert report.file_reports[target].status is FileStatus.I_FAILED

    def test_pre_existing_syntax_error_fails_o(self, tree):
        """The tree already has a broken file (unbalanced brace): the
        mutants surface in the .i but the clean .o can never build."""
        files = dict(tree.files)
        target = "fs/ext4/ext40.c"
        files[target] = files[target] + "\nint broken(void) {\n"
        report = check_edited(tree, files, target,
                              "int status = 0;", "int status = 1;")
        assert report.file_reports[target].status is FileStatus.O_FAILED


class TestPatchShapes:
    def test_patch_touching_missing_file_skipped(self, tree):
        """A diff for a path the worktree lacks must not crash."""
        original = "int ghost = 1;\n"
        edited = "int ghost = 2;\n"
        patch = Patch(files=[diff_texts("drivers/ghost.c",
                                        original, edited)])
        worktree = CheckSession.worktree_for_files(dict(tree.files))
        report = CheckSession.from_generated_tree(tree) \
            .check_patch(worktree, patch)
        assert "drivers/ghost.c" not in report.file_reports

    def test_empty_patch(self, tree):
        worktree = CheckSession.worktree_for_files(dict(tree.files))
        report = CheckSession.from_generated_tree(tree) \
            .check_patch(worktree, Patch())
        assert report.file_reports == {}
        assert not report.certified

    def test_change_past_end_of_file(self, tree):
        """Changed line numbers beyond EOF are tolerated (the removal
        rule can point one past the last line)."""
        from repro.core.mutation import MutationEngine
        plan = MutationEngine().plan("f.c", "int a;\n", [99])
        assert plan.mutations == []

    def test_whole_file_rewrite(self, tree):
        """Replacing most of a driver still produces a verdict."""
        target = "fs/ext4/ext41.c"
        files = dict(tree.files)
        original = files[target]
        edited = ("#include <linux/kernel.h>\n\n"
                  "int rewritten(void)\n{\n\treturn 7;\n}\n")
        files[target] = edited
        worktree = CheckSession.worktree_for_files(files)
        patch = Patch(files=[diff_texts(target, original, edited)])
        report = CheckSession.from_generated_tree(tree) \
            .check_patch(worktree, patch)
        assert report.file_reports[target].status in (
            FileStatus.OK, FileStatus.LINES_NOT_COMPILED)


class TestWorktreeHygiene:
    def test_overlay_clean_after_check(self, tree):
        """check_patch must leave the worktree pristine (reset --hard)."""
        target = "fs/ext4/ext40.c"
        files = dict(tree.files)
        original = files[target]
        edited = original.replace("int status = 0;", "int status = 9;")
        files[target] = edited
        worktree = CheckSession.worktree_for_files(files)
        patch = Patch(files=[diff_texts(target, original, edited)])
        CheckSession.from_generated_tree(tree).check_patch(worktree, patch)
        assert worktree.overlay == {}
        assert worktree.read(target) == edited  # committed state intact

    def test_repeated_checks_are_deterministic(self, tree):
        target = "fs/ext4/ext40.c"
        files = dict(tree.files)
        original = files[target]
        edited = original.replace("int status = 0;", "int status = 9;")
        files[target] = edited
        patch = Patch(files=[diff_texts(target, original, edited)])

        def run():
            worktree = CheckSession.worktree_for_files(files)
            report = CheckSession.from_generated_tree(tree) \
                .check_patch(worktree, patch)
            file_report = report.file_reports[target]
            return (file_report.status, tuple(file_report.useful_archs),
                    report.invocation_counts)

        assert run() == run()


class TestAdvisories:
    def test_ifndef_change_flagged_before_builds(self, tree):
        """The §VII user-assistance extension: changes under #ifndef are
        flagged as unpromising in the report."""
        from repro.kernel.layout import HazardKind
        target = next(path for path, info in sorted(tree.info.items())
                      if HazardKind.IFNDEF in info.hazards)
        report = check_edited(tree, dict(tree.files), target,
                              "_fallback(void)", "_fallback_next(void)")
        file_report = report.file_reports[target]
        assert file_report.advisories
        assert "ifndef" in file_report.advisories[0]
        assert "advisory" in file_report.render()

    def test_plain_change_not_flagged(self, tree):
        report = check_edited(tree, dict(tree.files), "fs/ext4/ext40.c",
                              "int status = 0;", "int status = 4;")
        assert not report.file_reports["fs/ext4/ext40.c"].advisories
