"""End-to-end JMake tests over the generated tree.

Each test crafts a patch touching a specific kind of line and asserts the
verdict the paper's design demands.
"""

import pytest

from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileStatus
from repro.kernel.layout import HazardKind

from tests.core.conftest import edit_file


def first_with_hazard(tree, kind, *, file_kind="driver_c"):
    for path in sorted(tree.info):
        info = tree.info[path]
        if info.kind == file_kind and kind in info.hazards:
            return info
    pytest.skip(f"no {file_kind} with hazard {kind}")


def run(jmake, tree, path, old, new):
    patch, worktree = edit_file(tree, None, path, old, new)
    return jmake.check_patch(worktree, patch)


class TestPlainChanges:
    def test_ordinary_code_change_certified(self, jmake, tree):
        # fs/ext4 drivers are plain bools with no affinity
        path = "fs/ext4/ext40.c"
        report = run(jmake, tree, path,
                     "int status = 0;", "int status = 0;\tint extra = 1;")
        file_report = report.file_reports[path]
        assert file_report.status is FileStatus.OK
        assert report.certified
        assert "x86_64" in file_report.useful_archs

    def test_macro_change_certified(self, jmake, tree):
        path = "fs/ext4/ext40.c"
        report = run(jmake, tree, path,
                     "_MUX_HI(x) (((x) & 0xf) << 4)",
                     "_MUX_HI(x) (((x) & 0x1f) << 4)")
        assert report.file_reports[path].status is FileStatus.OK

    def test_comment_only_change(self, jmake, tree):
        path = "fs/ext4/ext40.c"
        report = run(jmake, tree, path,
                     " * Generated substrate source",
                     " * Regenerated substrate source")
        file_report = report.file_reports[path]
        assert file_report.status is FileStatus.COMMENT_ONLY
        assert report.certified
        # no compilation should even be attempted
        assert report.invocation_counts.get("make_i", 0) == 0

    def test_elapsed_time_recorded(self, jmake, tree):
        path = "fs/ext4/ext40.c"
        report = run(jmake, tree, path, "int status = 0;",
                     "int status = 0; int t = 2;")
        assert report.elapsed_seconds > 0
        assert report.invocation_counts["config"] >= 1
        assert report.invocation_counts["make_i"] >= 1
        assert report.invocation_counts["make_o"] >= 1


class TestHazardVerdicts:
    def test_choice_unset_lines_not_compiled(self, jmake, tree):
        info = first_with_hazard(tree, HazardKind.CHOICE_UNSET)
        name = info.path.rsplit("/", 1)[1][:-2]
        report = run(jmake, tree, info.path,
                     "\treturn dev->id + 2;", "\treturn dev->id + 3;")
        file_report = report.file_reports[info.path]
        assert file_report.status is FileStatus.LINES_NOT_COMPILED
        assert file_report.missing_tokens
        assert not report.certified

    def test_never_set_lines_not_compiled(self, jmake, tree):
        info = first_with_hazard(tree, HazardKind.NEVER_SET)
        report = run(jmake, tree, info.path,
                     "\treturn dev->id - 1;", "\treturn dev->id - 9;")
        assert report.file_reports[info.path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_module_only_lines_not_compiled_without_allmod(self, jmake,
                                                           tree):
        info = first_with_hazard(tree, HazardKind.MODULE_ONLY)
        report = run(jmake, tree, info.path,
                     "_module_cleanup(void)", "_module_cleanup_v2(void)")
        assert report.file_reports[info.path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_module_only_rescued_by_allmodconfig(self, tree):
        """The E-A1 ablation: the §VII allmodconfig extension."""
        info = first_with_hazard(tree, HazardKind.MODULE_ONLY)
        if tree.info[info.path].subsystem in ("fs/ext4", "net/core", "mm"):
            pytest.skip("bool subsystem cannot build as module")
        jmake = CheckSession.from_generated_tree(
            tree, options=JMakeOptions(use_allmodconfig=True))
        report = run(jmake, tree, info.path,
                     "_module_cleanup(void)", "_module_cleanup_v2(void)")
        assert report.file_reports[info.path].status is FileStatus.OK

    def test_if_zero_lines_not_compiled(self, jmake, tree):
        info = first_with_hazard(tree, HazardKind.IF_ZERO)
        report = run(jmake, tree, info.path,
                     "\treturn 1;", "\treturn 2;")
        assert report.file_reports[info.path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_unused_macro_lines_not_compiled(self, jmake, tree):
        info = first_with_hazard(tree, HazardKind.UNUSED_MACRO)
        report = run(jmake, tree, info.path,
                     "_UNUSED_SHIFT(x) ((x) << 2)",
                     "_UNUSED_SHIFT(x) ((x) << 3)")
        assert report.file_reports[info.path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_ifndef_lines_not_compiled(self, jmake, tree):
        info = first_with_hazard(tree, HazardKind.IFNDEF)
        report = run(jmake, tree, info.path,
                     "_fallback(void)", "_fallback_v2(void)")
        assert report.file_reports[info.path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_ifdef_and_else_partial(self, jmake, tree):
        """Changes under both branches can never fully compile with one
        configuration set (§VII)."""
        import re
        from repro.vcs.diff import Patch, diff_texts
        info = first_with_hazard(tree, HazardKind.IFDEF_AND_ELSE)
        original = tree.files[info.path]
        fast = re.search(r"\treturn v << (\d);", original)
        slow = re.search(r"\treturn v \+ (\d);", original)
        assert fast and slow, "generator block shape changed"
        edited = original.replace(fast.group(0), "\treturn v << 9;") \
                         .replace(slow.group(0), "\treturn v + 99;")
        files = dict(tree.files)
        files[info.path] = edited
        worktree = CheckSession.worktree_for_files(files)
        combined = Patch(files=[diff_texts(info.path, original, edited)])
        report = jmake.check_patch(worktree, combined)
        file_report = report.file_reports[info.path]
        assert file_report.status is FileStatus.LINES_NOT_COMPILED
        # exactly one of the two branches compiled
        assert len(file_report.missing_tokens) == 1


class TestArchitectureHandling:
    def test_affine_driver_certified_via_other_arch(self, jmake, tree):
        affine = [info for info in tree.info.values()
                  if info.affine_arch and info.kind == "driver_c"]
        assert affine
        info = sorted(affine, key=lambda i: i.path)[0]
        report = run(jmake, tree, info.path,
                     "int status = 0;", "int status = 0; int n = 4;")
        file_report = report.file_reports[info.path]
        assert file_report.status is FileStatus.OK
        assert info.affine_arch in file_report.useful_archs
        assert "x86_64" not in file_report.useful_archs

    def test_arch_file_checked_on_owner(self, jmake, tree):
        path = "arch/arm/kernel/arm_setup0.c"
        old = tree.files[path]
        assert "_init(void)" in old
        report = run(jmake, tree, path, "_init(void)", "_probe(void)")
        file_report = report.file_reports[path]
        assert file_report.status is FileStatus.OK
        assert file_report.useful_archs == ["arm"]


class TestHeaderHandling:
    def test_header_change_covered_by_including_c(self, jmake, tree):
        """§III-E ideal case: compiling the patch's .c files covers the
        .h changes — here via the hfile pipeline with include+hints."""
        header = "fs/ext4/ext4_local0.h"
        report = run(jmake, tree, header,
                     "_HELPER(x) ((x) *", "_HELPER(x) (2 * (x) *")
        file_report = report.file_reports[header]
        assert file_report.status is FileStatus.OK

    def test_header_and_c_together(self, jmake, tree):
        """Patch touching both .h and .c: the .c compilation covers the
        header tokens (the 66%/76% population)."""
        from repro.vcs.diff import Patch, diff_texts
        header = "fs/ext4/ext4_local0.h"
        c_path = "fs/ext4/ext40.c"
        header_new = tree.files[header].replace(
            "_HELPER(x) ((x) *", "_HELPER(x) (2 * (x) *")
        c_new = tree.files[c_path].replace(
            "int status = 0;", "int status = 0; int k = 5;")
        files = dict(tree.files)
        files[header] = header_new
        files[c_path] = c_new
        worktree = CheckSession.worktree_for_files(files)
        patch = Patch(files=[
            diff_texts(header, tree.files[header], header_new),
            diff_texts(c_path, tree.files[c_path], c_new),
        ])
        report = jmake.check_patch(worktree, patch)
        assert report.file_reports[header].status is FileStatus.OK
        assert report.file_reports[c_path].status is FileStatus.OK
        # The header needed no extra candidate compilations.
        assert report.file_reports[header].candidate_compilations == 0

    def test_orphan_macro_header_change_not_compiled(self, jmake, tree):
        """Changing a macro no .c file uses: tokens can never surface."""
        header = "fs/ext4/ext4_local0.h"
        report = run(jmake, tree, header,
                     "_ORPHAN(x) ((x) -", "_ORPHAN(x) ((x) +")
        file_report = report.file_reports[header]
        assert file_report.status is FileStatus.LINES_NOT_COMPILED

    def test_shared_header_fanout(self, jmake, tree):
        """include/linux header: candidates found via include scans."""
        header = "include/linux/device.h"
        report = run(jmake, tree, header,
                     "\tint id;", "\tint id;\tint bus;")
        file_report = report.file_reports[header]
        assert file_report.status is FileStatus.OK


class TestSpecialCases:
    def test_bootstrap_file_untreatable(self, jmake, tree):
        path = "kernel/bounds.c"
        report = run(jmake, tree, path,
                     "int kernel_bounds = 64;", "int kernel_bounds = 128;")
        assert report.file_reports[path].status is \
            FileStatus.BOOTSTRAP_UNTREATABLE
        assert not report.certified

    def test_ignored_directory_file_skipped(self, jmake, tree):
        path = "tools/perf/builtin-top.c"
        report = run(jmake, tree, path,
                     "return 0;", "return 1;")
        assert path not in report.file_reports

    def test_check_commit_protocol(self, tree, jmake):
        """check_commit: diff vs parent, checkout, verify."""
        from repro.vcs.objects import Signature, Tree
        from repro.vcs.repository import Repository
        repo = Repository()
        base = repo.commit(Tree(tree.files), Signature(
            "Base", "base@x.org", "2015-11-01T00:00:00"), "v4.3")
        edited = dict(tree.files)
        edited["fs/ext4/ext40.c"] = edited["fs/ext4/ext40.c"].replace(
            "int status = 0;", "int status = 0; int c = 3;")
        change = repo.commit(Tree(edited), Signature(
            "Dev", "dev@x.org", "2015-11-02T00:00:00"), "ext4: add c")
        report = jmake.check_commit(repo, change.id)
        assert report.certified
        assert report.commit_id == change.id

    def test_rebuild_trigger_costs_heavily(self, tree):
        jmake = CheckSession.from_generated_tree(tree)
        path = "arch/powerpc/kernel/prom_init.c"
        patch, worktree = edit_file(tree, None, path,
                                    "int delay = 300;",
                                    "int delay = 400;")
        report = jmake.check_patch(worktree, patch)
        assert report.file_reports[path].status is FileStatus.OK
        assert report.elapsed_seconds > 6000
