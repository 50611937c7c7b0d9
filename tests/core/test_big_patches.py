"""Integration tests for wide patches: batching and mixed file sets."""

import pytest

from repro.core.jmake import CheckSession, JMakeOptions
from repro.kernel.generator import KernelTreeGenerator
from repro.kernel.layout import default_tree_spec
from repro.vcs.diff import Patch, diff_texts


@pytest.fixture(scope="module")
def big_tree():
    # driver_scale=6 yields ~400 driver files: enough to overflow a
    # single 50-file make invocation.
    return KernelTreeGenerator(
        default_tree_spec(driver_scale=6, seed="big-tree")).generate()


def edit_many(tree, paths):
    files = dict(tree.files)
    file_diffs = []
    for path in paths:
        original = files[path]
        edited = original.replace("int status = 0;",
                                  "int status = 0; int wide = 1;")
        assert edited != original, path
        files[path] = edited
        file_diffs.append(diff_texts(path, original, edited))
    worktree = CheckSession.worktree_for_files(files)
    return worktree, Patch(files=file_diffs)


class TestWidePatch:
    def test_patch_wider_than_batch_limit(self, big_tree):
        """§III-D: compilations are limited to 50 files at a time, but
        a wider patch must still be fully processed."""
        drivers = [path for path in big_tree.driver_files()
                   if path.startswith("fs/ext4/")
                   or path.startswith("net/core/")
                   or path.startswith("mm/")]
        # extend with more plain drivers until we exceed the limit
        extra = [path for path in big_tree.driver_files()
                 if path.startswith("drivers/char/")]
        targets = []
        for path in drivers + extra:
            if "int status = 0;" in big_tree.files[path]:
                targets.append(path)
        assert len(targets) > 55, f"only {len(targets)} editable drivers"
        worktree, patch = edit_many(big_tree, targets)
        jmake = CheckSession.from_generated_tree(
            big_tree, options=JMakeOptions(batch_limit=50))
        report = jmake.check_patch(worktree, patch)

        assert len(report.file_reports) == len(targets)
        # the host pass needed at least two make invocations
        assert report.invocation_counts["make_i"] >= 2
        certified = sum(1 for fr in report.file_reports.values()
                        if fr.certified)
        assert certified >= len(targets) * 0.8

    def test_header_candidate_cap_triggers_on_fanout(self, big_tree):
        """§III-E: more than 100 candidate .c files switches the .h
        pipeline to allyesconfig-only — exercised by a shared header
        every driver includes."""
        from repro.core.archselect import ArchSelector
        from repro.core.hfile import HFileProcessor
        from repro.core.mutation import MutationEngine
        from repro.kbuild.build import BuildSystem

        header = "include/linux/kernel.h"
        text = big_tree.files[header]
        # change the max() macro: every driver uses it
        lineno = text.split("\n").index(
            "#define max(a, b) ((a) > (b) ? (a) : (b))") + 1
        plan = MutationEngine().plan(header, text, [lineno])
        assert plan.mutations

        worktree = CheckSession.worktree_for_files(big_tree.files)
        build = BuildSystem(worktree.as_file_provider(),
                            path_lister=worktree.paths)
        selector = ArchSelector(build, worktree.paths,
                                worktree.as_file_provider())
        processor = HFileProcessor(build, selector, worktree.paths,
                                   worktree.as_file_provider(),
                                   candidate_cap=100)
        candidates = processor.candidates_for(plan)
        assert len(candidates) > 100

        worktree.write(header, plan.mutated_text)
        report = processor.process(worktree, plan, set())
        assert report.status.value == "ok"
        # allyes-only mode: no defconfig targets were attempted
        assert all(attempt.config_target == "allyesconfig"
                   for attempt in report.attempts)

    def test_mixed_c_and_h_wide_patch(self, big_tree):
        headers = [path for path in big_tree.header_files()
                   if path.startswith("fs/ext4/")][:1]
        c_files = [path for path in big_tree.driver_files()
                   if path.startswith("fs/ext4/")
                   and "int status = 0;" in big_tree.files[path]][:3]
        files = dict(big_tree.files)
        file_diffs = []
        for path in c_files:
            original = files[path]
            edited = original.replace("int status = 0;",
                                      "int status = 0; int mixed = 2;")
            files[path] = edited
            file_diffs.append(diff_texts(path, original, edited))
        header = headers[0]
        original = files[header]
        edited = original.replace("_LIMIT ", "_LIMIT  ")
        if edited == original:
            pytest.skip("header has no LIMIT macro")
        # whitespace change would vanish under -w; bump a digit instead
        import re
        match = re.search(r"_LIMIT (\d+)", original)
        edited = original.replace(match.group(0),
                                  f"_LIMIT {int(match.group(1)) + 1}")
        files[header] = edited
        file_diffs.append(diff_texts(header, original, edited))

        worktree = CheckSession.worktree_for_files(files)
        report = CheckSession.from_generated_tree(big_tree).check_patch(
            worktree, Patch(files=file_diffs))
        assert header in report.file_reports
        assert all(path in report.file_reports for path in c_files)
