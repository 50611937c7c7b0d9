"""Tests for JMakeOptions edge cases and report serialization."""

import json

import pytest

from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileStatus
from repro.kernel.generator import KernelTreeGenerator, generate_tree
from repro.kernel.layout import default_tree_spec
from repro.vcs.diff import Patch, diff_texts


@pytest.fixture(scope="module")
def tree():
    return generate_tree()


def run_check(tree, path, old, new, options=None):
    original = tree.files[path]
    edited = original.replace(old, new)
    assert edited != original
    files = dict(tree.files)
    files[path] = edited
    worktree = CheckSession.worktree_for_files(files)
    patch = Patch(files=[diff_texts(path, original, edited)])
    jmake = CheckSession.from_generated_tree(tree, options=options)
    return jmake.check_patch(worktree, patch)


class TestBatchLimit:
    def test_batch_limit_one_still_works(self, tree):
        report = run_check(tree, "fs/ext4/ext40.c",
                           "int status = 0;", "int status = 1;",
                           JMakeOptions(batch_limit=1))
        assert report.certified

    def test_batch_limit_floor(self, tree):
        """Nonsensical limits are clamped, not crashes."""
        report = run_check(tree, "fs/ext4/ext40.c",
                           "int status = 0;", "int status = 1;",
                           JMakeOptions(batch_limit=0))
        assert report.certified


class TestHostOption:
    def test_alternate_selection_seed_still_deterministic(self, tree):
        a = run_check(tree, "fs/ext4/ext40.c",
                      "int status = 0;", "int status = 1;",
                      JMakeOptions(selection_seed="other"))
        b = run_check(tree, "fs/ext4/ext40.c",
                      "int status = 0;", "int status = 1;",
                      JMakeOptions(selection_seed="other"))
        assert a.invocation_counts == b.invocation_counts


class TestJsonExport:
    def test_to_dict_round_trips_through_json(self, tree):
        report = run_check(tree, "fs/ext4/ext40.c",
                           "int status = 0;", "int status = 1;")
        payload = report.to_dict()
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["certified"] is True
        file_entry = restored["files"]["fs/ext4/ext40.c"]
        assert file_entry["status"] == "ok"
        assert "x86_64" in file_entry["useful_archs"]

    def test_to_dict_reports_missing_lines(self, tree):
        from repro.kernel.layout import HazardKind
        path = next(p for p, info in sorted(tree.info.items())
                    if HazardKind.NEVER_SET in info.hazards
                    and info.kind == "driver_c")
        report = run_check(tree, path,
                           "\treturn dev->id - 1;", "\treturn dev->id - 7;")
        payload = report.to_dict()
        entry = payload["files"][path]
        assert entry["status"] == FileStatus.LINES_NOT_COMPILED.value
        assert entry["missing_lines"]


class TestTreeScaling:
    def test_driver_scale_multiplies_tree(self):
        small = generate_tree()
        big = KernelTreeGenerator(
            default_tree_spec(driver_scale=2)).generate()
        assert len(big.driver_files()) > 1.5 * len(small.driver_files())

    def test_scaled_tree_still_checks(self):
        big = KernelTreeGenerator(
            default_tree_spec(driver_scale=2)).generate()
        report = run_check(big, "fs/ext4/ext40.c",
                           "int status = 0;", "int status = 1;")
        assert report.certified
