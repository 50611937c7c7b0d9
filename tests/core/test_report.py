"""Tests for the report layer (FileReport / PatchReport)."""

from repro.core.mutation import Mutation
from repro.core.report import (
    ArchAttempt,
    FileReport,
    FileStatus,
    PatchReport,
)


def mutation(line, path="drivers/a.c", kind="code"):
    token = Mutation.make_token(kind, path, line)
    return Mutation(token=token, kind=kind, path=path, line=line,
                    insert_at=line)


class TestFileStatus:
    def test_success_statuses(self):
        assert FileStatus.OK.is_success
        assert FileStatus.COMMENT_ONLY.is_success

    def test_failure_statuses(self):
        for status in (FileStatus.LINES_NOT_COMPILED,
                       FileStatus.NO_MAKEFILE,
                       FileStatus.UNSUPPORTED_ARCH,
                       FileStatus.I_FAILED, FileStatus.O_FAILED,
                       FileStatus.BOOTSTRAP_UNTREATABLE):
            assert not status.is_success


class TestFileReport:
    def test_missing_changed_lines(self):
        m1, m2 = mutation(10), mutation(20)
        report = FileReport(path="drivers/a.c",
                            status=FileStatus.LINES_NOT_COMPILED,
                            mutations=[m1, m2],
                            missing_tokens={m2.token})
        assert report.missing_changed_lines() == [20]

    def test_render_lists_missing_lines(self):
        m = mutation(42)
        report = FileReport(path="drivers/a.c",
                            status=FileStatus.LINES_NOT_COMPILED,
                            mutations=[m], missing_tokens={m.token})
        text = report.render()
        assert "drivers/a.c:42" in text
        assert "lines-not-compiled" in text

    def test_render_attempts(self):
        report = FileReport(
            path="a.c", status=FileStatus.OK,
            useful_archs=["x86_64", "arm"],
            attempts=[ArchAttempt(arch="x86_64",
                                  config_target="allyesconfig",
                                  i_ok=True, o_ok=True),
                      ArchAttempt(arch="arm",
                                  config_target="allyesconfig",
                                  i_ok=True)])
        text = report.render()
        assert "x86_64/allyesconfig: ok" in text
        assert "arm/allyesconfig: i-only" in text
        assert "x86_64, arm" in text

    def test_certified_property(self):
        assert FileReport(path="a.c", status=FileStatus.OK).certified
        assert not FileReport(path="a.c",
                              status=FileStatus.I_FAILED).certified


class TestPatchReport:
    def make(self):
        report = PatchReport(commit_id="abc123def")
        report.file_reports["a.c"] = FileReport(
            path="a.c", status=FileStatus.OK)
        report.file_reports["b.h"] = FileReport(
            path="b.h", status=FileStatus.COMMENT_ONLY)
        report.elapsed_seconds = 12.5
        report.invocation_counts = {"config": 1, "make_i": 2, "make_o": 1}
        return report

    def test_certified_requires_all_files(self):
        report = self.make()
        assert report.certified
        report.file_reports["c.c"] = FileReport(
            path="c.c", status=FileStatus.LINES_NOT_COMPILED)
        assert not report.certified

    def test_empty_report_not_certified(self):
        assert not PatchReport(commit_id=None).certified

    def test_render_header(self):
        text = self.make().render()
        assert "CERTIFIED" in text
        assert "abc123def" in text
        assert "12.5s" in text

    def test_render_attention_required(self):
        report = self.make()
        report.file_reports["c.c"] = FileReport(
            path="c.c", status=FileStatus.O_FAILED)
        assert "ATTENTION REQUIRED" in report.render()
