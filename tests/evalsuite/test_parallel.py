"""Tests for the parallel evaluation runner (§V-A's worker processes)."""

import sys

import pytest

from repro.evalsuite.runner import EvaluationSession


@pytest.mark.skipif(sys.platform == "win32",
                    reason="fork start method required")
class TestParallelRun:
    def test_parallel_equals_serial(self, small_corpus):
        serial = EvaluationSession(small_corpus).run(limit=30)
        parallel = EvaluationSession(small_corpus).run(limit=30, jobs=3)

        assert len(parallel.patches) == len(serial.patches)
        for a, b in zip(serial.patches, parallel.patches):
            assert a.commit_id == b.commit_id
            assert a.certified == b.certified
            assert a.elapsed_seconds == pytest.approx(b.elapsed_seconds)
            assert a.invocation_counts == b.invocation_counts
            assert [f.status for f in a.files] == \
                [f.status for f in b.files]

    def test_parallel_ignored_accounting_matches(self, small_corpus):
        serial = EvaluationSession(small_corpus).run()
        parallel = EvaluationSession(small_corpus).run(jobs=2)
        assert serial.ignored_commits == parallel.ignored_commits
        assert serial.total_commits == parallel.total_commits
