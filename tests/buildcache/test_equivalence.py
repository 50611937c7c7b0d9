"""The acceptance surface: cached runs are byte-identical to uncached.

A 50-commit evaluation window is checked three ways — uncached, cached
cold, and cached warm (second run over the same shared cache, which is
where hit rates approach 100%) — and every verdict-bearing field must
agree exactly, floats included.
"""

import pytest

from repro.buildcache.cache import BuildCache, CachePolicy
from repro.cc.toolchain import ToolchainRegistry
from repro.evalsuite.runner import EvaluationSession

LIMIT = 50


@pytest.fixture(scope="module")
def corpus(midsize_corpus):
    """The shared session corpus (see ``tests/conftest.py``)."""
    return midsize_corpus


@pytest.fixture(scope="module")
def uncached(corpus):
    return EvaluationSession(corpus, cache=False).run(limit=LIMIT)


class TestCachedEqualsUncached:
    def test_cold_cache_byte_identical(self, corpus, uncached):
        cached = EvaluationSession(corpus).run(limit=LIMIT)
        assert cached.canonical_records() == uncached.canonical_records()

    def test_warm_cache_byte_identical(self, corpus, uncached):
        shared = BuildCache()
        EvaluationSession(corpus, cache=shared).run(limit=LIMIT)
        warm = EvaluationSession(corpus, cache=shared).run(limit=LIMIT)
        assert warm.canonical_records() == uncached.canonical_records()
        assert warm.cache_stats.kind("preprocess").hit_rate > 0.9

    def test_primed_cache_byte_identical(self, corpus, uncached):
        primed = BuildCache()
        primed.prime(corpus.tree, ToolchainRegistry())
        cached = EvaluationSession(corpus, cache=primed).run(limit=LIMIT)
        assert cached.canonical_records() == uncached.canonical_records()

    def test_cache_stats_populated(self, corpus):
        result = EvaluationSession(corpus).run(limit=LIMIT)
        stats = result.cache_stats
        assert stats is not None
        assert stats.kind("preprocess").probes > 0
        assert stats.kind("config").probes > 0

    def test_no_cache_run_has_no_stats(self, uncached):
        assert uncached.cache_stats is None


class TestParallelCached:
    def test_parallel_matches_serial_cached(self, corpus):
        serial = EvaluationSession(corpus).run(limit=30)
        parallel = EvaluationSession(corpus).run(limit=30, jobs=3)
        assert len(parallel.patches) == len(serial.patches)
        for a, b in zip(serial.patches, parallel.patches):
            assert a.commit_id == b.commit_id
            assert a.certified == b.certified
            assert a.elapsed_seconds == pytest.approx(b.elapsed_seconds)
            assert a.invocation_counts == b.invocation_counts
            assert [f.status for f in a.files] == \
                [f.status for f in b.files]

    def test_parallel_aggregates_worker_stats(self, corpus):
        result = EvaluationSession(corpus).run(limit=30, jobs=3)
        assert result.cache_stats is not None
        assert result.cache_stats.kind("preprocess").probes > 0

    def test_warm_cache_reaches_the_workers(self, corpus):
        """Workers start from the session's cache, so a second jobs run
        over the first run's cache hits what that run stored."""
        shared = BuildCache()
        EvaluationSession(corpus, cache=shared).run(limit=30)
        warm = EvaluationSession(corpus, cache=shared).run(limit=30,
                                                           jobs=3)
        assert warm.cache_stats.kind("object").hits > 0


class TestProbeClockPolicy:
    def test_probe_clock_keeps_verdicts_compresses_time(self, corpus,
                                                        uncached):
        shared = BuildCache(CachePolicy(clock="probe"))
        EvaluationSession(corpus, cache=shared).run(limit=LIMIT)
        warm = EvaluationSession(corpus, cache=shared).run(limit=LIMIT)
        verdicts = [(p.commit_id, p.certified,
                     [f.status for f in p.files]) for p in warm.patches]
        baseline = [(p.commit_id, p.certified,
                     [f.status for f in p.files])
                    for p in uncached.patches]
        assert verdicts == baseline
        assert sum(warm.overall_durations()) < \
            sum(uncached.overall_durations())


class TestJobsValidation:
    def test_jobs_zero_rejected(self, corpus):
        with pytest.raises(ValueError, match="positive"):
            EvaluationSession(corpus).run(limit=1, jobs=0)

    def test_jobs_negative_rejected(self, corpus):
        with pytest.raises(ValueError, match="positive"):
            EvaluationSession(corpus).run(limit=1, jobs=-2)
