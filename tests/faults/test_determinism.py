"""The acceptance surface for deterministic fault injection.

A fault plan's firing decisions are a pure function of (plan, commit),
so the canonical records of a faulted evaluation must be byte-identical
however the run is executed: serial or parallel, cache on or off,
observed or not. This is the fault-injection analogue of the cache
equivalence suite — under an *active* storm of mixed faults.
"""

import sys

import pytest

from repro.evalsuite.runner import EvaluationSession

LIMIT = 30


@pytest.fixture(scope="module")
def faulted(small_corpus, storm_plan):
    """The reference run: serial, cached, unobserved, faults active."""
    return EvaluationSession(small_corpus,
                            fault_plan=storm_plan).run(limit=LIMIT)


class TestFaultedRunIsDeterministic:
    def test_rerun_is_byte_identical(self, small_corpus, storm_plan,
                                     faulted):
        again = EvaluationSession(small_corpus,
                                 fault_plan=storm_plan).run(limit=LIMIT)
        assert again.canonical_records() == faulted.canonical_records()

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="fork start method required")
    def test_jobs_invariant(self, small_corpus, storm_plan, faulted):
        parallel = EvaluationSession(
            small_corpus, fault_plan=storm_plan).run(limit=LIMIT, jobs=4)
        assert parallel.canonical_records() == faulted.canonical_records()

    def test_cache_invariant(self, small_corpus, storm_plan, faulted):
        uncached = EvaluationSession(
            small_corpus, cache=False,
            fault_plan=storm_plan).run(limit=LIMIT)
        assert uncached.canonical_records() == faulted.canonical_records()

    def test_observability_invariant(self, small_corpus, storm_plan,
                                     faulted):
        observed = EvaluationSession(
            small_corpus, observe=True,
            fault_plan=storm_plan).run(limit=LIMIT)
        assert observed.canonical_records() == faulted.canonical_records()


class TestStormActuallyStorms:
    def test_faults_were_injected(self, faulted):
        total = sum(len(patch.fault_reports)
                    for patch in faulted.patches)
        assert total > 0

    def test_faulted_run_differs_from_baseline(self, small_corpus,
                                               faulted):
        baseline = EvaluationSession(small_corpus).run(limit=LIMIT)
        assert baseline.canonical_records() != faulted.canonical_records()

    def test_reports_follow_the_plan(self, faulted, storm_plan):
        planned_kinds = {spec.kind for spec in storm_plan.specs}
        for patch in faulted.patches:
            for report in patch.fault_reports:
                assert report.kind in planned_kinds
                assert report.scope == patch.commit_id
