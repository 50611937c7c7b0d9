"""Graceful degradation across the whole fault matrix.

For every legal (kind, site) combination, a plan that fires that fault
on every eligible attempt is run over the shared corpus. The contract:

- the pipeline always completes — no fault ever escapes to the caller;
- faults only ever *degrade* verdicts: a file the faulted run calls OK
  was OK in the fault-free baseline too (no false COMPILED);
- every injected fault leaves exactly one structured FaultReport.
"""

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    PROCESS_SITES,
    SITE_CACHE_LOAD,
    SITE_CACHE_STORE,
    valid_kind_sites,
)

LIMIT = 4

STEP_SITES = ("config", "preprocess", "compile")

#: the sequential pipeline's matrix; process-level kinds (worker
#: crash/hang, torn journal writes) have their own chaos suites in
#: tests/faults/test_chaos.py and tests/service/test_chaos_transport.py
PIPELINE_MATRIX = [combo for combo in valid_kind_sites()
                   if combo[1] not in PROCESS_SITES]


@pytest.fixture(scope="module")
def baseline(small_corpus):
    return EvaluationSession(small_corpus).run(limit=LIMIT)


@pytest.fixture(scope="module", params=PIPELINE_MATRIX,
                ids=lambda combo: "@".join(combo))
def faulted_combo(request, small_corpus):
    """(kind, site, result) for one always-firing single-rule plan."""
    kind, site = request.param
    plan = FaultPlan(seed="matrix", specs=[
        FaultSpec(kind=kind, site=site, times=10)])
    result = EvaluationSession(small_corpus, fault_plan=plan,
                              observe=True).run(limit=LIMIT)
    return kind, site, result


def ok_instances(result):
    """(commit, path) pairs whose file verdict was a success."""
    return {(record.commit_id, record.path)
            for patch in result.patches for record in patch.files
            if record.status.is_success}


class TestFaultMatrix:
    def test_pipeline_completes(self, faulted_combo, baseline):
        _, _, result = faulted_combo
        # same commit population: no fault ever raised to the caller
        assert [patch.commit_id for patch in result.patches] == \
            [patch.commit_id for patch in baseline.patches]

    def test_faults_only_degrade_verdicts(self, faulted_combo, baseline):
        _, _, result = faulted_combo
        # no false COMPILED: success claims are a subset of baseline's
        assert ok_instances(result) <= ok_instances(baseline)

    def test_verdicts_stay_well_formed(self, faulted_combo):
        _, _, result = faulted_combo
        for patch in result.patches:
            assert patch.verdict in ("CERTIFIED", "ATTENTION REQUIRED") \
                or patch.verdict.startswith("PARTIAL:")

    def test_every_injected_fault_is_reported(self, faulted_combo):
        kind, site, result = faulted_combo
        reports = [report for patch in result.patches
                   for report in patch.fault_reports]
        assert reports, f"{kind}@{site} never fired in {LIMIT} commits"
        for report in reports:
            assert report.kind == kind
            assert report.site == site
            assert report.attempt >= 1
        if site in STEP_SITES:
            # step-site firings are also counted by the build system;
            # the structured reports must match one-for-one
            counters = result.metrics.to_dict()["counters"]
            assert counters["build.faults.injected"] == len(reports)
            assert counters[f"build.faults.{kind}"] == len(reports)


class TestCacheSiteFaultsAreHarmless:
    """Corruption costs time, never correctness (load/store sites)."""

    @pytest.mark.parametrize("kind,site", [
        ("cache_corrupt", SITE_CACHE_LOAD),
        ("io_error", SITE_CACHE_STORE),
    ])
    def test_verdicts_identical_to_baseline(self, small_corpus, baseline,
                                            kind, site):
        plan = FaultPlan(seed="matrix", specs=[
            FaultSpec(kind=kind, site=site, times=10)])
        result = EvaluationSession(small_corpus,
                                  fault_plan=plan).run(limit=LIMIT)
        assert result.canonical_records() == baseline.canonical_records()
