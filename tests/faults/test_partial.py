"""PARTIAL verdicts: a benched architecture is never silently absorbed.

When every configuration of an architecture fails persistently, the
circuit breaker quarantines it and the commit's verdict degrades to
``PARTIAL:<arch>``; :attr:`PatchRecord.fully_checked` and the canonical
records carry that signal, so a partially checked commit never passes
for a fully checked one.
"""

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.faults.plan import FaultPlan, FaultSpec


@pytest.fixture(scope="module")
def arm_benched(small_corpus):
    """A run whose every arm configuration fails persistently."""
    plan = FaultPlan(seed="bench-arm", specs=[
        FaultSpec(kind="config_fail", arch="arm", times=10)])
    return EvaluationSession(small_corpus, fault_plan=plan).run(limit=10)


class TestRunnerPartial:
    def test_arm_commits_degrade_to_partial(self, arm_benched):
        partial = [patch for patch in arm_benched.patches
                   if patch.verdict.startswith("PARTIAL")]
        assert partial, "no commit exercised the arm toolchain"
        for patch in partial:
            assert patch.verdict == "PARTIAL:arm"
            assert patch.quarantined_archs == ["arm"]

    def test_partial_commits_are_not_fully_checked(self, arm_benched):
        for patch in arm_benched.patches:
            assert patch.fully_checked == (not patch.quarantined_archs)
        assert any(not patch.fully_checked
                   for patch in arm_benched.patches)

    def test_partial_verdict_in_canonical_records(self, arm_benched):
        assert "verdict=PARTIAL:arm" in arm_benched.canonical_records()

    def test_unbenched_commits_keep_normal_verdicts(self, arm_benched):
        whole = [patch for patch in arm_benched.patches
                 if patch.fully_checked]
        assert whole, "every commit was benched — plan too aggressive"
        for patch in whole:
            assert patch.verdict in ("CERTIFIED", "ATTENTION REQUIRED")
