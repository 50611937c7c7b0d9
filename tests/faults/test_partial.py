"""PARTIAL verdict plumbing, and the keep_going silent-abort regression.

``make_vmlinux(keep_going=True)`` records per-unit failures instead of
raising; callers that only looked at the returned image silently
absorbed them, counting a partially built kernel as fully checked. The
explicit :attr:`VmlinuxBuild.verdict` (and, at the evaluation level,
:attr:`PatchRecord.fully_checked`) is the regression surface.
"""

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.faults.plan import FaultPlan, FaultSpec
from repro.kbuild.build import BuildError, VmlinuxBuild

from tests.faults.conftest import make_build_system, plan_of

WIFI_FAULT = {"kind": "io_error", "site": "compile",
              "path": "drivers/net/wifi.c", "times": 10}


class TestVmlinuxVerdict:
    def test_clean_build_is_clean(self):
        build = VmlinuxBuild(image=object(), arch="x86_64")
        assert build.clean
        assert build.verdict == "CLEAN"

    def test_failures_degrade_the_verdict(self):
        build = VmlinuxBuild(image=object(), arch="x86_64",
                             failed={"a.c": "boom"})
        assert not build.clean
        assert build.verdict == "PARTIAL:x86_64"

    def test_verdict_without_arch_still_partial(self):
        build = VmlinuxBuild(image=object(), failed={"a.c": "boom"})
        assert build.verdict == "PARTIAL"


class TestKeepGoingRegression:
    def test_unfaulted_tree_builds_clean(self, tree):
        build = make_build_system(tree)
        config = build.make_config("x86_64", "allyesconfig")
        result = build.make_vmlinux("x86_64", config)
        assert result.verdict == "CLEAN"
        assert result.failed == {}

    def test_keep_going_failure_is_not_silent(self, tree):
        """The image links, but the verdict must still say PARTIAL."""
        build = make_build_system(tree, plan=plan_of(WIFI_FAULT))
        config = build.make_config("x86_64", "allyesconfig")
        result = build.make_vmlinux("x86_64", config, keep_going=True)
        assert result.image is not None       # truthiness is the trap
        assert list(result.failed) == ["drivers/net/wifi.c"]
        assert result.verdict == "PARTIAL:x86_64"

    def test_keep_going_false_raises(self, tree):
        build = make_build_system(tree, plan=plan_of(WIFI_FAULT))
        config = build.make_config("x86_64", "allyesconfig")
        with pytest.raises(BuildError) as excinfo:
            build.make_vmlinux("x86_64", config, keep_going=False)
        assert excinfo.value.kind == "io_error"


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
