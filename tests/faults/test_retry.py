"""Bounded retry, exponential backoff, and deterministic step timeouts."""

import pytest

from repro.faults.resilience import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.kbuild.build import BuildError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

from tests.faults.conftest import make_build_system, plan_of


class TestRetryPolicy:
    def test_defaults(self):
        assert DEFAULT_RETRY_POLICY.max_retries == 2
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.step_timeout_seconds is None

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base_seconds=1.0, backoff_factor=2.0)
        assert [policy.backoff_seconds(i) for i in range(3)] == \
            [1.0, 2.0, 4.0]

    def test_clamp_without_timeout_is_identity(self):
        assert RetryPolicy().clamp_attempt_seconds(30.0) == 30.0

    def test_clamp_with_timeout(self):
        policy = RetryPolicy(step_timeout_seconds=0.5)
        assert policy.clamp_attempt_seconds(30.0) == 0.5
        assert policy.clamp_attempt_seconds(0.1) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base_seconds=-0.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="step_timeout"):
            RetryPolicy(step_timeout_seconds=0)


class TestTransientRecovery:
    def test_config_flake_recovers_on_retry(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "config_fail", "times": 1}),
            metrics=MetricsRegistry())
        config = build.make_config("x86_64", "allyesconfig")
        assert config.enabled("PCI")
        # one doomed attempt charged its cost, one backoff slept
        assert build.clock.durations("fault") == [2.0]
        assert build.clock.durations("retry_backoff") == [1.0]
        counters = build.metrics.to_dict()["counters"]
        assert counters["build.retries"] == 1
        assert counters["build.faults.injected"] == 1
        assert counters["build.faults.config_fail"] == 1

    def test_preprocess_flake_recovers(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "preprocess_flake", "times": 1}))
        config = build.make_config("x86_64", "allyesconfig")
        results = build.make_i(["kernel/sched.c"], "x86_64", config)
        assert results[0].ok
        assert "schedule" in results[0].i_text
        assert build.clock.durations("fault") == [3.0]

    def test_retry_emits_spans(self, tree):
        tracer = Tracer()
        build = make_build_system(
            tree, plan=plan_of({"kind": "config_fail", "times": 1}),
            tracer=tracer)
        build.make_config("x86_64", "allyesconfig")
        spans = [span for root in tracer.drain() for span in root.walk()]
        retries = [span for span in spans if span.name == "retry"]
        assert len(retries) == 1
        assert retries[0].attributes["fault_kind"] == "config_fail"
        assert retries[0].attributes["backoff"] == 1.0

    def test_custom_attempt_cost(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "io_error", "site": "preprocess",
                                "times": 1, "cost_seconds": 7.5}))
        config = build.make_config("x86_64", "allyesconfig")
        build.make_i(["kernel/sched.c"], "x86_64", config)
        assert build.clock.durations("fault") == [7.5]


class TestPersistentFailure:
    def test_preprocess_exhausts_budget(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "preprocess_flake", "times": 5}),
            metrics=MetricsRegistry())
        config = build.make_config("x86_64", "allyesconfig")
        results = build.make_i(["kernel/sched.c"], "x86_64", config)
        assert not results[0].ok
        assert results[0].error_kind == "preprocess_flake"
        # 3 doomed attempts, 2 backoffs (1s then 2s)
        assert build.clock.durations("fault") == [3.0, 3.0, 3.0]
        assert build.clock.durations("retry_backoff") == [1.0, 2.0]
        assert build.metrics.to_dict()["counters"]["build.retries"] == 2

    def test_compile_fault_surfaces_as_build_error(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "compile_timeout", "times": 5}))
        config = build.make_config("x86_64", "allyesconfig")
        with pytest.raises(BuildError) as excinfo:
            build.make_o("kernel/sched.c", "x86_64", config)
        assert excinfo.value.kind == "timeout"

    def test_io_error_surfaces_with_its_own_kind(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "io_error", "site": "config",
                                "times": 5}))
        with pytest.raises(BuildError) as excinfo:
            build.make_config("x86_64", "allyesconfig")
        assert excinfo.value.kind == "io_error"

    def test_zero_retries_fails_on_first_fault(self, tree):
        build = make_build_system(
            tree, plan=plan_of({"kind": "config_fail", "times": 1}),
            retry_policy=RetryPolicy(max_retries=0))
        with pytest.raises(BuildError) as excinfo:
            build.make_config("x86_64", "allyesconfig")
        assert excinfo.value.kind == "config_failed"
        assert build.clock.durations("retry_backoff") == []


class TestStepTimeout:
    def test_config_timeout(self, tree):
        build = make_build_system(
            tree, retry_policy=RetryPolicy(step_timeout_seconds=1e-6),
            metrics=MetricsRegistry())
        with pytest.raises(BuildError) as excinfo:
            build.make_config("x86_64", "allyesconfig")
        assert excinfo.value.kind == "timeout"
        assert build.metrics.to_dict()["counters"]["build.timeouts"] == 1
        # the step burned exactly the timeout budget before failing
        assert build.clock.durations("config") == [1e-6]

    def test_config_timeout_quarantines_the_arch(self, tree):
        build = make_build_system(
            tree, retry_policy=RetryPolicy(step_timeout_seconds=1e-6))
        with pytest.raises(BuildError):
            build.make_config("x86_64", "allyesconfig")
        with pytest.raises(BuildError) as excinfo:
            build.make_config("x86_64", "allyesconfig")
        assert excinfo.value.kind == "quarantined"

    def test_compile_timeout(self, tree):
        config = make_build_system(tree).make_config("x86_64",
                                                     "allyesconfig")
        build = make_build_system(
            tree, retry_policy=RetryPolicy(step_timeout_seconds=1e-6))
        with pytest.raises(BuildError) as excinfo:
            build.make_o("kernel/sched.c", "x86_64", config)
        assert excinfo.value.kind == "timeout"

    def test_generous_timeout_changes_nothing(self, tree):
        build = make_build_system(
            tree, retry_policy=RetryPolicy(step_timeout_seconds=1e9))
        config = build.make_config("x86_64", "allyesconfig")
        assert build.make_o("kernel/sched.c", "x86_64", config) is not None

    def test_fault_cost_clamped_by_timeout(self, tree):
        # config built without the tiny timeout (it would trip on it);
        # make_i itself has no cost-model timeout check, so only the
        # clamp on the injected fault's charge is exercised
        config = make_build_system(tree).make_config("x86_64",
                                                     "allyesconfig")
        build = make_build_system(
            tree, plan=plan_of({"kind": "preprocess_flake", "times": 1}),
            retry_policy=RetryPolicy(step_timeout_seconds=0.25))
        results = build.make_i(["kernel/sched.c"], "x86_64", config)
        assert results[0].ok
        # the flake's 3s default cost is capped at the step timeout
        assert build.clock.durations("fault") == [0.25]
