"""Unit tests for fault-plan parsing, validation, and the seeded draw."""

import os

import pytest

from repro.errors import FaultPlanError
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    BUILTIN_KINDS,
    INJECTION_SITES,
    PIPELINE_SITES,
    PROCESS_SITES,
    SITE_WORKER,
    FaultPlan,
    FaultSpec,
    unit_draw,
    valid_kind_sites,
)

EXAMPLE_PLAN = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples", "faultplan.json")


class TestFaultMatrix:
    def test_every_builtin_kind_has_a_site(self):
        kinds = {kind for kind, _ in valid_kind_sites()}
        assert kinds == set(BUILTIN_KINDS)

    def test_io_error_is_valid_at_every_pipeline_site(self):
        io_sites = {site for kind, site in valid_kind_sites()
                    if kind == "io_error"}
        assert io_sites == set(PIPELINE_SITES)

    def test_sites_partition_into_pipeline_and_process(self):
        assert set(INJECTION_SITES) == \
            set(PIPELINE_SITES) | set(PROCESS_SITES)
        assert not set(PIPELINE_SITES) & set(PROCESS_SITES)

    def test_matrix_size(self):
        # 5 single-site pipeline kinds + io_error at all 5 pipeline
        # sites + the 8 process-level kinds (worker crash/hang, torn
        # journal append, transport worker kill / socket drop, and the
        # net_partition / net_slow / net_half_open link faults)
        assert len(valid_kind_sites()) == 18


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="nope")

    def test_illegal_site_rejected(self):
        with pytest.raises(FaultPlanError, match="cannot be injected"):
            FaultSpec(kind="config_fail", site="compile")

    def test_default_site_is_the_kinds_first(self):
        assert FaultSpec(kind="config_fail").site == "config"
        assert FaultSpec(kind="truncate_i").site == "preprocess"
        assert FaultSpec(kind="io_error").site == "config"

    def test_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultSpec(kind="io_error", rate=1.5)
        with pytest.raises(FaultPlanError, match="rate"):
            FaultSpec(kind="io_error", rate=-0.1)

    def test_times_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="times"):
            FaultSpec(kind="io_error", times=0)

    def test_cost_cannot_be_negative(self):
        with pytest.raises(FaultPlanError, match="cost_seconds"):
            FaultSpec(kind="io_error", cost_seconds=-1.0)

    def test_attempt_cost_defaults_per_kind(self):
        assert FaultSpec(kind="config_fail").attempt_cost_seconds == 2.0
        assert FaultSpec(kind="truncate_i").attempt_cost_seconds == 0.0

    def test_attempt_cost_override(self):
        spec = FaultSpec(kind="config_fail", cost_seconds=7.5)
        assert spec.attempt_cost_seconds == 7.5


class TestFaultSpecMatching:
    def test_star_arch_matches_everything(self):
        spec = FaultSpec(kind="io_error", site="compile")
        assert spec.matches("compile", "x86_64", "a.c")
        assert spec.matches("compile", "arm", "b.c")

    def test_arch_filter(self):
        spec = FaultSpec(kind="io_error", site="compile", arch="arm")
        assert spec.matches("compile", "arm", "a.c")
        assert not spec.matches("compile", "x86_64", "a.c")

    def test_path_substring_filter(self):
        spec = FaultSpec(kind="io_error", site="compile", path="drivers/")
        assert spec.matches("compile", "arm", "drivers/net/e1000.c")
        assert not spec.matches("compile", "arm", "kernel/sched.c")

    def test_site_mismatch_never_matches(self):
        spec = FaultSpec(kind="io_error", site="compile")
        assert not spec.matches("preprocess", "arm", "a.c")

    def test_worker_path_is_the_exact_pickup_label(self):
        spec = FaultSpec(kind="worker_kill", arch="worker-0",
                         path="pickup-1")
        assert spec.matches(SITE_WORKER, "worker-0", "pickup-1")
        for label in ("pickup-10", "pickup-19", "pickup-100", "xpickup-1"):
            assert not spec.matches(SITE_WORKER, "worker-0", label)

    def test_worker_rule_fires_on_the_first_pickup_only(self):
        injector = FaultInjector(FaultPlan(
            seed="exact-pickup",
            specs=[FaultSpec(kind="worker_kill", arch="worker-0",
                             path="pickup-1")]))
        injector.begin_scope("worker-0")
        fired = [pickup for pickup in range(1, 25)
                 if injector.fire(SITE_WORKER, arch="worker-0",
                                  path=f"pickup-{pickup}") is not None]
        assert fired == [1]


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(seed="rt", specs=[
            FaultSpec(kind="preprocess_flake", rate=0.25, times=3),
            FaultSpec(kind="io_error", site="cache_store",
                      path="preprocess:", cost_seconds=0.5),
        ])
        again = FaultPlan.loads(plan.dumps())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == "rt"
        assert [spec.kind for spec in again.specs] == \
            ["preprocess_flake", "io_error"]

    def test_defaults_omitted_from_dict(self):
        record = FaultSpec(kind="config_fail").to_dict()
        assert record == {"kind": "config_fail", "site": "config"}

    def test_unknown_rule_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault fields"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "io_error", "color": "red"}]})

    def test_rule_needs_a_kind(self):
        with pytest.raises(FaultPlanError, match="needs a 'kind'"):
            FaultPlan.from_dict({"faults": [{"site": "config"}]})

    def test_unknown_plan_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan"):
            FaultPlan.from_dict({"seeds": 3})

    def test_faults_must_be_a_list(self):
        with pytest.raises(FaultPlanError, match="JSON array"):
            FaultPlan.from_dict({"faults": {"kind": "io_error"}})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="invalid fault-plan JSON"):
            FaultPlan.loads("{not json")

    def test_load_missing_file(self):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.load("/nonexistent/faultplan.json")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(seed=3, specs=[
            FaultSpec(kind="cache_corrupt")]).dumps())
        plan = FaultPlan.load(str(path))
        assert plan.seed == 3
        assert plan.specs[0].kind == "cache_corrupt"

    def test_shipped_example_plan_parses(self):
        plan = FaultPlan.load(EXAMPLE_PLAN)
        assert plan.seed == "storm-7"
        assert len(plan.specs) == 6

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(specs=[FaultSpec(kind="io_error")])


class TestUnitDraw:
    def test_in_unit_interval(self):
        for index in range(50):
            draw = unit_draw("seed", "scope", index)
            assert 0.0 <= draw < 1.0

    def test_deterministic(self):
        assert unit_draw("s", "c", 1, "config", "arm", "t", 2) == \
            unit_draw("s", "c", 1, "config", "arm", "t", 2)

    def test_identity_sensitive(self):
        draws = {unit_draw("s", "c", index) for index in range(32)}
        assert len(draws) == 32
