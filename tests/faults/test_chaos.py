"""Chaos primitives: CrashPoint, crash_offsets, transport_chaos_plan."""

import pytest

from repro.errors import SimulatedCrashError
from repro.faults.chaos import (
    CrashPoint,
    crash_offsets,
    transport_chaos_plan,
)
from repro.faults.plan import (
    KIND_NET_HALF_OPEN,
    KIND_NET_PARTITION,
    KIND_NET_SLOW,
    KIND_SOCKET_DROP,
    KIND_WORKER_HANG,
    KIND_WORKER_KILL,
)


class TestCrashPoint:
    def test_fires_at_the_threshold(self):
        point = CrashPoint(3)
        point(1)
        point(2)
        with pytest.raises(SimulatedCrashError):
            point(3)

    def test_counts_its_own_observations(self):
        # the observer counts calls, not the sequence argument: a
        # resumed process that emits verdicts 5..8 with CrashPoint(2)
        # dies after its *second* fresh verdict
        point = CrashPoint(2)
        point(5)
        with pytest.raises(SimulatedCrashError):
            point(6)
        assert point.observed == 2

    def test_disarmed_point_never_fires(self):
        point = CrashPoint(1)
        point.armed = False
        for sequence in range(1, 10):
            point(sequence)
        assert point.observed == 9

    def test_keeps_firing_past_the_threshold(self):
        point = CrashPoint(2)
        point(1)
        with pytest.raises(SimulatedCrashError):
            point(2)
        with pytest.raises(SimulatedCrashError):
            point(3)

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_nonpositive_threshold_is_rejected(self, bad):
        with pytest.raises(ValueError):
            CrashPoint(bad)


class TestCrashOffsets:
    def test_deterministic(self):
        assert crash_offsets("s", 30, 3) == crash_offsets("s", 30, 3)

    def test_seed_sensitivity(self):
        assert crash_offsets("a", 30, 5) != crash_offsets("b", 30, 5)

    def test_distinct_sorted_in_range(self):
        offsets = crash_offsets("prop", 30, 5)
        assert len(offsets) == 5
        assert len(set(offsets)) == 5
        assert offsets == sorted(offsets)
        assert all(1 <= offset <= 29 for offset in offsets)

    def test_count_clamped_to_available_span(self):
        # total=3 leaves offsets {1, 2}: asking for 10 yields both
        assert sorted(crash_offsets("s", 3, 10)) == [1, 2]

    def test_offsets_leave_work_on_both_sides(self):
        # every offset kills after >=1 record with >=1 record left
        for total in (2, 5, 17):
            for offset in crash_offsets("edge", total, 4):
                assert 1 <= offset < total

    def test_too_short_run_is_rejected(self):
        with pytest.raises(ValueError):
            crash_offsets("s", 1, 1)


class TestTransportChaosPlan:
    #: each rate keyword and the fault kind it schedules, in plan order
    RATES = {"kill_rate": KIND_WORKER_KILL, "drop_rate": KIND_SOCKET_DROP,
             "hang_rate": KIND_WORKER_HANG,
             "partition_rate": KIND_NET_PARTITION,
             "slow_rate": KIND_NET_SLOW,
             "half_open_rate": KIND_NET_HALF_OPEN}

    def test_transport_chaos_plan_validates(self):
        with pytest.raises(ValueError):
            transport_chaos_plan("seed")
        for rate, kind in self.RATES.items():
            plan = transport_chaos_plan("seed", **{rate: 0.5})
            assert [(spec.kind, spec.rate, spec.times)
                    for spec in plan.specs] == [(kind, 0.5, 1)], rate
        plan = transport_chaos_plan(7, times=2,
                                    **{rate: 0.25 for rate in self.RATES})
        assert plan.seed == "7"
        assert [spec.kind for spec in plan.specs] == list(self.RATES.values())
        assert all(spec.times == 2 for spec in plan.specs)
