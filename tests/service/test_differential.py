"""The service-mode acceptance surface: byte-identical verdicts.

The INVARIANT of the check service (DESIGN.md §6): for any corpus,
cache on or off, fault plan active or not, and any execution
substrate, the verdict-bearing canonical records of a service-mode run
are byte-identical to the sequential ``EvaluationSession`` run. This
is the service analogue of the cache-equivalence and
fault-determinism suites, and it is what makes the service safe to put
in front of janitors: admission and process placement are pure
scheduling.

The transport matrix is the tentpole acceptance surface for the
mp/socket backends: every cell (transport × cache × storm) must
reproduce the sequential bytes exactly, including the
``PARTIAL:<arch>`` verdicts the storm's quarantine trips produce —
a verdict that crossed a pipe or a socket is the same verdict.
"""

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.service import ServiceConfig

LIMIT = 30

TRANSPORTS = ["asyncio", "mp", "socket"]

#: persistent arm config failure: survives every retry, so the
#: per-patch circuit breaker benches the arch and the verdict
#: degrades to PARTIAL:arm (the same plan test_partial.py trusts)
QUARANTINE_PLAN = FaultPlan(seed="bench-arm", specs=[
    FaultSpec(kind="config_fail", arch="arm", times=10)])


@pytest.fixture(scope="module")
def sequential(small_corpus):
    """The clean reference: serial, private cache, no faults."""
    return EvaluationSession(small_corpus).run(limit=LIMIT)


@pytest.fixture(scope="module")
def faulted_sequential(small_corpus, storm_plan):
    """The faulted reference: serial run under the mixed storm."""
    return EvaluationSession(small_corpus,
                             fault_plan=storm_plan).run(limit=LIMIT)


class TestCleanRunsMatch:
    def test_default_service_config(self, small_corpus, sequential):
        via_service = EvaluationSession(small_corpus).run(
            limit=LIMIT, service=True)
        assert via_service.canonical_records() == \
            sequential.canonical_records()


class TestFaultedRunsMatch:
    def test_storm_actually_stormed(self, faulted_sequential,
                                    sequential):
        assert faulted_sequential.canonical_records() != \
            sequential.canonical_records()
        assert sum(len(patch.fault_reports)
                   for patch in faulted_sequential.patches) > 0


class TestTransportMatrix:
    """transport × cache × storm: every cell reproduces the bytes."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_clean_grid(self, small_corpus, sequential, transport):
        config = ServiceConfig(transport=transport, jobs=2)
        via_service = EvaluationSession(small_corpus).run(
            limit=LIMIT, service=config)
        assert via_service.canonical_records() == \
            sequential.canonical_records()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("cache", [False, True])
    def test_storm_grid(self, small_corpus, storm_plan,
                        faulted_sequential, transport, cache):
        config = ServiceConfig(transport=transport, jobs=2)
        via_service = EvaluationSession(
            small_corpus, cache=cache,
            fault_plan=storm_plan).run(limit=LIMIT, service=config)
        assert via_service.canonical_records() == \
            faulted_sequential.canonical_records()


class TestQuarantineMatrix:
    """PARTIAL:<arch> verdicts cross every transport byte-identically.

    The mixed storm perturbs timing and retries but never benches an
    arch, so the PARTIAL leg gets its own plan: a persistent arm
    config failure that trips the per-patch circuit breaker. The
    sequential reference proves the hard case is actually present;
    the grid proves a quarantine verdict that crossed a pipe or a
    socket is the same verdict.
    """

    @pytest.fixture(scope="class")
    def quarantined_sequential(self, small_corpus):
        return EvaluationSession(
            small_corpus,
            fault_plan=QUARANTINE_PLAN).run(limit=LIMIT)

    def test_reference_contains_partial_verdicts(
            self, quarantined_sequential):
        partial = [patch for patch in quarantined_sequential.patches
                   if patch.verdict.startswith("PARTIAL:")]
        assert partial, (
            "quarantine plan no longer benches arm; the PARTIAL leg "
            "of the transport matrix would be vacuous")
        for patch in partial:
            assert patch.verdict == "PARTIAL:arm"
            assert patch.quarantined_archs == ["arm"]
        assert "verdict=PARTIAL:arm" in \
            quarantined_sequential.canonical_records()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_partial_verdicts_cross_transports(
            self, small_corpus, quarantined_sequential, transport):
        config = ServiceConfig(transport=transport, jobs=2)
        via_service = EvaluationSession(
            small_corpus,
            fault_plan=QUARANTINE_PLAN).run(limit=LIMIT,
                                            service=config)
        assert via_service.canonical_records() == \
            quarantined_sequential.canonical_records()
