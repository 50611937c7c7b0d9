"""Wall-clock benchmark: the check service vs per-request dispatch.

Per-request dispatch is how a naive bot would run JMake: every incoming
request gets its own session and its own private build cache, so each
of them re-solves the same Kconfig models and configurations. The
check service instead keeps one warm build cache across requests, so
at steady state a batch of concurrent requests rides work its
predecessors already paid for.

The acceptance bar (ISSUE 4): the steady-state service must clear
1.5x the per-request-dispatch throughput at 8 concurrent requests.
Simulated timings and verdicts are byte-identical either way — only
the real seconds change.
"""

import asyncio
import json
import os
import time

import pytest

from benchmarks.calibration import calibrate, stage
from repro.buildcache.cache import BuildCache
from repro.core.changes import extract_changed_files
from repro.core.jmake import CheckSession
from repro.service.request import CheckRequest
from repro.service.service import CheckService, ServiceConfig
from repro.workload.corpus import Corpus

CONCURRENT_REQUESTS = 8
SPEEDUP_FLOOR = 1.5

#: transport steady-state comparison (ISSUE 8): jobs per transport and
#: the mp-over-asyncio acceptance floor, which only binds on machines
#: with enough cores to actually run the workers in parallel
TRANSPORT_JOBS = 4
MP_SPEEDUP_FLOOR = 2.5
TRANSPORT_COMMITS = 24


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def request_batch(bench_corpus):
    repository = bench_corpus.repository
    commits = repository.log(since=Corpus.TAG_EVAL_START,
                             until=Corpus.TAG_EVAL_END)
    checkable = [commit for commit in commits
                 if extract_changed_files(repository.show(commit))]
    return checkable[:CONCURRENT_REQUESTS]


def test_perf_service_batching_speedup(bench_corpus, request_batch,
                                       record_artifact):
    commit_ids = [commit.id for commit in request_batch]

    # per-request dispatch: a fresh session + private cache per request
    t0 = time.perf_counter()
    dispatch_reports = []
    for commit in request_batch:
        session = CheckSession.from_generated_tree(
            bench_corpus.tree, cache=BuildCache())
        dispatch_reports.append(
            session.check_commit(bench_corpus.repository, commit))
    t_dispatch = time.perf_counter() - t0

    # the service: one shared warm cache; one warmup batch models the
    # long-lived steady state, the second is timed
    service = CheckService(bench_corpus, config=ServiceConfig(),
                           cache=BuildCache())
    service.check_commits(commit_ids)
    t0 = time.perf_counter()
    service_results = service.check_commits(commit_ids)
    t_service = time.perf_counter() - t0

    for report, result in zip(dispatch_reports, service_results):
        assert result.record == report.to_dict()

    speedup = t_dispatch / t_service
    record_artifact("perf_service", "\n".join([
        f"concurrent requests:     {CONCURRENT_REQUESTS}",
        f"per-request dispatch:    {t_dispatch:.3f}s",
        f"service (steady state):  {t_service:.3f}s",
        f"throughput speedup:      {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)",
    ]))
    assert speedup >= SPEEDUP_FLOOR, (
        f"service throughput {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance floor")


# -- transport steady-state throughput (BENCH_service.json) -----------------


@pytest.fixture(scope="module")
def transport_batch(bench_corpus):
    repository = bench_corpus.repository
    commits = repository.log(since=Corpus.TAG_EVAL_START,
                             until=Corpus.TAG_EVAL_END)
    checkable = [commit for commit in commits
                 if extract_changed_files(repository.show(commit))]
    return checkable[:TRANSPORT_COMMITS]


def _steady_state_run(corpus, commit_ids, transport):
    """Warm-up batch, then a timed batch on the same live workers.

    The service is started once and drained once, so the timed batch
    hits warm workers: mp children have primed their caches during the
    warm-up, matching the long-lived serve-mode steady state.
    """

    async def main():
        service = CheckService(
            corpus, config=ServiceConfig(transport=transport,
                                         jobs=TRANSPORT_JOBS))
        await service.start()
        try:
            async def batch():
                return await asyncio.gather(*[
                    service.submit(CheckRequest(commit_id=commit_id))
                    for commit_id in commit_ids])

            await batch()                      # warm-up
            t0 = time.perf_counter()
            results = await batch()            # steady state
            elapsed = time.perf_counter() - t0
        finally:
            await service.drain()
        return results, elapsed

    return asyncio.run(main())


def test_perf_transport_throughput(bench_corpus, transport_batch,
                                   artifacts_dir, record_artifact):
    """mp steady-state throughput vs asyncio; emits BENCH_service.json.

    The acceptance bar (ISSUE 8): at ``--jobs 4`` the warm
    multiprocessing pool must clear 2.5x the asyncio transport's
    steady-state throughput. That bar measures real parallelism, so it
    only binds where 4 workers can actually run concurrently; on
    smaller machines the benchmark still runs, records the artifact,
    and pins byte-identity, but skips the floor assertion.
    """
    commit_ids = [commit.id for commit in transport_batch]
    cores = _usable_cores()

    asyncio_results, t_asyncio = _steady_state_run(
        bench_corpus, commit_ids, "asyncio")
    mp_results, t_mp = _steady_state_run(
        bench_corpus, commit_ids, "mp")

    # substrate is pure scheduling: the records must not drift
    assert [result.record for result in mp_results] == \
        [result.record for result in asyncio_results]

    speedup = t_asyncio / t_mp
    calibration = calibrate()
    stages = [
        stage("service_asyncio_steady", len(commit_ids), t_asyncio,
              calibration),
        stage("service_mp_steady", len(commit_ids), t_mp, calibration),
    ]
    payload = {
        "suite": "service",
        "calibration_ops_per_sec": round(calibration, 2),
        "jobs": TRANSPORT_JOBS,
        "usable_cores": cores,
        "stages": stages,
        "speedup": {"mp_over_asyncio": round(speedup, 2)},
    }
    out = artifacts_dir / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    record_artifact("perf_transports", "\n".join([
        f"commits per batch:       {len(commit_ids)}",
        f"jobs per transport:      {TRANSPORT_JOBS}",
        f"usable cores:            {cores}",
        f"asyncio (steady state):  {t_asyncio:.3f}s",
        f"mp (steady state):       {t_mp:.3f}s",
        f"mp/asyncio speedup:      {speedup:.2f}x "
        f"(floor {MP_SPEEDUP_FLOOR}x on >= {TRANSPORT_JOBS} cores)",
        "records:                 byte-identical across transports",
    ]))

    if cores >= TRANSPORT_JOBS:
        assert speedup >= MP_SPEEDUP_FLOOR, (
            f"mp transport {speedup:.2f}x below the "
            f"{MP_SPEEDUP_FLOOR}x acceptance floor at "
            f"--jobs {TRANSPORT_JOBS}")
