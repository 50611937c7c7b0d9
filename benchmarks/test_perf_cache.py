"""Wall-clock benchmark of the content-addressed build cache.

Runs the same 200-commit evaluation window three times — uncached,
cached cold, and cached warm (same shared cache) — asserts the verdict
surface is byte-identical throughout, and records the warm speedup
over the uncached run in ``artifacts/perf_cache.txt``. Cold-vs-warm
figures come from the ``e2ebench`` workloads ``window_cold`` and
``window_warm``, not from this file.

Simulated timings are untouched by design (the replay clock policy);
this file measures the *real* seconds the cache saves the machine
running the reproduction.
"""

import time

import pytest

from repro.buildcache.cache import BuildCache
from repro.evalsuite.runner import EvaluationSession
from repro.workload.corpus import CorpusSpec, build_corpus

CACHE_BENCH_COMMITS = 200


@pytest.fixture(scope="module")
def cache_corpus():
    return build_corpus(CorpusSpec(
        seed="perf-cache-v1",
        history_commits=200,
        eval_commits=CACHE_BENCH_COMMITS,
        regular_developers=20,
    ))


def test_perf_cache_warm_speedup(cache_corpus, record_artifact):
    t0 = time.perf_counter()
    uncached = EvaluationSession(cache_corpus, cache=False).run()
    t_uncached = time.perf_counter() - t0

    cache = BuildCache()
    cold = EvaluationSession(cache_corpus, cache=cache).run()

    # best-of-two warm passes to keep the ratio robust to machine noise
    warm_times = []
    for _ in range(2):
        t0 = time.perf_counter()
        warm = EvaluationSession(cache_corpus, cache=cache).run()
        warm_times.append(time.perf_counter() - t0)
    t_warm = min(warm_times)

    baseline = uncached.canonical_records()
    assert cold.canonical_records() == baseline
    assert warm.canonical_records() == baseline

    speedup_warm = t_uncached / t_warm
    stats = warm.cache_stats
    lines = [
        f"commits evaluated        : {len(uncached.patches)} "
        f"(window of {CACHE_BENCH_COMMITS})",
        f"uncached wall clock      : {t_uncached:8.2f} s",
        f"cached warm wall clock   : {t_warm:8.2f} s   "
        f"({speedup_warm:.2f}x vs uncached)",
        f"warm preprocess hit rate : "
        f"{stats.kind('preprocess').hit_rate:8.1%}",
        f"warm object hit rate     : {stats.kind('object').hit_rate:8.1%}",
        f"warm config hit rate     : {stats.kind('config').hit_rate:8.1%}",
        f"artifact bytes served    : {stats.bytes_saved}",
        f"simulated seconds modeled: {stats.sim_seconds_saved:.1f}",
        "verdict surface          : byte-identical across all three runs",
    ]
    record_artifact("perf_cache", "\n".join(lines))

    assert speedup_warm >= 2.0, \
        f"warm cache speedup {speedup_warm:.2f}x below the 2x target"
