"""Wall-clock benchmark of the observability layer's overhead.

Two claims get measured on the same 200-commit window the cache
benchmark uses:

1. **Disabled instrumentation is free.** With observability off the
   pipeline holds the null tracer/registry, so every instrumentation
   site costs an attribute lookup plus a no-op ``with`` block. The
   benchmark runs the window instrumented-but-disabled against the
   acceptance bound (< 5% over the fastest pass) and records a
   per-null-span microbenchmark alongside.

2. **Enabling observability never changes the science.** The observed
   run's verdict surface (``canonical_records`` — every verdict, status
   and simulated duration) must be byte-identical to the unobserved
   run's.
"""

import json
import time

import pytest

from benchmarks.calibration import calibrate, stage, time_best
from repro.evalsuite.runner import EvaluationSession
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import (
    JsonlSink,
    parse_openmetrics,
    render_openmetrics,
)
from repro.obs.timeseries import Snapshotter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workload.corpus import CorpusSpec, build_corpus

OBS_BENCH_COMMITS = 200

#: acceptance bound: disabled instrumentation adds < 5% wall clock
MAX_NULL_OVERHEAD = 0.05

#: iterations for the per-null-span microbenchmark
_MICRO_SPANS = 200_000


@pytest.fixture(scope="module")
def obs_corpus():
    return build_corpus(CorpusSpec(
        seed="perf-obs-v1",
        history_commits=200,
        eval_commits=OBS_BENCH_COMMITS,
        regular_developers=20,
    ))


def _timed_run(corpus, observe):
    t0 = time.perf_counter()
    result = EvaluationSession(corpus, cache=False, observe=observe).run()
    return result, time.perf_counter() - t0


def test_perf_null_tracer_overhead(obs_corpus, record_artifact):
    # interleave repetitions so drift hits both variants equally
    plain_times, observed_times = [], []
    baseline = None
    observed_records = None
    for _ in range(3):
        plain, t_plain = _timed_run(obs_corpus, observe=False)
        observed, t_observed = _timed_run(obs_corpus, observe=True)
        plain_times.append(t_plain)
        observed_times.append(t_observed)
        if baseline is None:
            baseline = plain.canonical_records()
            observed_records = observed.canonical_records()
        assert plain.span_trees is None

    # byte-identical verdicts whether or not the run was observed
    assert observed_records == baseline

    t_plain = min(plain_times)
    t_observed = min(observed_times)

    # the plain run IS the instrumented pipeline holding null objects;
    # its overhead vs a hypothetical uninstrumented build is bounded by
    # span volume x per-null-span cost, measured directly:
    t0 = time.perf_counter()
    for _ in range(_MICRO_SPANS):
        with NULL_TRACER.span("bench.noop", path="x"):
            pass
    per_null_span = (time.perf_counter() - t0) / _MICRO_SPANS

    spans_per_commit = _spans_per_commit(observed)
    total_spans = int(spans_per_commit * len(plain.patches))
    modeled_overhead = total_spans * per_null_span
    overhead_fraction = modeled_overhead / t_plain

    lines = [
        f"commits evaluated         : {len(plain.patches)} "
        f"(window of {OBS_BENCH_COMMITS})",
        f"unobserved wall clock     : {t_plain:8.2f} s (best of 3)",
        f"observed wall clock       : {t_observed:8.2f} s (best of 3)",
        f"observed/unobserved ratio : {t_observed / t_plain:8.2f}x",
        f"spans per commit (mean)   : {spans_per_commit:8.1f}",
        f"null span cost            : {per_null_span * 1e9:8.1f} ns",
        f"modeled null overhead     : {overhead_fraction:8.2%} "
        f"(bound {MAX_NULL_OVERHEAD:.0%})",
        "verdict surface           : byte-identical observed vs not",
    ]
    record_artifact("perf_obs", "\n".join(lines))

    assert overhead_fraction < MAX_NULL_OVERHEAD, \
        f"null instrumentation overhead {overhead_fraction:.2%} " \
        f"exceeds the {MAX_NULL_OVERHEAD:.0%} bound"


def _spans_per_commit(observed) -> float:
    from repro.obs.export import span_count
    trees = observed.span_trees
    return sum(span_count(tree) for tree in trees) / len(trees)


# -- the telemetry-plane throughput benchmark (BENCH_obs.json) --------------

_EVENT_OPS = 20_000
_SNAPSHOT_OPS = 200
_CODEC_OPS = 200
_JSONL_OPS = 5_000


def _service_like_registry() -> MetricsRegistry:
    """A registry shaped like a warm service's (the snapshot workload)."""
    registry = MetricsRegistry()
    for index in range(40):
        registry.counter(f"service.stage.{index % 8}.metric_{index}") \
            .inc(index)
    for index in range(10):
        registry.gauge(f"service.shard.{index % 4}.gauge_{index}") \
            .set(index)
    for index in range(5):
        histogram = registry.histogram(f"service.latency_{index}")
        for value in range(100):
            histogram.observe(value * 0.9)
    return registry


def test_perf_obs_throughput(tmp_path, artifacts_dir):
    """Telemetry hot paths, normalized; emits BENCH_obs.json.

    Guarded by ``perf_guard.py --baseline benchmarks/BENCH_obs.json``
    exactly like the substrate stages: a change that makes event
    emission, snapshot sampling, the OpenMetrics codec, or JSONL
    appends drastically slower trips CI.
    """
    calibration = calibrate()
    registry = _service_like_registry()
    stages = []

    def emit_events():
        log = EventLog(capacity=1024, clock=lambda: 0.0)
        for index in range(_EVENT_OPS):
            log.emit("shard.restart", request_id="req-1",
                     shard=index % 4, restart=index)

    def emit_null_events():
        for index in range(_EVENT_OPS):
            NULL_EVENTS.emit("shard.restart", request_id="req-1",
                             shard=index % 4, restart=index)

    def take_snapshots():
        snapshotter = Snapshotter(registry, clock=lambda: 0.0,
                                  clock_kind="sim", ring_capacity=64)
        for _ in range(_SNAPSHOT_OPS):
            snapshotter.sample()

    record = Snapshotter(registry, clock=lambda: 0.0,
                         clock_kind="sim").sample().to_dict()
    exposition = render_openmetrics(record)

    def render_all():
        for _ in range(_CODEC_OPS):
            render_openmetrics(record)

    def parse_all():
        for _ in range(_CODEC_OPS):
            parse_openmetrics(exposition)

    def jsonl_appends():
        path = tmp_path / "bench_events.jsonl"
        sink = JsonlSink(str(path))
        try:
            for seq in range(1, _JSONL_OPS + 1):
                sink.emit({"schema": 1, "seq": seq, "ts": 0.0,
                           "kind": "shard.restart"})
        finally:
            sink.close()
            path.unlink()

    stages.append(stage("event_emit", _EVENT_OPS,
                        time_best(emit_events), calibration))
    null_seconds = time_best(emit_null_events)
    stages.append(stage("event_emit_null", _EVENT_OPS, null_seconds,
                        calibration))
    stages.append(stage("snapshot_sample", _SNAPSHOT_OPS,
                        time_best(take_snapshots), calibration))
    stages.append(stage("render_openmetrics", _CODEC_OPS,
                        time_best(render_all), calibration))
    stages.append(stage("parse_openmetrics", _CODEC_OPS,
                        time_best(parse_all), calibration))
    stages.append(stage("jsonl_emit", _JSONL_OPS,
                        time_best(jsonl_appends, repeats=3), calibration))

    payload = {
        "suite": "obs",
        "calibration_ops_per_sec": round(calibration, 2),
        "stages": stages,
        "null_event_ns": round(null_seconds / _EVENT_OPS * 1e9, 1),
    }
    out = artifacts_dir / "BENCH_obs.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n--- BENCH_obs ---\n"
          f"{json.dumps({s['stage']: s['ops_per_sec'] for s in stages})}")

    # the disabled path must stay orders of magnitude under the real
    # one — the PR-2 invariant this whole plane inherits
    by_name = {s["stage"]: s for s in stages}
    assert by_name["event_emit_null"]["ops_per_sec"] > \
        by_name["event_emit"]["ops_per_sec"]


def test_perf_null_span_faster_than_real_span():
    """Sanity anchor: the null path must beat the recording path."""
    def cost(tracer, n=50_000):
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("bench.noop", path="x"):
                pass
        return (time.perf_counter() - t0) / n

    null_cost = cost(NULL_TRACER)
    real_cost = cost(Tracer())
    assert null_cost < real_cost
