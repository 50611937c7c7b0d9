"""CI throughput regression guard over the committed BENCH_* baselines.

Compares freshly measured ``benchmarks/artifacts/BENCH_*.json`` files
(written by ``test_perf_fastpath_speedup`` and
``test_perf_obs_throughput``) against the committed baselines
(``benchmarks/BENCH_substrate.json``, ``benchmarks/BENCH_obs.json``)
and fails when any guarded stage's throughput regressed by more than
the tolerance (default 20%).

Raw ops/sec are machine-dependent, so the comparison uses
``normalized_throughput`` — ops/sec divided by the run's own
calibration workload (``benchmarks/calibration.py``). That ratio
cancels interpreter and hardware speed, leaving only how much work the
code does per operation, which is exactly what a code change regresses.
The committed baselines store deliberately conservative values (75% of
a measured run; see ``--write-baseline``) so ordinary run-to-run noise
stays inside the tolerance while a real regression still trips it.

The substrate's headline speedups (fast vs reference pipeline, measured
in the same process) are ratios already and are compared directly.

``--baseline``/``--fresh`` are repeatable and paired by position, so
one invocation can guard several suites::

    python benchmarks/perf_guard.py \\
        --baseline benchmarks/BENCH_substrate.json \\
            --fresh benchmarks/artifacts/BENCH_substrate.json \\
        --baseline benchmarks/BENCH_obs.json \\
            --fresh benchmarks/artifacts/BENCH_obs.json

With no flags the guard defaults to the substrate pair alone (the
pre-existing CI contract).

The ``e2e`` suite guards the end-to-end benchmark instead. Its
baseline, ``benchmarks/BENCH_e2e.json``, holds the parent and change
medians of ``e2ebench/run.py`` per workload and seed; its fresh file
is the saved output of one run::

    python3 e2ebench/run.py --workload window_warm --seed 1 \
        --seconds 8 > warm.txt
    python benchmarks/perf_guard.py \
        --baseline benchmarks/BENCH_e2e.json --fresh warm.txt

The run's ``e2ebench <workload> seed=<n>:`` line names the row. The
guard fails when the run's last line says ``correct`` is false, or when
an end-to-end metric is worse than the row's change median by more
than that metric's ``BENCHMARK.json`` bound. Those are reference-speed
figures from one machine: run it on the machine the row was measured
on, not on shared CI runners.
"""

import argparse
import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).parent
#: the end-to-end metrics and their bounds
BENCHMARK_SPEC = HERE.parent / "BENCHMARK.json"

#: per-suite guard configuration. ``stages`` lists the stage names whose
#: normalized throughput must not regress (reference stages measure the
#: disabled pipeline and are deliberately unguarded); ``speedups`` maps
#: stage -> hard speedup floor from the acceptance criteria.
SUITE_GUARDS = {
    "substrate": {
        "stages": (
            "strip_fastpath",
            "tokenize_fastpath",
            "expand_fastpath",
            "preprocess_driver_cold",
            "preprocess_driver_warm",
            "preprocess_tree_cold",
            "preprocess_tree_warm",
        ),
        "speedups": {"preprocess_driver_cold": 3.0,
                     "preprocess_driver_warm": 3.0},
    },
    "obs": {
        "stages": (
            "event_emit",
            "snapshot_sample",
            "render_openmetrics",
            "parse_openmetrics",
            "jsonl_emit",
        ),
        "speedups": {},
    },
    # the socket-over-asyncio speedup floor is core-count dependent, so
    # it is asserted (gated) inside test_perf_transport_throughput
    # rather than here; the guard holds each transport's absolute
    # throughput
    "service": {
        "stages": (
            "service_asyncio_steady",
            "service_socket_steady",
        ),
        "speedups": {},
    },
}

#: payloads that predate the ``suite`` tag are substrate measurements
DEFAULT_SUITE = "substrate"


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"perf_guard: missing {path} "
                 f"(run the benchmarks/test_perf_* emitters first)")


def _stage_map(payload: dict) -> dict:
    return {stage["stage"]: stage for stage in payload["stages"]}


def _write_baseline(baseline_path: pathlib.Path,
                    fresh_path: pathlib.Path) -> None:
    payload = _load(fresh_path)
    for stage in payload["stages"]:
        stage["normalized_throughput"] = round(
            stage["normalized_throughput"] * 0.75, 6)
    payload["_note"] = ("baseline deflated to 75% of a measured run; "
                        "regenerate with perf_guard.py --write-baseline")
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {baseline_path}")


def _guard_e2e(baseline_payload: dict, fresh_path: pathlib.Path) -> list:
    """Check one saved ``e2ebench/run.py`` output against its row."""
    try:
        lines = fresh_path.read_text().splitlines()
    except FileNotFoundError:
        sys.exit(f"perf_guard: missing {fresh_path} "
                 f"(save the output of e2ebench/run.py first)")
    header = next((re.match(r"e2ebench (\w+) seed=(\d+):", line)
                   for line in lines
                   if line.startswith("e2ebench ")), None)
    if header is None:
        return [f"{fresh_path}: not an e2ebench/run.py output"]
    workload, seed = header.group(1), int(header.group(2))
    result = json.loads(lines[-1])
    row = next((row for row in baseline_payload["rows"]
                if row["workload"] == workload and row["seed"] == seed),
               None)
    if row is None:
        return [f"{fresh_path}: no committed row for {workload} "
                f"seed {seed}"]
    print(f"suite e2e: {workload} seed {seed} vs {fresh_path}")
    failures = []
    if not result["correct"]:
        failures.append(f"{workload} seed {seed}: {result['failed']} of "
                        f"{result['attempted']} verdicts failed")
    spec = json.loads(BENCHMARK_SPEC.read_text())
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        want = row["change"][name]
        got = result["metrics"][name]["value"]
        if metric["better"] == "higher":
            limit = want * (1.0 - bound)
            worse = got < limit
        else:
            limit = want * (1.0 + bound)
            worse = got > limit
        verdict = "REGRESSED" if worse else "ok"
        print(f"{name:28} change={want:10.4f} fresh={got:10.4f} "
              f"limit={limit:10.4f}  {verdict}")
        if worse:
            failures.append(
                f"{workload} seed {seed} {name}: {got:.4f} is worse than "
                f"the committed {want:.4f} by more than {bound:.0%}")
    return failures


def _guard_pair(baseline_path: pathlib.Path, fresh_path: pathlib.Path,
                tolerance: float) -> list:
    baseline_payload = _load(baseline_path)
    if baseline_payload.get("suite") == "e2e":
        return _guard_e2e(baseline_payload, fresh_path)
    fresh_payload = _load(fresh_path)
    suite = fresh_payload.get("suite",
                              baseline_payload.get("suite", DEFAULT_SUITE))
    guards = SUITE_GUARDS.get(suite)
    if guards is None:
        return [f"{fresh_path}: unknown suite {suite!r} "
                f"(known: {', '.join(sorted(SUITE_GUARDS))})"]
    print(f"suite {suite}: {baseline_path} vs {fresh_path}")
    baseline = _stage_map(baseline_payload)
    fresh = _stage_map(fresh_payload)

    failures = []
    for name in guards["stages"]:
        if name not in baseline:
            continue  # baseline predates this stage; nothing to hold
        if name not in fresh:
            failures.append(f"{name}: missing from fresh measurement")
            continue
        want = baseline[name]["normalized_throughput"]
        got = fresh[name]["normalized_throughput"]
        floor = want * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"{name:28} baseline={want:10.4f} fresh={got:10.4f} "
              f"floor={floor:10.4f}  {verdict}")
        if got < floor:
            failures.append(
                f"{name}: normalized throughput {got:.4f} fell below "
                f"{floor:.4f} ({(1 - got / want):.0%} drop, "
                f"tolerance {tolerance:.0%})")

    fresh_speedup = fresh_payload.get("speedup", {})
    for name, floor in guards["speedups"].items():
        got = fresh_speedup.get(name, 0.0)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(f"speedup {name:20} floor={floor:.1f}x fresh={got:.2f}x  "
              f"{verdict}")
        if got < floor:
            failures.append(f"speedup {name}: {got:.2f}x below the "
                            f"{floor:.1f}x acceptance floor")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="append", default=None,
                        type=pathlib.Path,
                        help="committed baseline JSON (repeatable; "
                             "paired with --fresh by position)")
    parser.add_argument("--fresh", action="append", default=None,
                        type=pathlib.Path,
                        help="freshly measured JSON (repeatable; "
                             "paired with --baseline by position)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop (default 0.20)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite each baseline from its fresh "
                             "measurement, deflated by 25%% to absorb "
                             "run-to-run noise")
    args = parser.parse_args(argv)

    baselines = args.baseline or [HERE / "BENCH_substrate.json"]
    fresh = args.fresh or [HERE / "artifacts" / "BENCH_substrate.json"]
    if len(baselines) != len(fresh):
        sys.exit(f"perf_guard: {len(baselines)} --baseline but "
                 f"{len(fresh)} --fresh (they pair by position)")

    if args.write_baseline:
        for baseline_path, fresh_path in zip(baselines, fresh):
            _write_baseline(baseline_path, fresh_path)
        return 0

    failures = []
    for index, (baseline_path, fresh_path) in \
            enumerate(zip(baselines, fresh)):
        if index:
            print()
        failures.extend(_guard_pair(baseline_path, fresh_path,
                                    args.tolerance))

    if failures:
        print("\nperf_guard: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf_guard: all throughput checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
