"""Wall-clock benchmark of the JMake check pipeline, end to end.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload window_cold --seed 1 --seconds 8 --trace 0

Every input is built from ``--seed`` and ``--seconds`` alone: a run
makes ``repetitions(seconds)`` repetitions, and repetition ``i`` checks
corpus part ``i`` of the seed (``workloads.corpus_spec``), so one run
covers several distinct commit mixes and no machine speed changes which.
Each repetition runs in a fresh process (``rep.py``), so none inherits
warm process-wide caches. Throughput and set-up time are medians over
repetitions; the latency percentiles pool every commit of every
repetition.

The machine this runs on may be shared: the same work can take twice
as long from one second to the next. A ``workloads.SpeedProbe`` samples
the machine's speed while each phase runs, and every reported time is
scaled to a fixed reference speed (``REFERENCE_PROBE_S``). The raw
wall-clock values are printed beside them and, as one JSON object, on
the line before the result.

Before the first repetition over a corpus part, two processes compute
its reference verdicts (``oracle.py``) and cache them under
``.e2ebench-state/``. Every verdict a workload returns, journals or
stores is compared with them; a mismatch, a missing verdict or a
``CERTIFIED`` hazard commit counts as failed. The reference verdicts
come from the code under test, so their digest is also compared with
the one pinned for that seed and part in ``pinned.json``: if it differs,
every commit of the part counts as failed. Any failure makes the
command exit 1.

``--trace 1`` runs one untraced and two traced repetitions over part 0
and prints the per-layer table instead: calls and self time per layer,
the time no layer accounts for, and the tracing overhead. Call counts
that differ between the two traced repetitions are flagged.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = ".e2ebench-state"
#: repetitions per untraced run, at least (``setup_s`` is their
#: median) and at most; repetition i runs over corpus part i
MIN_REPS = 3
MAX_REPS = 5
#: timed seconds one repetition is counted as, whatever it takes: at
#: reference speed the workloads' timed calls take 1.4 to 3.6 s
NOMINAL_REP_S = 3.0
TRACED_REPS = 2
#: a run must end within 180 s
DEADLINE_S = 170.0
#: digest of the reference verdicts of each ``<seed>-<part>``
PINS = os.path.join(HERE, "pinned.json")
ORACLE_SHARDS = 2
#: seconds one ``workloads.SpeedProbe`` task takes at the reference
#: speed; every reported time is scaled to that speed
REFERENCE_PROBE_S = 250e-6


class RepError(RuntimeError):
    """A child process failed or ran out of time."""


def _child_env(root: str, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # the same seed gives the same set and dict iteration orders
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # the benchmark measures the program's default configuration
    env.pop("JMAKE_CPP_FASTPATH", None)
    env.pop("JMAKE_START_METHOD", None)
    return env


def _start(root: str, seed: int, part: int, arguments: list[str]):
    command = [sys.executable, "-W", "error::DeprecationWarning",
               os.path.join(HERE, "rep.py"), "--seed", str(seed),
               "--part", str(part), *arguments]
    return subprocess.Popen(command, cwd=root, env=_child_env(root, seed),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def _finish(process, deadline: float, out: str) -> dict:
    """Wait for a child (and its process group); load its result."""
    try:
        _, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepError("timed out") from None
    if process.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise RepError(f"exit code {process.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _source_digest(root: str, seed: int, part: int) -> str:
    """Identity of reference verdicts: corpus plus every input file."""
    digest = hashlib.sha256(f"e2ebench-oracle-v1 {seed} {part}".encode())
    paths = [os.path.join(HERE, name)
             for name in ("oracle.py", "workloads.py")]
    for directory, _, files in os.walk(os.path.join(root, "src")):
        paths.extend(os.path.join(directory, name)
                     for name in files if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()[:16]


def load_oracle(root: str, state: str, work: str, seed: int, part: int,
                deadline: float) -> dict:
    """Reference verdicts of one corpus, computed once and cached."""
    digest = _source_digest(root, seed, part)
    path = os.path.join(state, f"oracle-{seed}-{part}-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    started = []
    for index in range(ORACLE_SHARDS):
        out = os.path.join(work, f"oracle-{part}-{index}.json")
        started.append((_start(root, seed, part, [
            "--workdir", work, "--out", out,
            "--oracle-shard", f"{index}/{ORACLE_SHARDS}"]), out))
    entries: dict = {}
    failure = None
    for process, out in started:
        try:
            entries.update(_finish(process, deadline, out))
        except RepError as error:
            failure = failure or error
    if failure is not None:
        raise RepError(f"reference oracle: {failure}")
    partial = path + f".{os.getpid()}.tmp"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(entries, handle)
    os.replace(partial, path)
    return entries


def oracle_digest(entries: dict) -> str:
    """Digest of one corpus part's reference verdicts, as pinned."""
    text = json.dumps(entries, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def repetitions(seconds: float) -> int:
    """Untraced repetitions a run of ``seconds`` makes, at any speed."""
    return min(MAX_REPS, max(MIN_REPS, math.ceil(seconds / NOMINAL_REP_S)))


def check_verdicts(rep: dict, oracle: dict, expected: list[str],
                   problems: list[str]) -> int:
    """Failed commits of one repetition; details go to ``problems``."""
    failed: set[str] = set()
    for source, verdicts in sorted(rep["verdicts"].items()):
        for commit_id in expected:
            entry = oracle[commit_id]
            fingerprint = verdicts.get(commit_id)
            if fingerprint is None:
                reason = "no verdict"
            elif fingerprint != entry["fingerprint"]:
                reason = "differs from the reference verdict"
            elif entry["hazard"] and \
                    json.loads(fingerprint)["verdict"] == "CERTIFIED":
                reason = "CERTIFIED although it edits an uncompilable block"
            else:
                continue
            failed.add(commit_id)
            problems.append(f"{source} {commit_id[:12]}: {reason}")
        for commit_id in sorted(set(verdicts) - set(expected)):
            failed.add(commit_id)
            problems.append(f"{source} {commit_id[:12]}: not expected")
    return len(failed)


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest 5% (one-off hiccups)."""
    ordered = sorted(values)
    cut = len(ordered) // 20
    return statistics.mean(ordered[cut:len(ordered) - cut])


def speed(rep: dict, phase: str, scale: bool) -> float:
    """Reference over measured probe time in a phase of a repetition:
    below 1 on a slowed machine; 1 for raw wall-clock values."""
    if not scale:
        return 1.0
    return REFERENCE_PROBE_S / _trimmed_mean(
        [seconds for _, seconds in rep["probe"][phase]])


def end_to_end(reps: list[dict], scale: bool) -> tuple[dict, dict]:
    """Metric values over the repetitions, and their sample counts.

    With ``scale``, a repetition's set-up is scaled by the speed sampled
    during set-up, and its timed call and every latency in it by the
    speed sampled during the timed call."""
    timed = [speed(rep, "timed", scale) for rep in reps]
    latencies = [(end - start) * 1000.0 * factor
                 for rep, factor in zip(reps, timed)
                 for start, end in rep["latencies"]]
    p95 = statistics.quantiles(latencies, n=20)[18]
    values = {
        "commits_per_s": statistics.median(
            rep["commits"] / (rep["timed_s"] * factor)
            for rep, factor in zip(reps, timed)),
        "commit_p50_ms": statistics.median(latencies),
        "commit_p95_ms": p95,
        "setup_s": statistics.median(
            rep["setup_s"] * speed(rep, "setup", scale) for rep in reps),
        "peak_rss_mb": statistics.median(
            rep["peak_rss_mb"] for rep in reps),
    }
    beyond = sum(1 for value in latencies if value > p95)
    samples = {
        "commits_per_s": f"median of {len(reps)} repetitions, "
                         f"{sum(rep['commits'] for rep in reps)} commits",
        "commit_p50_ms": f"{len(latencies)} commits",
        "commit_p95_ms": f"{len(latencies)} commits, {beyond} beyond",
        "setup_s": f"median of {len(reps)} repetitions",
        "peak_rss_mb": f"median of {len(reps)} repetitions",
    }
    return values, samples


def layer_table(traced: list[dict], untraced: list[dict], scale: bool
                ) -> tuple[dict, list[str], list[str]]:
    """Mean layer metrics of the traced repetitions, call counts that
    did not repeat, and the top layers by self time."""
    layers = []
    for rep in traced:
        factor = speed(rep, "timed", scale)
        layers.append({name: value * factor if name.endswith(".s")
                       else value for name, value in rep["layers"].items()})
    first, second = layers
    flags = [f"{name}: {first[name]} then {second[name]}"
             for name in sorted(first)
             if name.endswith(".calls") and first[name] != second[name]]
    values = {name: (first[name] + second[name]) / 2 for name in first}
    traced_wall = statistics.mean(
        rep["timed_s"] * speed(rep, "timed", scale) for rep in traced)
    values["trace_overhead"] = traced_wall / statistics.median(
        rep["timed_s"] * speed(rep, "timed", scale)
        for rep in untraced) - 1.0
    by_layer: dict[str, float] = {}
    for name, value in values.items():
        if name.endswith(".s") and name != "unattributed.s":
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + value
    top = sorted(by_layer, key=by_layer.get, reverse=True)[:3]
    return values, flags, [f"{layer} {by_layer[layer]:.3f} s"
                           for layer in top]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end wall-clock benchmark of the JMake "
                    "check pipeline.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=PINS,
                        help="pinned reference digests (JSON)")
    parser.add_argument("--plant-wrong-verdict", action="store_true",
                        help="self-test: corrupt one reference verdict")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print("e2ebench: src/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") \
            as handle:
        spec = json.load(handle)
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        print(f"e2ebench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    with open(args.pins, encoding="utf-8") as handle:
        pins = json.load(handle)

    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state)
    try:
        return _run(args, spec, pins, root, state, work, deadline)
    except RepError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec, pins, root, state, work, deadline) -> int:
    oracles: dict[int, dict] = {}
    expected: dict[int, list[str]] = {}
    unpinned: list[int] = []
    problems: list[str] = []
    #: parts whose reference verdicts differ from the pinned ones
    drifted: set[int] = set()

    def repetition(index: int, part: int, traced: bool) -> dict:
        if part not in oracles:
            oracles[part] = load_oracle(root, state, work, args.seed, part,
                                        deadline)
            pinned = pins.get(f"{args.seed}-{part}")
            if pinned is None:
                unpinned.append(part)
            elif pinned != oracle_digest(oracles[part]):
                drifted.add(part)
                problems.append(
                    f"part {part}: reference verdicts differ from the "
                    f"pinned ones ({pinned}); every commit counts as failed")
            expected[part] = [
                commit_id for commit_id, entry in oracles[part].items()
                if args.workload == "fleet_watch" or entry["window"]]
            if args.plant_wrong_verdict:
                commit_id = expected[part][0]
                oracles[part][commit_id] = dict(
                    oracles[part][commit_id],
                    fingerprint="planted wrong verdict")
        rep_dir = os.path.join(work, f"rep-{index}")
        os.makedirs(rep_dir)
        out = os.path.join(rep_dir, "result.json")
        arguments = ["--workload", args.workload, "--workdir", rep_dir,
                     "--out", out] + (["--trace"] if traced else [])
        result = _finish(_start(root, args.seed, part, arguments),
                         deadline, out)
        result["part"] = part
        if traced:
            # the latest traced spans of each workload stay for reading
            shutil.copy(os.path.join(rep_dir, "spans.jsonl"),
                        os.path.join(state, f"spans-{args.workload}-"
                                            f"{index}.jsonl"))
        return result

    traced: list[dict] = []
    if args.trace:
        # one corpus throughout, so the call counts of the two traced
        # repetitions must repeat and the overhead compares like work
        untraced = [repetition(0, 0, traced=False)]
        traced = [repetition(1 + index, 0, traced=True)
                  for index in range(TRACED_REPS)]
    else:
        untraced = [repetition(index, index, traced=False)
                    for index in range(repetitions(args.seconds))]

    attempted = failed = 0
    for rep in untraced + traced:
        part = rep["part"]
        attempted += len(expected[part])
        failed_here = check_verdicts(rep, oracles[part], expected[part],
                                     problems)
        failed += len(expected[part]) if part in drifted else failed_here

    parts = sorted(oracles)
    print(f"e2ebench {args.workload} seed={args.seed}: "
          f"{len(untraced)} untraced and {len(traced)} traced "
          f"repetitions over corpus parts {parts} "
          f"(CorpusSpec seeds 'e2ebench-{args.seed}-<part>')")
    if unpinned:
        print(f"  no pinned reference digest for parts {unpinned}: their "
              f"verdicts are checked against this code's reference only")
    if args.trace:
        values, flags, top = layer_table(traced, untraced, scale=True)
        wall_clock, _, _ = layer_table(traced, untraced, scale=False)
        metrics_spec = spec["per_layer"]
        print(f"  per-layer table: mean of {len(traced)} traced "
              f"repetitions; .s is self time at reference speed")
        print(f"  top layers by self time: {', '.join(top)}")
    else:
        values, samples = end_to_end(untraced, scale=True)
        wall_clock, _ = end_to_end(untraced, scale=False)
        metrics_spec = spec["end_to_end"]
        flags = []
        print("  times at reference speed; raw wall-clock in brackets")
    metrics = {}
    for metric in metrics_spec:
        name = metric["name"]
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        note = "" if args.trace else f"  ({samples[name]})"
        print(f"  {name:<34} {values[name]:>14.6g} {metric['unit']}"
              f"  [{wall_clock[name]:.6g}]{note}")
    print(f"  {'failed_share':<34} {failed / attempted:>14.6g} "
          f"fraction  ({failed} of {attempted} commit verdicts)")
    for flag in flags:
        print(f"  FLAG call count did not repeat: {flag}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"wall_clock": {
        metric["name"]: wall_clock[metric["name"]]
        for metric in metrics_spec}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
