"""The ``e2e`` suite of ``benchmarks/perf_guard.py``.

A saved ``e2ebench/run.py`` output is checked against the committed
``benchmarks/BENCH_e2e.json`` row for its workload and seed, within
each end-to-end metric's ``BENCHMARK.json`` bound.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "BENCH_e2e.json"


@pytest.fixture(scope="module")
def perf_guard():
    spec = importlib.util.spec_from_file_location(
        "perf_guard", ROOT / "benchmarks" / "perf_guard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(workload="window_warm", seed=1):
    rows = json.loads(BASELINE.read_text())["rows"]
    return next(row for row in rows
                if row["workload"] == workload and row["seed"] == seed)


def _run_output(tmp_path, metrics, *, workload="window_warm", seed=1,
                correct=True):
    """The last lines of a run.py output with the given metric values."""
    result = {"correct": correct, "attempted": 758,
              "failed": 0 if correct else 3,
              "metrics": {name: {"value": value, "unit": ""}
                          for name, value in metrics.items()}}
    path = tmp_path / f"{workload}-{seed}.txt"
    path.write_text("\n".join([
        f"e2ebench {workload} seed={seed}: 3 repetitions",
        json.dumps({"wall_clock": metrics}),
        json.dumps(result)]) + "\n")
    return path


def _change_medians(row):
    return {name: value for name, value in row["change"].items()
            if not name.startswith("raw_")}


class TestE2eSuite:
    def test_every_workload_has_a_seed_1_row(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            row = _row(workload["name"], 1)
            metrics = {metric["name"] for metric in spec["end_to_end"]}
            assert metrics <= set(row["parent"]) & set(row["change"])

    def test_the_change_medians_pass(self, perf_guard, tmp_path):
        fresh = _run_output(tmp_path, _change_medians(_row()))
        assert perf_guard.main(["--baseline", str(BASELINE),
                                "--fresh", str(fresh)]) == 0

    def test_a_metric_past_its_bound_fails(self, perf_guard, tmp_path):
        metrics = _change_medians(_row())
        metrics["commits_per_s"] *= 0.70   # bound 0.25, higher is better
        fresh = _run_output(tmp_path, metrics)
        assert perf_guard.main(["--baseline", str(BASELINE),
                                "--fresh", str(fresh)]) == 1
        metrics = _change_medians(_row())
        metrics["peak_rss_mb"] *= 1.12     # bound 0.1, lower is better
        fresh = _run_output(tmp_path, metrics)
        assert perf_guard.main(["--baseline", str(BASELINE),
                                "--fresh", str(fresh)]) == 1

    def test_an_incorrect_run_fails(self, perf_guard, tmp_path):
        fresh = _run_output(tmp_path, _change_medians(_row()),
                            correct=False)
        assert perf_guard.main(["--baseline", str(BASELINE),
                                "--fresh", str(fresh)]) == 1

    def test_a_run_without_a_row_fails(self, perf_guard, tmp_path):
        fresh = _run_output(tmp_path, _change_medians(_row()), seed=99)
        assert perf_guard.main(["--baseline", str(BASELINE),
                                "--fresh", str(fresh)]) == 1
