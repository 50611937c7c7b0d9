"""Checks that the benchmark's correctness gate can fail.

Run from the root of a checkout::

    python3 e2ebench/selftest.py

1. One reference verdict is planted wrong (``--plant-wrong-verdict``):
   the run must report ``failed`` > 0 and ``correct`` false in its
   result line, print a positive ``failed_share``, and exit non-zero.
2. The same, with a wrong pinned reference digest for every part the
   run uses: a verdict change in code that the reference shares with
   the workloads must not pass.
3. In a directory holding only ``BENCHMARK.json`` and the benchmark's
   own files, the run must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join("e2ebench", "run.py"),
       "--workload", "window_cold", "--seed", "1", "--seconds", "1",
       "--trace", "0"]


def check_fails(root: str, what: str, options: list[str]) -> list[str]:
    """Errors unless a run with ``options`` reports failures and exits
    non-zero."""
    result = subprocess.run(RUN + options, cwd=root, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    share = next((float(line.split()[1]) for line in lines
                  if line.split()[:1] == ["failed_share"]), 0.0)
    errors = []
    if result.returncode == 0:
        errors.append(f"{what}: exit code 0")
    if summary.get("failed", 0) < 1 or summary.get("correct") is not False:
        errors.append(f"{what}: result line {lines[-1:]}")
    if share <= 0:
        errors.append(f"{what}: failed_share is not above 0")
    return errors


def check_wrong_pins(root: str) -> list[str]:
    state = os.path.join(root, ".e2ebench-state")
    os.makedirs(state, exist_ok=True)
    handle, pins = tempfile.mkstemp(prefix="pins-", suffix=".json",
                                    dir=state)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            json.dump({f"1-{part}": "0" * 16
                       for part in range(run.MAX_REPS)}, out)
        return check_fails(root, "wrong pinned digest", ["--pins", pins])
    finally:
        os.remove(pins)


def check_without_sources(root: str) -> list[str]:
    state = os.path.join(root, ".e2ebench-state")
    os.makedirs(state, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=state)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(RUN, cwd=bare, capture_output=True,
                                text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if result.returncode == 0:
        errors.append("without sources: exit code 0")
    if result.stdout.strip():
        errors.append(f"without sources: printed {result.stdout!r}")
    return errors


def main() -> int:
    root = os.getcwd()
    errors = (check_fails(root, "planted verdict", ["--plant-wrong-verdict"])
              + check_wrong_pins(root) + check_without_sources(root))
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
