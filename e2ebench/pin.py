"""Recompute the reference digests pinned in ``pinned.json``.

Run from the root of a checkout::

    python3 e2ebench/pin.py --seeds 1-20

For each seed, and each corpus part a run of ``BENCHMARK.json``'s
``run_seconds`` uses, this computes the reference verdicts as ``run.py``
does (cached under ``.e2ebench-state/``) and writes their digest to
``pinned.json``. A benchmark run counts every commit of a part whose
reference verdicts no longer match the pin as failed, so re-pin only for
a change that is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, metavar="FIRST-LAST")
    args = parser.parse_args()
    first, last = (int(value) for value in args.seeds.split("-"))

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") \
            as handle:
        parts = run.repetitions(json.load(handle)["run_seconds"])
    with open(run.PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    state = os.path.join(root, run.STATE_DIR)
    os.makedirs(state, exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=state)
    try:
        for seed in range(first, last + 1):
            for part in range(parts):
                entries = run.load_oracle(root, state, work, seed, part,
                                          time.monotonic() + 600)
                pins[f"{seed}-{part}"] = run.oracle_digest(entries)
                print(f"{seed}-{part}: {pins[f'{seed}-{part}']}")
    except run.RepError as error:
        print(f"pin: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
