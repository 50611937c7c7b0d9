"""Shared benchmark fixtures: one corpus, one evaluation run per session.

Every benchmark regenerates a specific table/figure of the paper from
the same evaluation result (matching how the paper derives all of §V
from one run over the v4.3..v4.4 window) and records its artifact under
``benchmarks/artifacts/`` for EXPERIMENTS.md.

Corpus scale is controlled by the JMAKE_BENCH_COMMITS environment
variable (default 800 evaluation commits — a 16x scale-down from the
paper's 12,946, keeping the whole bench suite in tens of seconds).
"""

import os
import pathlib

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.workload.corpus import CorpusSpec, build_corpus

ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"

BENCH_COMMITS = int(os.environ.get("JMAKE_BENCH_COMMITS", "800"))
BENCH_SEED = os.environ.get("JMAKE_BENCH_SEED", "jmake-bench-v1")


@pytest.fixture(scope="session")
def bench_corpus():
    return build_corpus(CorpusSpec(
        seed=BENCH_SEED,
        history_commits=max(400, BENCH_COMMITS // 2),
        eval_commits=BENCH_COMMITS,
        regular_developers=30,
    ))


@pytest.fixture(scope="session")
def bench_result(bench_corpus):
    return EvaluationSession(bench_corpus).run()


@pytest.fixture(scope="session")
def artifacts_dir():
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


@pytest.fixture
def record_artifact(artifacts_dir):
    def write(name: str, text: str) -> None:
        (artifacts_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n--- {name} ---\n{text}")
    return write
