"""E-A1: the §VII allmodconfig extension.

The paper notes JMake "could cause these lines to be compiled by
additionally using make allmodconfig, at the cost of nearly doubling
the set of configurations considered". This ablation runs the same
window with and without the extension and measures both the recovered
``#ifdef MODULE`` instances and the configuration-count cost.
"""

import pytest

from repro.core.jmake import JMakeOptions
from repro.core.report import FileStatus
from repro.evalsuite.runner import EvaluationSession
from repro.kernel.layout import HazardKind

LIMIT = 160


@pytest.fixture(scope="module")
def baseline(bench_corpus):
    return EvaluationSession(bench_corpus).run(limit=LIMIT)


def run_with_allmod(corpus):
    runner = EvaluationSession(
        corpus, options=JMakeOptions(use_allmodconfig=True))
    return runner.run(limit=LIMIT)


def module_failures(result):
    return [record for record in result.file_instances()
            if record.status is FileStatus.LINES_NOT_COMPILED
            and HazardKind.MODULE_ONLY in record.hazard_kinds]


def test_ablation_allmodconfig(benchmark, bench_corpus, baseline,
                               record_artifact):
    extended = benchmark.pedantic(run_with_allmod, args=(bench_corpus,),
                                  iterations=1, rounds=1)

    base_failures = module_failures(baseline)
    ext_failures = module_failures(extended)
    base_configs = sum(p.invocation_counts.get("config", 0)
                      for p in baseline.patches)
    ext_configs = sum(p.invocation_counts.get("config", 0)
                      for p in extended.patches)
    text = "\n".join([
        "Ablation E-A1: allmodconfig extension",
        f"  MODULE-only failures, allyesconfig only : "
        f"{len(base_failures)}",
        f"  MODULE-only failures, + allmodconfig    : "
        f"{len(ext_failures)}",
        f"  configuration creations, baseline        : {base_configs}",
        f"  configuration creations, extended        : {ext_configs}",
    ])
    record_artifact("ablation_allmodconfig", text)

    # the extension recovers module-only instances ...
    assert len(ext_failures) <= len(base_failures)
    if base_failures:
        assert len(ext_failures) < len(base_failures)
    # ... at a clear configuration-count cost ("nearly doubling")
    assert ext_configs > base_configs
