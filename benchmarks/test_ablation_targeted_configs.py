"""E-A5: the §VII targeted-configuration extension.

"JMake could be complemented with more sophisticated configuration
generation techniques, as presented in Section VI, to obtain better
results in such cases" — the cases being #ifndef/#else and choice-bound
code that allyesconfig can never reach. This ablation runs the same
window with and without the Vampyr/Troll-style generator and counts the
recovered Table IV rows.
"""

import pytest

from repro.core.jmake import JMakeOptions
from repro.core.report import FileStatus
from repro.evalsuite.runner import EvaluationSession
from repro.kernel.layout import HazardKind

LIMIT = 160

#: hazard kinds a covering configuration can in principle reach
RESCUABLE = {HazardKind.CHOICE_UNSET, HazardKind.IFNDEF,
             HazardKind.IFDEF_AND_ELSE}
#: kinds no configuration can reach
HOPELESS = {HazardKind.NEVER_SET, HazardKind.IF_ZERO,
            HazardKind.UNUSED_MACRO}


def run(corpus, extended):
    runner = EvaluationSession(
        corpus, options=JMakeOptions(use_targeted_configs=extended))
    return runner.run(limit=LIMIT)


def failures_by_kind(result, kinds):
    count = 0
    for record in result.file_instances():
        if record.status is not FileStatus.LINES_NOT_COMPILED:
            continue
        if set(record.hazard_kinds) & kinds:
            count += 1
    return count


def test_ablation_targeted_configs(benchmark, bench_corpus,
                                   record_artifact):
    baseline = run(bench_corpus, False)
    extended = benchmark.pedantic(run, args=(bench_corpus, True),
                                  iterations=1, rounds=1)

    base_rescuable = failures_by_kind(baseline, RESCUABLE)
    ext_rescuable = failures_by_kind(extended, RESCUABLE)
    base_hopeless = failures_by_kind(baseline, HOPELESS)
    ext_hopeless = failures_by_kind(extended, HOPELESS)
    base_certified = sum(1 for p in baseline.patches if p.certified)
    ext_certified = sum(1 for p in extended.patches if p.certified)

    text = "\n".join([
        "Ablation E-A5: targeted covering configurations",
        f"  rescuable failures (choice/ifndef/else), baseline : "
        f"{base_rescuable}",
        f"  rescuable failures, + targeted configs            : "
        f"{ext_rescuable}",
        f"  hopeless failures (never-set/#if 0/unused), before: "
        f"{base_hopeless}",
        f"  hopeless failures, after                          : "
        f"{ext_hopeless}",
        f"  certified patches: {base_certified} -> {ext_certified} "
        f"of {len(baseline.patches)}",
    ])
    record_artifact("ablation_targeted_configs", text)

    # the extension recovers the configuration-reachable categories...
    assert ext_rescuable <= base_rescuable
    if base_rescuable:
        assert ext_rescuable < base_rescuable
    # ...while the genuinely dead categories stay failed
    assert ext_hopeless == base_hopeless
    assert ext_certified >= base_certified
