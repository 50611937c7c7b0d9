"""E-A2: the .h candidate-file cap (§III-E).

Beyond 100 candidate .c files JMake restricts itself to allyesconfig,
"at a small risk of false positives" (23 of 21012 file instances in the
paper). The ablation compares a tiny cap (forcing allyesconfig-only for
every fan-out header) against the default, counting headers whose
verdict degrades — plus the invocation savings that motivate the cap.
"""

from repro.core.jmake import JMakeOptions
from repro.core.report import FileStatus
from repro.evalsuite.runner import EvaluationSession

LIMIT = 160


def run_with_cap(corpus, cap):
    runner = EvaluationSession(
        corpus, options=JMakeOptions(hfile_candidate_cap=cap))
    return runner.run(limit=LIMIT)


def h_verdicts(result):
    return {(record.commit_id, record.path): record.status
            for record in result.file_instances(suffix=".h")}


def test_ablation_hfile_cap(benchmark, bench_corpus, record_artifact):
    default = run_with_cap(bench_corpus, 100)
    tiny = benchmark.pedantic(run_with_cap, args=(bench_corpus, 0),
                              iterations=1, rounds=1)

    default_verdicts = h_verdicts(default)
    tiny_verdicts = h_verdicts(tiny)
    degraded = [key for key, status in default_verdicts.items()
                if status is FileStatus.OK
                and tiny_verdicts.get(key) is not FileStatus.OK]
    default_invocations = sum(p.invocation_counts.get("make_i", 0)
                              for p in default.patches)
    tiny_invocations = sum(p.invocation_counts.get("make_i", 0)
                           for p in tiny.patches)
    total_h = len(default_verdicts)
    text = "\n".join([
        "Ablation E-A2: .h candidate cap",
        f"  .h file instances                    : {total_h}",
        f"  verdicts degraded by allyes-only cap : {len(degraded)}",
        f"  make_i invocations (cap=100)         : {default_invocations}",
        f"  make_i invocations (cap=0)           : {tiny_invocations}",
    ])
    record_artifact("ablation_hfile_cap", text)

    # false positives are rare (23 of 21012 in the paper)
    assert len(degraded) <= max(2, total_h * 0.2)
    # verdict keys line up between runs
    assert set(default_verdicts) == set(tiny_verdicts)
