"""E-A3: allyesconfig only vs allyesconfig + configs/ defconfigs.

Paper (§V-B): "We can compile all changed lines successfully for 9158
(84%) of patches when always using the configuration generated by
allyesconfig ... while we succeed for 9259 (85%) when also taking the
configs configurations into account." The defconfigs buy a small but
nonzero increment.
"""

from repro.core.jmake import JMakeOptions
from repro.evalsuite.runner import EvaluationSession

LIMIT = 160


def run_with_configs(corpus, use_configs):
    runner = EvaluationSession(
        corpus, options=JMakeOptions(use_configs=use_configs))
    return runner.run(limit=LIMIT)


def certified_fraction(result):
    if not result.patches:
        return 0.0
    return sum(1 for p in result.patches if p.certified) / \
        len(result.patches)


def test_ablation_configs(benchmark, bench_corpus, record_artifact):
    with_configs = run_with_configs(bench_corpus, True)
    allyes_only = benchmark.pedantic(
        run_with_configs, args=(bench_corpus, False),
        iterations=1, rounds=1)

    frac_with = certified_fraction(with_configs)
    frac_without = certified_fraction(allyes_only)
    text = "\n".join([
        "Ablation E-A3: configs/ defconfigs",
        f"  certified, allyesconfig only  : {frac_without:.1%}",
        f"  certified, + configs          : {frac_with:.1%}",
        f"  increment                     : "
        f"{frac_with - frac_without:+.1%}",
    ])
    record_artifact("ablation_configs", text)

    # the defconfigs never hurt, and the increment is small (1 point
    # in the paper), not a wholesale change
    assert frac_with >= frac_without
    assert frac_with - frac_without <= 0.12
