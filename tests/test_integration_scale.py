"""End-to-end integration at a medium corpus scale.

One run, many invariants: this is the closest the test suite gets to the
paper's full §V pipeline, exercising corpus generation, parallel
evaluation, and every aggregation at once.
"""

import pytest

from repro.core.report import FileStatus
from repro.evalsuite.experiments import EXPERIMENTS
from repro.evalsuite.runner import EvaluationSession
from repro.evalsuite.tables import table3, table4
from repro.workload.corpus import CorpusSpec, build_corpus


@pytest.fixture(scope="module")
def result():
    corpus = build_corpus(CorpusSpec(seed="integration-scale",
                                     history_commits=300,
                                     eval_commits=400,
                                     regular_developers=20))
    return EvaluationSession(corpus).run(jobs=2)


class TestHeadline:
    def test_certified_rates_in_paper_band(self, result):
        certified = sum(1 for p in result.patches if p.certified)
        fraction = certified / len(result.patches)
        assert 0.75 <= fraction <= 0.95

    def test_every_experiment_produces_output(self, result):
        for experiment in EXPERIMENTS.values():
            data, text = experiment.run(result)
            assert text

    def test_verdict_vocabulary_exercised(self, result):
        statuses = {record.status for record in result.file_instances()}
        assert FileStatus.OK in statuses
        assert FileStatus.LINES_NOT_COMPILED in statuses
        assert FileStatus.COMMENT_ONLY in statuses
        assert FileStatus.BOOTSTRAP_UNTREATABLE in statuses

    def test_tables_consistent_with_raw_records(self, result):
        rows, _ = table3(result)
        assert sum(row.all_patches.count for row in rows) == \
            len(result.patches)
        counts, _ = table4(result, janitor_only=False)
        failing = [record for record in result.file_instances()
                   if record.status is FileStatus.LINES_NOT_COMPILED
                   and record.hazard_kinds]
        assert sum(counts.values()) <= len(failing) * 2  # multi-kind files

    def test_timing_totals_add_up(self, result):
        for patch in result.patches[:50]:
            step_total = sum(sum(durations) for durations in
                             patch.invocation_durations.values())
            assert step_total == pytest.approx(patch.elapsed_seconds,
                                               rel=1e-6)
