"""Tests for the evaluation driver."""

from repro.core.report import FileStatus
from repro.evalsuite.runner import EvaluationSession, scaled_criteria
from repro.workload.personas import PersonaKind


class TestRunShape:
    def test_patch_and_ignored_accounting(self, corpus, result):
        assert result.total_commits == len(corpus.eval_metadata)
        assert result.ignored_commits > 0
        assert len(result.patches) + result.ignored_commits == \
            result.total_commits

    def test_janitors_identified(self, result):
        assert len(result.janitor_emails) >= 5

    def test_patch_records_complete(self, result):
        for patch in result.patches[:20]:
            assert patch.shape in ("c_only", "h_only", "both")
            assert patch.elapsed_seconds >= 0
            assert patch.files
            if patch.elapsed_seconds > 0:
                assert patch.invocation_counts.get("config", 0) >= 1
            else:
                # comment-only patches never reach the build system
                assert all(not record.mutation_count
                           for record in patch.files)

    def test_file_instance_selection(self, result):
        c_instances = result.file_instances(suffix=".c")
        h_instances = result.file_instances(suffix=".h")
        assert c_instances
        assert h_instances
        assert all(record.is_c for record in c_instances)
        assert all(record.is_h for record in h_instances)

    def test_step_durations_recorded(self, result):
        assert result.step_durations("config")
        assert result.step_durations("make_i")
        assert result.step_durations("make_o")

    def test_overall_durations(self, result):
        durations = result.overall_durations()
        assert len(durations) == len(result.patches)
        janitor_durations = result.overall_durations(janitor_only=True)
        assert 0 < len(janitor_durations) < len(durations)

    def test_limit(self, corpus):
        small = EvaluationSession(corpus).run(limit=10)
        assert len(small.patches) <= 10

    def test_ground_truth_janitors_option(self, corpus):
        runner = EvaluationSession(corpus)
        result = runner.run(limit=5, use_ground_truth_janitors=True)
        expected = {p.email for p in corpus.roster
                    if p.kind is PersonaKind.JANITOR}
        assert result.janitor_emails == expected

    def test_scaled_criteria_tracks_corpus(self, corpus):
        criteria = scaled_criteria(corpus)
        assert criteria.min_patches == 10
        assert criteria.min_lists == 3
        assert criteria.max_maintainer_share == 0.05


class TestVerdictMix:
    def test_most_patches_certified(self, result):
        certified = sum(1 for patch in result.patches if patch.certified)
        fraction = certified / len(result.patches)
        # paper: 85%; shape target: clearly most, but not all
        assert 0.7 <= fraction < 1.0

    def test_some_lines_not_compiled_instances(self, result):
        missing = [record for record in result.file_instances()
                   if record.status is FileStatus.LINES_NOT_COMPILED]
        assert missing, "hazard population must exist"

    def test_insidious_instances_exist(self, result):
        insidious = [record for record in result.file_instances(suffix=".c")
                     if record.insidious_under_allyes]
        assert insidious

    def test_non_host_arch_instances_exist(self, result):
        rescued = [record for record in result.file_instances()
                   if record.needed_non_host_arch]
        assert rescued

    def test_hazard_ground_truth_attached(self, result):
        tagged = [record for record in result.file_instances()
                  if record.hazard_kinds]
        assert tagged
