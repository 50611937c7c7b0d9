"""Tests for the jmake command-line interface."""

import json
import logging

import pytest

from repro.cli import main
from repro.obs.logcfg import ROOT_LOGGER


class TestDemo:
    def test_demo_exits_zero_and_reports(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        assert "useful architectures" in out


class TestJanitors:
    def test_janitors_prints_tables(self, capsys):
        assert main(["janitors", "--commits", "300",
                     "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "file cv" in out
        assert "ground-truth janitors recovered" in out


class TestEvaluate:
    def test_evaluate_prints_all_artifacts(self, capsys):
        assert main(["evaluate", "--commits", "60", "--limit", "25",
                     "--seed", "cli-test"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        for marker in ("Fig 4a", "Fig 4b", "Fig 4c", "Fig 5", "Fig 6",
                       "Architecture choice", "Mutation counts",
                       "Summary", "Bootstrap-file limitation"):
            assert marker in out, marker

    def test_evaluate_no_configs_flag(self, capsys):
        assert main(["evaluate", "--commits", "40", "--limit", "10",
                     "--seed", "cli-test", "--no-configs"]) == 0
        assert "Summary" in capsys.readouterr().out

    def test_evaluate_cache_stats_flag(self, capsys):
        assert main(["evaluate", "--commits", "40", "--limit", "10",
                     "--seed", "cli-test", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "Build cache statistics" in out
        assert "preprocess" in out

    def test_evaluate_no_cache_flag_suppresses_stats(self, capsys):
        assert main(["evaluate", "--commits", "40", "--limit", "10",
                     "--seed", "cli-test", "--no-cache",
                     "--cache-stats"]) == 0
        assert "Build cache statistics" not in capsys.readouterr().out

    def test_evaluate_cache_file_roundtrip(self, capsys, tmp_path):
        cache_file = str(tmp_path / "jmake.cache")
        argv = ["evaluate", "--commits", "40", "--limit", "10",
                "--seed", "cli-test", "--cache-file", cache_file,
                "--cache-stats"]
        assert main(argv) == 0
        assert "build cache written to" in capsys.readouterr().out
        assert main(argv) == 0  # warm second run loads the pickle
        assert "100.0%" in capsys.readouterr().out

    def test_evaluate_rejects_bad_jobs(self, capsys):
        assert main(["evaluate", "--commits", "40", "--limit", "5",
                     "--seed", "cli-test", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "--jobs must be a positive integer" in err

    def test_evaluate_writes_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["evaluate", "--commits", "40", "--limit", "5",
                     "--seed", "cli-test",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "metrics written to" in out
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        roots = [event for event in trace["traceEvents"]
                 if event.get("name") == "jmake.check_commit"]
        assert len(roots) == 5  # one span tree per checked commit
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["patches.checked"] == 5
        assert any(name.startswith("cache.")
                   for name in metrics["counters"])

    def test_evaluate_output_identical_with_observability(self, capsys,
                                                          tmp_path):
        argv = ["evaluate", "--commits", "40", "--limit", "5",
                "--seed", "cli-test"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace-out",
                            str(tmp_path / "t.json")]) == 0
        observed = [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("trace written")]
        assert observed == plain.splitlines()


class TestJournal:
    ARGV = ["evaluate", "--commits", "40", "--limit", "8",
            "--seed", "cli-test"]

    def test_journaled_run_prints_durability_stats(self, capsys,
                                                   tmp_path):
        journal = str(tmp_path / "run.jnl")
        assert main(self.ARGV + ["--journal", journal]) == 0
        out = capsys.readouterr().out
        assert f"journal {journal}: 8 verdict(s) durable" in out
        assert "(0 resumed, 8 fresh" in out

    def test_chaos_kill_then_resume(self, capsys, tmp_path):
        journal = str(tmp_path / "run.jnl")
        assert main(self.ARGV + ["--journal", journal,
                                 "--chaos-kill-after", "3"]) == 3
        err = capsys.readouterr().err
        assert "simulated" in err.lower()
        assert f"resume with: jmake evaluate --journal {journal} " \
               f"--resume" in err
        assert main(self.ARGV + ["--journal", journal,
                                 "--resume"]) == 0
        out = capsys.readouterr().out
        assert "(3 resumed, 5 fresh" in out
        assert "Summary" in out

    def test_resumed_output_matches_the_uninterrupted_run(self, capsys,
                                                          tmp_path):
        assert main(self.ARGV) == 0
        plain = capsys.readouterr().out
        journal = str(tmp_path / "run.jnl")
        assert main(self.ARGV + ["--journal", journal,
                                 "--chaos-kill-after", "4"]) == 3
        capsys.readouterr()
        assert main(self.ARGV + ["--journal", journal,
                                 "--resume"]) == 0
        resumed = [line for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("journal ")]
        assert resumed == plain.splitlines()

    def test_resume_requires_journal(self, capsys):
        assert main(self.ARGV + ["--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_chaos_kill_requires_journal(self, capsys):
        assert main(self.ARGV + ["--chaos-kill-after", "2"]) == 2
        err = capsys.readouterr().err
        assert "--chaos-kill-after requires --journal" in err

    def test_chaos_kill_rejects_nonpositive_offset(self, capsys,
                                                   tmp_path):
        assert main(self.ARGV + ["--journal",
                                 str(tmp_path / "run.jnl"),
                                 "--chaos-kill-after", "0"]) == 2

    def test_resume_refuses_another_runs_journal(self, capsys,
                                                 tmp_path):
        # a clean error, not a traceback: the journal names the run
        # it belongs to
        journal = str(tmp_path / "run.jnl")
        assert main(self.ARGV + ["--journal", journal,
                                 "--chaos-kill-after", "2"]) == 3
        capsys.readouterr()
        other = ["evaluate", "--commits", "40", "--limit", "8",
                 "--seed", "cli-other", "--journal", journal,
                 "--resume"]
        assert main(other) == 2
        assert "different run" in capsys.readouterr().err


class TestTrace:
    def _some_commit(self):
        from repro.workload.corpus import CorpusSpec, build_corpus
        corpus = build_corpus(CorpusSpec(seed="cli-test",
                                         history_commits=200,
                                         eval_commits=40))
        return corpus.eval_window_commits()[0].id

    def test_trace_renders_span_tree(self, capsys, tmp_path):
        commit = self._some_commit()
        out_path = tmp_path / "one.json"
        assert main(["trace", commit, "--commits", "40",
                     "--seed", "cli-test", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "jmake.check_commit" in out
        assert "spans:" in out
        assert "verdict:" in out
        trace = json.loads(out_path.read_text())
        assert trace["traceEvents"]

    def test_trace_accepts_unique_prefix(self, capsys):
        commit = self._some_commit()
        assert main(["trace", commit[:10], "--commits", "40",
                     "--seed", "cli-test"]) == 0
        assert "jmake.check_commit" in capsys.readouterr().out

    def test_trace_unknown_commit_exits_two(self, capsys):
        assert main(["trace", "doesnotexist", "--commits", "40",
                     "--seed", "cli-test"]) == 2
        err = capsys.readouterr().err
        assert "jmake trace:" in err
        assert "hint:" in err


class TestStats:
    """``jmake stats`` reads sink files produced by ``jmake serve``."""

    def _registry(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        registry.counter("service.requests.completed").inc(4)
        registry.gauge("service.queue_depth").set(1)
        histogram = registry.histogram("service.request.wall_seconds",
                                       (0.1, 1.0))
        for value in (0.05, 0.5, 0.6):
            histogram.observe(value)
        return registry

    def test_reads_latest_snapshot_from_a_jsonl_sink(self, capsys,
                                                     tmp_path):
        from repro.obs.sinks import JsonlSink
        from repro.obs.timeseries import Snapshotter
        path = tmp_path / "metrics.jsonl"
        sink = JsonlSink(str(path))
        snapshotter = Snapshotter(self._registry(), clock=lambda: 2.0,
                                  sinks=[sink])
        snapshotter.sample()
        snapshotter.sample()
        sink.close()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 snapshot(s), latest seq=2" in out
        assert "service.requests.completed" in out
        assert "p50=" in out and "p99=" in out

    def test_reads_an_openmetrics_exposition(self, capsys, tmp_path):
        from repro.obs.sinks import OpenMetricsSink
        from repro.obs.timeseries import Snapshotter
        path = tmp_path / "metrics.prom"
        Snapshotter(self._registry(), clock=lambda: 2.0,
                    sinks=[OpenMetricsSink(str(path))]).sample()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "snapshot seq=1" in out
        assert "jmake_service_requests_completed" in out

    def test_summarizes_an_event_sink_by_kind(self, capsys, tmp_path):
        from repro.obs.events import EventLog
        from repro.obs.sinks import JsonlSink
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        log = EventLog(clock=lambda: 0.0, sinks=[sink])
        log.emit("service.started")
        log.emit("shard.crash", shard=0)
        log.emit("shard.crash", shard=1)
        sink.close()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 event(s), latest seq=3" in out
        assert "shard.crash" in out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "absent.prom")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_exposition_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.prom"
        path.write_text("jmake_x_total 3\n")   # no TYPE, no EOF
        assert main(["stats", str(path)]) == 2
        assert "jmake stats:" in capsys.readouterr().err


class TestLogLevel:
    def _drop_handler(self):
        root = logging.getLogger(ROOT_LOGGER)
        for handler in [h for h in root.handlers
                        if getattr(h, "_repro_handler", False)]:
            root.removeHandler(handler)
        root.setLevel(logging.NOTSET)

    def test_log_level_wires_repro_hierarchy(self, capsys):
        try:
            assert main(["--log-level", "info", "evaluate",
                         "--commits", "40", "--limit", "3",
                         "--seed", "cli-test"]) == 0
            err = capsys.readouterr().err
            assert "INFO repro.evalsuite.runner: checking" in err
        finally:
            self._drop_handler()

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "demo"])


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestWatch:
    """``jmake watch``: continuous ingest into the verdict store."""

    WATCH = ["watch", "--commits", "30", "--seed", "cli-watch",
             "--batch-size", "3", "--limit", "6", "--no-fsync"]

    def test_window_watch_drains_and_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "fleet"
        assert main(self.WATCH + ["--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "watch drained: 6 commit(s) pulled" in out
        assert "6 checked fresh, 0 replayed" in out
        assert "6 verdict(s) durable (0 recovered, 6 fresh)" in out
        assert (out_dir / "verdicts.sqlite").exists()
        assert (out_dir / "run.jnl").exists()

    def test_rerun_replays_the_journal(self, capsys, tmp_path):
        argv = self.WATCH + ["--out-dir", str(tmp_path / "fleet")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 checked fresh, 6 replayed" in out
        # the replayed verdicts are already stored: nothing re-lands
        assert "0 ingested this run, 0 duplicate(s)" in out
        assert "6 verdict(s) durable (6 recovered, 0 fresh)" in out

    def test_chaos_kill_resume_dump_is_byte_identical(self, capsys,
                                                      tmp_path):
        plain_dir = tmp_path / "plain"
        assert main(self.WATCH + ["--out-dir", str(plain_dir)]) == 0
        capsys.readouterr()
        crash_dir = tmp_path / "crash"
        assert main(self.WATCH + ["--out-dir", str(crash_dir),
                                  "--chaos-kill-after", "4"]) == 3
        err = capsys.readouterr().err
        assert "simulated" in err.lower()
        assert f"resume with: jmake watch --out-dir {crash_dir} " \
               f"--resume" in err
        assert main(self.WATCH + ["--out-dir", str(crash_dir),
                                  "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 replayed" in out
        assert main(["query", str(plain_dir / "verdicts.sqlite"),
                     "--canonical"]) == 0
        plain_dump = capsys.readouterr().out
        assert main(["query", str(crash_dir / "verdicts.sqlite"),
                     "--canonical"]) == 0
        assert capsys.readouterr().out == plain_dump
        assert plain_dump.startswith("verdict-store canonical dump\n")

    def test_watch_requires_store_and_journal_paths(self, capsys):
        assert main(["watch", "--commits", "30",
                     "--seed", "cli-watch"]) == 2
        assert "needs --out-dir" in capsys.readouterr().err

    def test_watch_rejects_bad_shards(self, capsys, tmp_path):
        assert main(self.WATCH + ["--out-dir", str(tmp_path / "f"),
                                  "--shards", "0"]) == 2
        err = capsys.readouterr().err
        assert "--shards must be a positive integer" in err

    def test_watch_rejects_zero_traffic(self, capsys, tmp_path):
        assert main(self.WATCH + ["--out-dir", str(tmp_path / "f"),
                                  "--source", "synthetic",
                                  "--traffic", "0"]) == 2


class TestQuery:
    """``jmake query``: the read surface over a populated store."""

    @pytest.fixture(scope="class")
    def fleet_store(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("fleet")
        assert main(["watch", "--commits", "30", "--seed", "cli-query",
                     "--batch-size", "3", "--limit", "6", "--no-fsync",
                     "--out-dir", str(out_dir)]) == 0
        return str(out_dir / "verdicts.sqlite")

    def test_default_listing(self, capsys, fleet_store):
        assert main(["query", fleet_store]) == 0
        out = capsys.readouterr().out
        assert "6 verdict(s) (6 stored)" in out

    def test_json_mode_emits_canonical_records(self, capsys,
                                               fleet_store):
        assert main(["query", fleet_store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 6
        assert all(r["schema_version"] == 4 for r in records)
        assert all(r["author"]["email"] for r in records)

    def test_files_flag_adds_per_file_rows(self, capsys, fleet_store):
        assert main(["query", fleet_store, "--files"]) == 0
        out = capsys.readouterr().out
        assert " arch=" in out
        assert " i_ok=" in out

    def test_tristate_filters(self, capsys, fleet_store):
        assert main(["query", fleet_store,
                     "--fully-checked", "yes"]) == 0
        fully = capsys.readouterr().out
        assert main(["query", fleet_store, "--certified", "no"]) == 0
        capsys.readouterr()
        assert "verdict(s)" in fully

    def test_janitor_report(self, capsys, fleet_store):
        assert main(["query", fleet_store, "--janitors",
                     "--min-patches", "1", "--min-files", "1"]) == 0
        out = capsys.readouterr().out
        assert "janitor(s)" in out
        assert "file_cv=" in out

    def test_missing_store_exits_two(self, capsys, tmp_path):
        assert main(["query", str(tmp_path / "absent.sqlite")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_bad_predicate_exits_two(self, capsys, fleet_store):
        assert main(["query", fleet_store, "--limit", "0"]) == 2
        assert "limit" in capsys.readouterr().err


class TestOutputFlagNotices:
    """The unified --out-dir umbrella: a per-sink flag overrides its
    sink's conventional filename and prints no notice (stderr stays
    empty; the recovery CI job diffs stdout)."""

    def test_evaluate_journal_flag_notices_on_stderr(self, capsys,
                                                     tmp_path):
        out_dir = tmp_path / "outs"
        journal = tmp_path / "elsewhere.jnl"
        assert main(["evaluate", "--commits", "40", "--limit", "4",
                     "--seed", "cli-test", "--out-dir", str(out_dir),
                     "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert journal.exists()
        assert not (out_dir / "run.jnl").exists()
        assert f"journal {journal}:" in captured.out

    def test_evaluate_out_dir_places_the_journal(self, capsys,
                                                 tmp_path):
        out_dir = tmp_path / "outs"
        assert main(["evaluate", "--commits", "40", "--limit", "4",
                     "--seed", "cli-test",
                     "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "deprecated" not in captured.err
        assert (out_dir / "run.jnl").exists()
        assert f"journal {out_dir / 'run.jnl'}:" in captured.out

    def test_serve_sink_flags_notice_and_still_work(self, capsys,
                                                    tmp_path):
        out_dir = tmp_path / "serve-outs"
        stats = tmp_path / "elsewhere-stats.json"
        assert main(["serve", "--commits", "30", "--limit", "2",
                     "--seed", "cli-test", "--shards", "2",
                     "--out-dir", str(out_dir),
                     "--stats-out", str(stats)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"stats written to {stats}" in captured.out
        assert json.loads(stats.read_text())
        assert not (out_dir / "stats.json").exists()
        for name in ("metrics.jsonl", "events.jsonl"):
            assert (out_dir / name).exists(), name

    def test_serve_out_dir_fans_out_every_sink(self, capsys, tmp_path):
        out_dir = tmp_path / "serve-outs"
        assert main(["serve", "--commits", "30", "--limit", "2",
                     "--seed", "cli-test", "--shards", "2",
                     "--out-dir", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "deprecated" not in captured.err
        for name in ("stats.json", "metrics.jsonl", "events.jsonl"):
            assert (out_dir / name).exists(), name
