"""``jmake watch``: continuous ingest, kill/resume, unseen-only.

The fleet-mode acceptance surface: a killed-and-resumed watch run must
converge on a store byte-identical to an uninterrupted run's, and no
commit may ever be checked twice — across restarts, overlapping
streams, and both stream shapes.
"""

import pytest

from repro import api
from repro.errors import SimulatedCrashError, StoreError
from repro.obs.events import EventLog
from repro.vcs.repository import LogOptions
from repro.workload.corpus import CorpusSpec, build_corpus


def run_watch(corpus, tmp_path, tag, **kwargs):
    """One watch run over dedicated store/journal files."""
    kwargs.setdefault("config", api.WatchConfig(
        batch_size=3, limit=6, fsync=False))
    return api.watch(corpus,
                     store=str(tmp_path / f"{tag}.sqlite"),
                     journal=str(tmp_path / f"{tag}.jnl"),
                     **kwargs)


def dump(tmp_path, tag):
    with api.open_store(str(tmp_path / f"{tag}.sqlite")) as store:
        return store.canonical_dump()


@pytest.fixture(scope="module")
def traffic_corpus():
    """A private corpus for the synthetic source (it appends commits
    to the repository, so the shared session corpus is off limits)."""
    return build_corpus(CorpusSpec(seed="watch-traffic-corpus",
                                   history_commits=120,
                                   eval_commits=20,
                                   regular_developers=6))


class TestWindowWatch:
    def test_drains_the_window_and_ingests(self, small_corpus,
                                           tmp_path):
        result = run_watch(small_corpus, tmp_path, "plain")
        assert result.fresh == 6
        assert result.commits_seen == 6
        assert result.ingested == 6
        assert result.batches == 2
        assert result.store_stats["verdicts"] == 6
        assert result.journal_stats["records"] == 6

    def test_rerun_checks_nothing_new(self, small_corpus, tmp_path):
        run_watch(small_corpus, tmp_path, "twice")
        again = run_watch(small_corpus, tmp_path, "twice",
                          resume=True)
        assert again.fresh == 0
        assert again.replayed == 6
        assert again.ingested == 0

    def test_query_answers_without_compiling(self, small_corpus,
                                             tmp_path, monkeypatch):
        run_watch(small_corpus, tmp_path, "readback")
        from repro.core import jmake

        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("query recompiled a commit")

        monkeypatch.setattr(jmake.CheckSession, "check_commit",
                            explode)
        verdicts = api.query_verdicts(
            str(tmp_path / "readback.sqlite"))
        assert len(verdicts) == 6
        assert all(v.record["schema_version"] == api.SCHEMA_VERSION
                   for v in verdicts)
        assert all(v.author_email for v in verdicts)


class TestKillAndResume:
    def test_store_is_byte_identical_after_resume(self, small_corpus,
                                                  tmp_path):
        run_watch(small_corpus, tmp_path, "plain")
        with pytest.raises(SimulatedCrashError):
            run_watch(small_corpus, tmp_path, "chaos",
                      config=api.WatchConfig(batch_size=3, limit=6,
                                             fsync=False,
                                             chaos_kill_after=4))
        resumed = run_watch(small_corpus, tmp_path, "chaos",
                            resume=True)
        assert resumed.replayed == 4
        assert resumed.fresh == 2
        assert dump(tmp_path, "chaos") == dump(tmp_path, "plain")

    def test_kill_during_first_batch_loses_nothing(self, small_corpus,
                                                   tmp_path):
        run_watch(small_corpus, tmp_path, "plain")
        with pytest.raises(SimulatedCrashError):
            run_watch(small_corpus, tmp_path, "early",
                      config=api.WatchConfig(batch_size=3, limit=6,
                                             fsync=False,
                                             chaos_kill_after=1))
        resumed = run_watch(small_corpus, tmp_path, "early",
                            resume=True)
        assert resumed.replayed == 1
        assert dump(tmp_path, "early") == dump(tmp_path, "plain")

    def test_limit_counts_the_backlog(self, small_corpus, tmp_path):
        """A resumed limit=N run stops at the same stream position an
        uninterrupted limit=N run does — the byte-identity hinge."""
        with pytest.raises(SimulatedCrashError):
            run_watch(small_corpus, tmp_path, "cap",
                      config=api.WatchConfig(batch_size=3, limit=6,
                                             fsync=False,
                                             chaos_kill_after=3))
        resumed = run_watch(small_corpus, tmp_path, "cap",
                            resume=True)
        assert resumed.replayed + resumed.fresh == 6


class TestSyntheticTraffic:
    def test_traffic_is_deterministic_across_processes(self, tmp_path,
                                                       traffic_corpus):
        """A resumed daemon regenerates the same synthetic commits, so
        kill/resume over *live* traffic is still byte-identical."""
        spec = traffic_corpus.spec
        corpus_a = build_corpus(spec)
        corpus_b = build_corpus(spec)
        config = api.WatchConfig(batch_size=2, fsync=False)
        plain = run_watch(corpus_a, tmp_path, "syn-plain",
                          source=api.SyntheticTrafficSource(
                              corpus_a, traffic=4),
                          config=config)
        # the log's modified-diff filter may drop a generated commit,
        # so "every checkable commit" can be < traffic
        assert plain.fresh >= 2
        with pytest.raises(SimulatedCrashError):
            run_watch(corpus_b, tmp_path, "syn-chaos",
                      source=api.SyntheticTrafficSource(
                          corpus_b, traffic=4),
                      config=api.WatchConfig(batch_size=2, fsync=False,
                                             chaos_kill_after=2))
        # the crash killed the process; resume from a fresh corpus
        # build, exactly like a restarted daemon would
        corpus_c = build_corpus(spec)
        run_watch(corpus_c, tmp_path, "syn-chaos",
                  source=api.SyntheticTrafficSource(corpus_c,
                                                    traffic=4),
                  config=config, resume=True)
        assert dump(tmp_path, "syn-chaos") == dump(tmp_path,
                                                   "syn-plain")

    def test_identity_includes_the_traffic_stream(self,
                                                  traffic_corpus):
        source = api.SyntheticTrafficSource(traffic_corpus, traffic=4,
                                            seed="s1")
        identity = source.identity()
        assert identity == {"source": "synthetic", "traffic": 4,
                            "traffic_seed": "s1"}

    def test_rejects_empty_traffic(self, traffic_corpus):
        with pytest.raises(ValueError, match="positive"):
            api.SyntheticTrafficSource(traffic_corpus, traffic=0)

    def test_traffic_edits_the_head_files(self):
        """No synthetic commit changes more paths than one generated
        commit can edit: the traffic starts from the files as history
        left them, so its first commit does not revert that history."""
        corpus = build_corpus(CorpusSpec(seed="t", history_commits=60,
                                         eval_commits=40,
                                         regular_developers=10))
        head = corpus.repository.head().id
        api.SyntheticTrafficSource(corpus, traffic=6).next_commits(6)
        appended = corpus.repository.commits_after(
            head, options=LogOptions(ignore_whitespace=False,
                                     modifications_only=False,
                                     no_merges=False))
        assert len(appended) == 6
        most = max(persona.max_files for persona in corpus.roster)
        for commit in appended:
            changed = corpus.repository.changed_paths(
                commit, ignore_whitespace=False)
            assert len(changed) <= most, (commit.id, changed)


class TestGuards:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            api.WatchConfig(batch_size=0)
        with pytest.raises(ValueError, match="limit"):
            api.WatchConfig(limit=0)
        with pytest.raises(ValueError, match="chaos_kill_after"):
            api.WatchConfig(chaos_kill_after=-1)

    def test_store_refuses_a_foreign_watch(self, small_corpus,
                                           tmp_path):
        run_watch(small_corpus, tmp_path, "mine")
        foreign = build_corpus(CorpusSpec(seed="other-fleet",
                                          history_commits=120,
                                          eval_commits=20,
                                          regular_developers=6))
        with pytest.raises(StoreError,
                           match="belongs to a different run"):
            api.watch(foreign,
                      store=str(tmp_path / "mine.sqlite"),
                      journal=str(tmp_path / "foreign.jnl"),
                      config=api.WatchConfig(batch_size=3, limit=3,
                                             fsync=False))


class TestTelemetry:
    def test_watch_events_and_lag_gauge(self, small_corpus, tmp_path):
        events = EventLog()
        metrics = api.MetricsRegistry()
        store = api.open_store(str(tmp_path / "tele.sqlite"),
                               metrics=metrics, events=events)
        with store:
            api.watch(small_corpus, store=store,
                      journal=str(tmp_path / "tele.jnl"),
                      config=api.WatchConfig(batch_size=3, limit=6,
                                             fsync=False),
                      events=events)
            data = metrics.to_dict()
        assert events.counts["watch.started"] == 1
        assert events.counts["watch.batch"] == 2
        assert events.counts["watch.stopped"] == 1
        assert events.counts["ingest.batch"] >= 2
        assert data["counters"]["store.ingested"] == 6
        assert data["gauges"]["store.lag"] == 0
        assert data["gauges"]["store.verdicts"] == 6
