"""``jmake watch`` — continuous ingest over a commit stream.

The fleet-mode loop the ROADMAP asks for: pull unseen commits from a
stream, check them through the transport-backed
:class:`~repro.service.service.CheckService`, journal each verdict the
instant it exists, and fold the journal into the persistent
:class:`~repro.store.store.VerdictStore` batch by batch. Every piece
is the machinery earlier PRs built — the WAL/ledger (PR 5), the
check service and its transports (PR 4/8), the telemetry plane
(PR 7) — composed into
a daemon whose one invariant is *a commit checked once is never
recomputed and never lost*:

- **never recomputed** — a commit is skipped when the ledger or the
  store already has it, so restarts, overlapping streams, and resumed
  crashes all converge on the same set of checks;
- **never lost** — verdicts are durable in the journal before the
  store sees them, and store ingest is one idempotent transaction per
  batch, so a kill at *any* point (chaos injects one via
  ``--chaos-kill-after``) resumes into a store byte-identical to an
  uninterrupted run's (:meth:`VerdictStore.canonical_dump` proves it).

Two stream shapes share one pull API (``next_commits``):
:class:`WindowSource` drains the corpus's §V evaluation window through
:meth:`Repository.commits_after`; :class:`SyntheticTrafficSource`
appends fresh deterministic traffic with the workload generator — the
"live fleet" case where new commits arrive while the daemon runs.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

from repro.core.jmake import JMakeOptions
from repro.faults.chaos import CrashPoint
from repro.journal.ledger import VerdictLedger
from repro.obs.events import (
    EVENT_WATCH_BATCH,
    EVENT_WATCH_IDLE,
    EVENT_WATCH_STARTED,
    EVENT_WATCH_STOPPED,
    NULL_EVENTS,
)
from repro.obs.logcfg import get_logger
from repro.service.service import CheckService, ServiceConfig
from repro.store.store import VerdictStore
from repro.util.rng import DeterministicRng
from repro.workload.corpus import Corpus

_logger = get_logger("service.watch")


class WindowSource:
    """Streams the corpus's evaluation window (a fixed backlog)."""

    kind = "window"

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self._cursor = corpus.TAG_EVAL_START

    def identity(self) -> dict:
        """Stream identity folded into the run's journal/store meta."""
        return {"source": self.kind}

    def next_commits(self, limit: int):
        """Up to ``limit`` checkable commits after the cursor."""
        commits = self.corpus.repository.commits_after(
            self._cursor, limit=limit)
        if commits:
            self._cursor = commits[-1].id
        return commits


class SyntheticTrafficSource:
    """Appends deterministic fresh traffic, then streams it.

    The generated commits are a pure function of (corpus spec, traffic
    count, traffic seed): a resumed daemon rebuilds the corpus from its
    seed, regenerates the *same* commit ids, and finds the ones it
    already checked in the journal — which is exactly what makes
    kill/resume over live traffic deterministic.
    """

    kind = "synthetic"

    def __init__(self, corpus: Corpus, traffic: int,
                 seed: str = "watch-traffic") -> None:
        if traffic < 1:
            raise ValueError(
                f"traffic must be a positive commit count, "
                f"got {traffic!r}")
        self.corpus = corpus
        self.traffic = traffic
        self.seed = seed
        self._cursor = corpus.repository.head().id
        self._generated = False

    def identity(self) -> dict:
        return {"source": self.kind, "traffic": self.traffic,
                "traffic_seed": self.seed}

    def _generate(self) -> None:
        from repro.workload.commits import CommitStreamGenerator
        rng = DeterministicRng(
            f"{self.corpus.spec.seed}-{self.seed}")
        # the traffic edits the files as history left them: a generator
        # over the base files would undo every history edit at once
        head_files = dict(self.corpus.repository.head().tree.items())
        generator = CommitStreamGenerator(
            dataclasses.replace(self.corpus.tree, files=head_files),
            self.corpus.roster, rng)
        generator.generate(self.corpus.repository, self.traffic)
        self._generated = True

    def next_commits(self, limit: int):
        if not self._generated:
            self._generate()
        commits = self.corpus.repository.commits_after(
            self._cursor, limit=limit)
        if commits:
            self._cursor = commits[-1].id
        return commits


@dataclass
class WatchConfig:
    """Knobs for one watch run."""
    #: unseen commits checked (and then ingested) per batch
    batch_size: int = 8
    #: stop after this many batches (None -> drain the stream)
    max_batches: int | None = None
    #: cap on TOTAL commits checked across the run's lifetime, journal
    #: backlog included — a killed-and-resumed run converges on the
    #: same stream prefix as an uninterrupted ``limit=N`` run, which
    #: is what makes their canonical dumps byte-identical
    limit: int | None = None
    #: journal fsync discipline (tests turn it off for speed)
    fsync: bool = True
    #: chaos: die (SimulatedCrashError) after N durable fresh verdicts
    chaos_kill_after: int | None = None
    #: the check-service configuration (transport, jobs, supervision)
    service: ServiceConfig | None = None
    #: build cache handed to the service (True -> fresh warm cache)
    cache: object = True
    #: long-lived mode: instead of exiting when the stream is empty,
    #: poll it until a stop condition fires
    follow: bool = False
    #: real seconds between idle polls in follow mode
    poll_interval_seconds: float = 0.5
    #: follow mode stops when this file appears (touch it to stop a
    #: daemon you cannot signal, e.g. across a container boundary)
    stop_file: str | None = None
    #: follow mode stops after this many real seconds with no new
    #: commits (None -> wait forever for a stop file or signal)
    idle_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size!r}")
        for name in ("max_batches", "limit", "chaos_kill_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    f"{name} must be positive when set, got {value!r}")
        if self.poll_interval_seconds <= 0:
            raise ValueError(
                f"poll_interval_seconds must be positive, "
                f"got {self.poll_interval_seconds!r}")
        if self.idle_timeout_seconds is not None and \
                self.idle_timeout_seconds <= 0:
            raise ValueError(
                f"idle_timeout_seconds must be positive when set, "
                f"got {self.idle_timeout_seconds!r}")


@dataclass
class WatchResult:
    """What one watch run saw, checked, and landed."""
    #: unseen commits pulled from the stream this process
    commits_seen: int = 0
    #: commits checked fresh this process
    fresh: int = 0
    #: verdicts recovered from the journal at open (resume backlog)
    replayed: int = 0
    batches: int = 0
    #: records newly landed in the store (catch-up + batches)
    ingested: int = 0
    #: records the store already had (the idempotent-resume path)
    duplicates: int = 0
    store_stats: dict = field(default_factory=dict)
    journal_stats: dict = field(default_factory=dict)
    #: top of the §IV janitor ranking after the run (default criteria)
    janitors: list = field(default_factory=list)
    #: empty polls survived in follow mode
    idle_polls: int = 0
    #: why the loop ended: "drained", "max-batches", "stop-file",
    #: "signal", or "idle-timeout"
    stopped_by: str = "drained"


class WatchSession:
    """One watch daemon lifecycle over a corpus, journal, and store."""

    def __init__(self, corpus: Corpus, *, store, journal: str,
                 source=None, options: JMakeOptions | None = None,
                 config: WatchConfig | None = None,
                 metrics=None, events=None,
                 resume: bool = False) -> None:
        self.corpus = corpus
        self.options = options or JMakeOptions()
        self.config = config or WatchConfig()
        self.events = events if events is not None else NULL_EVENTS
        self.resume = resume
        self.source = source if source is not None \
            else WindowSource(corpus)
        if isinstance(store, VerdictStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = VerdictStore(store, metrics=metrics,
                                      events=self.events)
            self._owns_store = True
        self.journal_path = journal
        self._backlog = 0
        #: set by :meth:`request_stop` (a signal handler, another
        #: thread) to end a follow loop at the next batch boundary
        self._stop_requested = False
        self._stop_reason = "signal"

    def request_stop(self, reason: str = "signal") -> None:
        """Ask a running follow loop to stop at the next boundary.

        Safe to call from a signal handler: it only flips a flag the
        loop polls between batches, so an in-flight batch finishes and
        lands durably before the session winds down.
        """
        self._stop_requested = True
        self._stop_reason = reason

    # -- identity --------------------------------------------------------------

    def meta(self) -> dict:
        """The run identity both the journal and the store bind."""
        spec = self.corpus.spec
        meta = {
            "mode": "watch",
            "corpus_seed": spec.seed,
            "history_commits": spec.history_commits,
            "eval_commits": spec.eval_commits,
            "use_configs": self.options.use_configs,
            "use_allmodconfig": self.options.use_allmodconfig,
        }
        meta.update(self.source.identity())
        return meta

    # -- the loop --------------------------------------------------------------

    def run(self) -> WatchResult:
        """Drain the stream: check unseen commits, ingest per batch.

        A :class:`~repro.errors.SimulatedCrashError` from the chaos
        kill propagates out *after* the dying verdict is durable in
        the journal — rerun with ``resume=True`` (same journal, same
        store) to pick up exactly where the crash left off.
        """
        config = self.config
        crash = CrashPoint(config.chaos_kill_after) \
            if config.chaos_kill_after else None
        ledger = VerdictLedger(
            self.journal_path, fsync=config.fsync, on_append=crash,
            fresh=not self.resume, events=self.events)
        try:
            meta = self.meta()
            ledger.bind_meta(meta)
            self.store.bind_meta(meta)
            self.events.emit(EVENT_WATCH_STARTED,
                             source=self.source.kind,
                             resume=self.resume,
                             backlog=len(ledger))
            result = WatchResult(replayed=ledger.recovered)
            # catch-up: whatever the journal holds that the store does
            # not is exactly the pre-crash window — land it first
            totals = self.store.ingest_ledger(ledger)
            # the replayed backlog counts against config.limit so a
            # resumed run stops at the same stream position as an
            # uninterrupted one
            self._backlog = len(ledger)
            service = CheckService(self.corpus, options=self.options,
                                   config=self._service_config(),
                                   cache=config.cache)
            idle_since: "float | None" = None
            while True:
                if self._stop_requested:
                    result.stopped_by = self._stop_reason
                    break
                if config.max_batches is not None and \
                        result.batches >= config.max_batches:
                    result.stopped_by = "max-batches"
                    break
                if config.stop_file is not None and \
                        os.path.exists(config.stop_file):
                    result.stopped_by = "stop-file"
                    break
                batch = self._next_unseen(ledger, result)
                if not batch:
                    limit_spent = config.limit is not None and \
                        self._backlog + result.commits_seen >= \
                        config.limit
                    if not config.follow or limit_spent:
                        result.stopped_by = "drained"
                        break
                    # follow mode: the stream is dry right now, not
                    # finished — wait for traffic or a stop condition
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if config.idle_timeout_seconds is not None and \
                            now - idle_since >= \
                            config.idle_timeout_seconds:
                        result.stopped_by = "idle-timeout"
                        break
                    result.idle_polls += 1
                    self.events.emit(EVENT_WATCH_IDLE,
                                     polls=result.idle_polls)
                    time.sleep(config.poll_interval_seconds)
                    continue
                idle_since = None
                result.commits_seen += len(batch)

                def on_result(check_result) -> None:
                    # v4 records carry author + attempts; the journal
                    # append is the durability point (and the chaos
                    # kill site)
                    ledger.emit(check_result.commit_id,
                                dict(check_result.record))

                service.check_commits([commit.id for commit in batch],
                                      on_result=on_result)
                result.fresh += len(batch)
                self.store.set_lag(max(0, len(ledger) - len(self.store)))
                ingest = self.store.ingest_ledger(ledger)
                totals = totals.merged(ingest)
                result.batches += 1
                self.events.emit(EVENT_WATCH_BATCH,
                                 batch=result.batches,
                                 commits=len(batch),
                                 ingested=ingest.ingested)
                _logger.info("watch batch #%d: %d commit(s) checked, "
                             "%d ingested", result.batches, len(batch),
                             ingest.ingested)
            result.ingested = totals.ingested
            result.duplicates = totals.duplicates
            result.store_stats = self.store.stats()
            result.journal_stats = ledger.stats()
            result.janitors = self.store.janitor_report()
            self.events.emit(EVENT_WATCH_STOPPED,
                             batches=result.batches,
                             fresh=result.fresh,
                             ingested=result.ingested,
                             stopped_by=result.stopped_by)
            return result
        finally:
            ledger.close()
            if self._owns_store:
                self.store.close()

    # -- internals -------------------------------------------------------------

    def _service_config(self) -> ServiceConfig:
        config = self.config.service or ServiceConfig()
        if config.events is None and self.events is not NULL_EVENTS:
            config = dataclasses.replace(config, events=self.events)
        return config

    def _next_unseen(self, ledger, result: WatchResult):
        """Pull the next batch of commits not yet checked anywhere."""
        wanted = self.config.batch_size
        if self.config.limit is not None:
            budget = self.config.limit - self._backlog \
                - result.commits_seen
            wanted = min(wanted, budget)
            if wanted <= 0:
                return []
        batch = []
        while len(batch) < wanted:
            pulled = self.source.next_commits(wanted - len(batch))
            if not pulled:
                break
            batch.extend(
                commit for commit in pulled
                if commit.id not in ledger
                and not self.store.has(commit.id))
        return batch


def watch(corpus: Corpus, *, store, journal: str, source=None,
          options: JMakeOptions | None = None,
          config: WatchConfig | None = None,
          metrics=None, events=None,
          resume: bool = False) -> WatchResult:
    """One-shot watch run (the ``repro.api.watch`` entry point)."""
    session = WatchSession(corpus, store=store, journal=journal,
                           source=source, options=options,
                           config=config, metrics=metrics,
                           events=events, resume=resume)
    return session.run()


__all__ = [
    "SyntheticTrafficSource",
    "WatchConfig",
    "WatchResult",
    "WatchSession",
    "WindowSource",
    "watch",
]
