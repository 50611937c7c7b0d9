"""The four benchmark workloads, run one repetition at a time.

Every workload builds its corpus from the seed (``corpus_spec``), does
any untimed priming, and then makes one timed call through the public
``repro.api`` surface. A repetition returns its timings, the machine
speed samples taken meanwhile (``SpeedProbe``) and the verdict
fingerprint of every commit it checked; the parent process (``run.py``)
compares those fingerprints with the reference oracle.

Latency clocks (untraced repetitions):

- ``window_*``: one ``perf_counter`` read on each side of every
  ``CheckSession.check_commit`` call. In ``window_jobs2`` those calls
  run in forked pool workers, which inherit the wrapper; each worker
  appends its readings to a file the repetition reads back.
- ``fleet_watch``: the clock starts when a commit leaves the source's
  ``next_commits`` and stops when the ``VerdictStore.ingest_ledger``
  call that lands its verdict returns.
"""

from __future__ import annotations

import json
import os
import re
import resource
import signal
import time
from contextlib import contextmanager

from repro.api import (
    BuildCache,
    CheckSession,
    CorpusSpec,
    EvaluationSession,
    VerdictLedger,
    VerdictStore,
    WatchConfig,
    WindowSource,
    build_corpus,
    watch,
)

#: worker processes of ``window_jobs2``
JOBS = 2


def corpus_spec(seed: int, part: int) -> CorpusSpec:
    """Corpus ``part`` of a seed; repetition ``part`` runs over it.

    Each repetition of a run checks different commits, so a run's
    percentiles rest on ~3 x 255 distinct window commits (~3 x 280
    stream commits) rather than on one corpus's mix. 300 evaluation
    commits alone give more than ten samples beyond the p95.
    """
    return CorpusSpec(seed=f"e2ebench-{seed}-{part}", history_commits=200,
                      eval_commits=300, regular_developers=20)


# -- verdict fingerprints ------------------------------------------------------

def fingerprint_record(record: dict) -> str:
    """Canonical verdict text of a ``PatchReport.to_dict()`` record."""
    return json.dumps({
        "verdict": record["verdict"],
        "certified": record["certified"],
        "elapsed": repr(float(record["elapsed_seconds"])),
        "invocations": record["invocations"],
        "files": {path: [entry["status"], entry["useful_archs"],
                         entry["missing_lines"], entry["mutations"]]
                  for path, entry in record["files"].items()},
    }, sort_keys=True)


def fingerprint_patch(patch) -> str:
    """The same canonical text from an evaluation ``PatchRecord``."""
    return json.dumps({
        "verdict": patch.verdict,
        "certified": patch.certified,
        "elapsed": repr(float(patch.elapsed_seconds)),
        "invocations": patch.invocation_counts,
        "files": {record.path: [record.status.value,
                                record.useful_archs,
                                record.missing_lines,
                                record.mutation_count]
                  for record in patch.files},
    }, sort_keys=True)


# -- clocks --------------------------------------------------------------------

def time_check_commit(on_latency) -> None:
    """Wrap ``CheckSession.check_commit`` with one clock read per side."""
    original = CheckSession.check_commit

    def check_commit(self, repository, commit):
        start = time.perf_counter()
        report = original(self, repository, commit)
        on_latency(start, time.perf_counter())
        return report

    CheckSession.check_commit = check_commit


#: wall seconds between two machine-speed samples
PROBE_INTERVAL_S = 0.05

_PROBE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S")
_PROBE_TEXT = " ".join(
    f"token_{i} CONFIG_OPTION_{i % 7} += {i};" for i in range(40))


def _probe_task() -> None:
    """A fixed regex, dict and string task of a few hundred µs."""
    counts: dict[str, int] = {}
    for _ in range(2):
        pieces = [match.group()
                  for match in _PROBE_RE.finditer(_PROBE_TEXT)]
        for index, piece in enumerate(pieces):
            counts[piece] = counts.get(piece, 0) + index
        "".join(pieces).split(";")


class SpeedProbe:
    """Samples how fast the machine runs Python while a phase runs.

    Every ``PROBE_INTERVAL_S`` wall seconds a ``SIGALRM`` handler times one
    fixed ``_probe_task`` on the main thread and records
    ``[start, seconds]``. On a machine shared with other load the same
    work can take twice as long from one second to the next; ``run.py``
    divides each timing by the speed sampled while it ran. The samples
    cost about 1% of the phase, on parent and change alike.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[list[float]]] = {}
        self._current: list[list[float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_task()
        self._current.append([start, time.perf_counter() - start])

    @contextmanager
    def phase(self, name: str):
        """Sample the machine's speed for the duration of the block."""
        self._current = self.samples.setdefault(name, [])
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            self._sample()
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the workloads ---------------------------------------------------------------

class Repetition:
    """One workload repetition: set-up, then one timed call."""

    def __init__(self, workload: str, seed: int, part: int, workdir: str,
                 tracer=None) -> None:
        self.timed_call = getattr(self, "_" + workload, None)
        if self.timed_call is None:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.spec = corpus_spec(seed, part)
        self.workdir = workdir
        #: a ``tracing.Tracer`` for traced repetitions, else None
        self.tracer = tracer
        #: ``[start, end]`` of each commit's latency clock
        self.latencies: list[list[float]] = []
        self.cache: "BuildCache | None" = None
        self.cpu_util: "float | None" = None
        self.probe = SpeedProbe()

    def run(self) -> dict:
        """Set up, make the timed call, and report what happened."""
        with self.probe.phase("setup"):
            start = time.perf_counter()
            corpus = build_corpus(self.spec)
            if self.workload == "window_warm":
                self.cache = BuildCache()
                EvaluationSession(corpus, cache=self.cache).run()
            setup_s = time.perf_counter() - start
        timed_s, verdicts, commits = self.timed_call(corpus)
        return {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "commits": commits,
            "latencies": self.latencies,
            "probe": self.probe.samples,
            "peak_rss_mb": peak_rss_mb(),
            "verdicts": verdicts,
            "cpu_util": self.cpu_util,
        }

    def _timed(self, call):
        """Run the timed call under the probe (and tracer, if any)."""
        with self.probe.phase("timed"):
            if self.tracer is not None:
                self.tracer.start(self.cache)
            started = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.stop(elapsed, self.cache)
        return elapsed, result

    def _evaluate(self, session, **run_args):
        elapsed, result = self._timed(lambda: session.run(**run_args))
        verdicts = {"returned": {patch.commit_id: fingerprint_patch(patch)
                                 for patch in result.patches}}
        return elapsed, verdicts, len(result.patches)

    def _install_check_clock(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
        else:
            time_check_commit(
                lambda start, end: self.latencies.append([start, end]))

    def _window_cold(self, corpus):
        session = EvaluationSession(corpus)
        self.cache = session.cache
        self._install_check_clock()
        return self._evaluate(session)

    def _window_warm(self, corpus):
        session = EvaluationSession(corpus, cache=self.cache)
        self._install_check_clock()
        return self._evaluate(session)

    def _window_jobs2(self, corpus):
        session = EvaluationSession(corpus)
        self.cache = session.cache
        path = os.path.join(self.workdir, "jobs2-latency.txt")
        latency_fd = None
        if self.tracer is not None:
            self.tracer.install()
        else:
            # pool workers are forked after this point and terminated,
            # not exited, so each reading is written through at once
            latency_fd = os.open(path, os.O_WRONLY | os.O_CREAT
                                 | os.O_APPEND | os.O_TRUNC, 0o644)
            time_check_commit(lambda start, end: os.write(
                latency_fd, f"{start!r} {end!r}\n".encode()))
        cpu_start = os.times()
        try:
            outcome = self._evaluate(session, jobs=JOBS)
        finally:
            if latency_fd is not None:
                os.close(latency_fd)
        cpu = sum(os.times()[:4]) - sum(cpu_start[:4])
        self.cpu_util = cpu / (outcome[0] * (os.cpu_count() or 1))
        if latency_fd is not None:
            with open(path, encoding="utf-8") as handle:
                self.latencies = [[float(value) for value in line.split()]
                                  for line in handle]
        return outcome

    def _fleet_watch(self, corpus):
        journal = os.path.join(self.workdir, "watch.jnl")
        store = VerdictStore(os.path.join(self.workdir, "verdicts.sqlite"))
        source = WindowSource(corpus)
        # the default WatchConfig makes a fresh BuildCache; this one is
        # the same, held here so a traced run can read its counters
        self.cache = BuildCache()
        config = WatchConfig(cache=self.cache)
        if self.tracer is not None:
            self.tracer.install()
        else:
            in_flight: dict[str, float] = {}
            next_commits = source.next_commits
            ingest_ledger = store.ingest_ledger

            def timed_next_commits(limit):
                commits = next_commits(limit)
                now = time.perf_counter()
                for commit in commits:
                    in_flight.setdefault(commit.id, now)
                return commits

            def timed_ingest_ledger(ledger):
                result = ingest_ledger(ledger)
                now = time.perf_counter()
                for commit_id in [key for key in in_flight
                                  if key in ledger]:
                    self.latencies.append([in_flight.pop(commit_id), now])
                return result

            source.next_commits = timed_next_commits
            store.ingest_ledger = timed_ingest_ledger
        try:
            elapsed, result = self._timed(lambda: watch(
                corpus, store=store, journal=journal, source=source,
                config=config))
            stored = {row.commit: fingerprint_record(store.get(row.commit))
                      for row in store.query()}
        finally:
            store.close()
        with VerdictLedger(journal) as ledger:
            journaled = {key: fingerprint_record(ledger.get(key))
                         for key in ledger.keys()}
        return elapsed, {"stored": stored, "journaled": journaled}, \
            result.fresh
