"""The evaluation driver: JMake over every commit of a corpus window.

Mirrors §V-A: take ``git log -w --diff-filter=M --no-merges`` between
the window tags, drop commits whose changes are entirely outside
``.c``/``.h`` or inside ``Documentation/``/``scripts/``/``tools/``, and
run JMake on the rest, recording per-file-instance and per-patch data
sufficient to regenerate every table, figure, and in-text statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.buildcache.cache import BuildCache
from repro.buildcache.stats import CacheStats
from repro.core.changes import is_checkable
from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileReport, FileStatus, PatchReport
from repro.errors import EvaluationError
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    SITE_CACHE_LOAD,
    SITE_CACHE_STORE,
)
from repro.faults.resilience import RetryPolicy
from repro.janitors.identify import JanitorCriteria, JanitorFinder
from repro.kernel.layout import HazardKind
from repro.obs.logcfg import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.util.validate import validate_jobs
from repro.workload.corpus import Corpus
from repro.workload.personas import PersonaKind

_logger = get_logger("evalsuite.runner")


@dataclass
class FileInstanceRecord:
    """One file at one commit, as §V calls a *file instance*."""

    commit_id: str
    path: str
    status: FileStatus
    mutation_count: int
    useful_archs: list[str] = field(default_factory=list)
    missing_lines: list[int] = field(default_factory=list)
    candidate_compilations: int = 0
    #: all tokens covered by the first attempt whose clean .o succeeded
    first_clean_covers_all: bool = False
    #: some allyesconfig compilation succeeded but left tokens missing
    insidious_under_allyes: bool = False
    #: certification needed an architecture other than the host
    needed_non_host_arch: bool = False
    #: a non-allyesconfig configuration contributed coverage
    used_defconfig: bool = False
    #: ground-truth hazard kinds the commit touched in this file
    hazard_kinds: list[HazardKind] = field(default_factory=list)

    @property
    def is_c(self) -> bool:
        """True for .c instances."""
        return self.path.endswith(".c")

    @property
    def is_h(self) -> bool:
        """True for .h instances."""
        return self.path.endswith(".h")


@dataclass
class PatchRecord:
    """One checked patch: verdicts, author, timing, accounting."""
    commit_id: str
    author_name: str
    author_email: str
    is_janitor: bool
    shape: str                      # c_only | h_only | both
    certified: bool
    elapsed_seconds: float
    invocation_counts: dict[str, int] = field(default_factory=dict)
    invocation_durations: dict[str, list[float]] = field(
        default_factory=dict)
    files: list[FileInstanceRecord] = field(default_factory=list)
    #: CERTIFIED / ATTENTION REQUIRED / PARTIAL:<archs>
    verdict: str = ""
    quarantined_archs: list[str] = field(default_factory=list)
    #: FaultReport entries for the faults injected while checking
    fault_reports: list = field(default_factory=list)

    @property
    def fully_checked(self) -> bool:
        """False for PARTIAL commits — they must not be counted as
        checked (that silent over-count was the quarantine bug)."""
        return not self.quarantined_archs


@dataclass
class EvaluationResult:
    """Everything one evaluation run produced."""
    total_commits: int = 0
    ignored_commits: int = 0
    janitor_emails: set[str] = field(default_factory=set)
    patches: list[PatchRecord] = field(default_factory=list)
    #: build-cache telemetry for this run (None with caching disabled)
    cache_stats: CacheStats | None = None
    #: serialized per-commit span trees, sorted by commit index
    #: (None unless the runner observed the run)
    span_trees: "list[dict] | None" = None
    #: merged pipeline metrics (None unless the runner observed the run)
    metrics: "MetricsRegistry | None" = None
    #: verdict-journal telemetry (None when the run was not journaled);
    #: ``resumed`` is how many verdicts were replayed instead of rerun
    journal_stats: "dict | None" = None
    #: service scheduling telemetry (None outside service mode)
    service_stats: "dict | None" = None

    def canonical_records(self) -> str:
        """A deterministic text rendering of every verdict-bearing field.

        Two runs whose tables and figures would be identical produce the
        same string — the cached-vs-uncached equivalence surface. Cache
        telemetry is deliberately excluded; floats render via ``repr``
        so even last-bit drift shows up.
        """
        lines = [f"total={self.total_commits}",
                 f"ignored={self.ignored_commits}",
                 f"janitors={','.join(sorted(self.janitor_emails))}"]
        for patch in self.patches:
            lines.append(
                f"patch {patch.commit_id} author={patch.author_email} "
                f"janitor={patch.is_janitor} shape={patch.shape} "
                f"certified={patch.certified} "
                f"verdict={patch.verdict} "
                f"elapsed={patch.elapsed_seconds!r}")
            for fault in patch.fault_reports:
                # Cache-site faults only degrade probes/stores; their
                # count depends on cache state, which legitimately varies
                # with partitioning — step-site faults are the invariant.
                if fault.site in (SITE_CACHE_LOAD, SITE_CACHE_STORE):
                    continue
                lines.append(
                    f"  fault {fault.kind}@{fault.site} arch={fault.arch} "
                    f"path={fault.path} attempt={fault.attempt}")
            for kind in sorted(patch.invocation_counts):
                durations = ",".join(
                    repr(value) for value
                    in patch.invocation_durations.get(kind, []))
                lines.append(f"  step {kind} "
                             f"n={patch.invocation_counts[kind]} "
                             f"durations=[{durations}]")
            for record in patch.files:
                lines.append(
                    f"  file {record.path} status={record.status.name} "
                    f"mutations={record.mutation_count} "
                    f"archs={','.join(record.useful_archs)} "
                    f"missing={record.missing_lines} "
                    f"candidates={record.candidate_compilations} "
                    f"first_clean={record.first_clean_covers_all} "
                    f"insidious={record.insidious_under_allyes} "
                    f"non_host={record.needed_non_host_arch} "
                    f"defconfig={record.used_defconfig} "
                    f"hazards={','.join(kind.name for kind in record.hazard_kinds)}")
        return "\n".join(lines)

    # -- selections -------------------------------------------------------

    def patch_records(self, *, janitor_only: bool = False
                      ) -> list[PatchRecord]:
        """All patches, or the janitor subset."""
        if not janitor_only:
            return list(self.patches)
        return [patch for patch in self.patches if patch.is_janitor]

    def file_instances(self, *, janitor_only: bool = False,
                       suffix: str | None = None
                       ) -> list[FileInstanceRecord]:
        """File instances filtered by author set and suffix."""
        instances: list[FileInstanceRecord] = []
        for patch in self.patch_records(janitor_only=janitor_only):
            for record in patch.files:
                if suffix is None or record.path.endswith(suffix):
                    instances.append(record)
        return instances

    def step_durations(self, kind: str) -> list[float]:
        """All per-invocation durations of one step kind."""
        durations: list[float] = []
        for patch in self.patches:
            durations.extend(patch.invocation_durations.get(kind, []))
        return durations

    def overall_durations(self, *, janitor_only: bool = False
                          ) -> list[float]:
        """Per-patch elapsed simulated seconds."""
        return [patch.elapsed_seconds
                for patch in self.patch_records(janitor_only=janitor_only)]


#: criteria scaled to the synthetic corpus (the tree has ~40 MAINTAINERS
#: entries vs the kernel's ~1500, so the subsystem floor scales down;
#: the *structure* of the rule is Table I's).
def scaled_criteria(corpus: Corpus) -> JanitorCriteria:
    """Table I criteria scaled to the synthetic corpus size."""
    entries = len(corpus.tree.maintainers)
    return JanitorCriteria(
        min_patches=10,
        min_subsystems=max(3, entries // 3),
        min_lists=3,
        max_maintainer_share=0.05,
        min_eval_window_patches=max(
            2, len(corpus.eval_metadata) // 100),
        top_n=10,
    )


def _serialize_commit_tree(tracer: Tracer, index: int, jobs: int) -> dict:
    """Serialize the root span of the commit just checked.

    Simulated times rebase to the commit's own start (a span tree is a
    pure function of (corpus, commit)), and the worker id recorded is
    the commit's deterministic *lane* (``index % jobs``) rather than
    the racing OS process — together these make ``--trace-out`` output
    byte-stable across runs for any ``--jobs`` value.
    """
    roots = tracer.drain()
    root = roots[-1]
    root.set("commit.index", index)
    root.set("worker", index % jobs)
    return root.to_dict()


class EvaluationSession:
    """Runs JMake over a corpus window (§V-A protocol)."""
    def __init__(self, corpus: Corpus,
                 options: JMakeOptions | None = None,
                 criteria: JanitorCriteria | None = None,
                 cache: "BuildCache | bool | None" = None,
                 observe: bool = False,
                 fault_plan: "FaultPlan | None" = None,
                 retry_policy: "RetryPolicy | None" = None) -> None:
        self.corpus = corpus
        self.options = options or JMakeOptions()
        self.criteria = criteria or scaled_criteria(corpus)
        #: when True the run records span trees and pipeline metrics
        #: (simulated timings and verdicts are unaffected either way)
        self.observe = observe
        #: active fault plan (None outside fault-injection runs) and the
        #: retry/timeout policy the build systems run under
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: ``None``/``True`` -> a fresh private cache, ``False`` ->
        #: caching off, a BuildCache -> shared (warm across runs)
        if cache is False:
            self.cache: BuildCache | None = None
        elif cache is None or cache is True:
            self.cache = BuildCache()
        else:
            self.cache = cache

    def identify_janitors(self) -> set[str]:
        """The §IV identification over the corpus history."""
        finder = JanitorFinder(self.corpus.repository,
                               self.corpus.tree.maintainers,
                               criteria=self.criteria)
        ranked = finder.identify(
            history_since=None,
            history_until=Corpus.TAG_EVAL_END,
            eval_since=Corpus.TAG_EVAL_START,
            eval_until=Corpus.TAG_EVAL_END)
        return {developer.email for developer in ranked}

    def run(self, *, limit: int | None = None,
            use_ground_truth_janitors: bool = False,
            jobs: int = 1,
            service: "bool | object" = False,
            journal: str | None = None,
            resume: bool = False,
            journal_fsync: bool = True,
            on_journal_append=None) -> EvaluationResult:
        """Run JMake over the evaluation window.

        Two drivers check the commits: this process's own loop, or a
        :class:`~repro.service.service.CheckService`. ``jobs`` > 1
        distributes patches over worker processes the way the paper ran
        25 parallel processes on its testbed (§V-A), through a service
        on the socket transport with ``jobs`` locally spawned workers
        that admits every commit at once. ``service`` routes the
        commits through a service explicitly — ``True`` for the default
        config, or a full ``ServiceConfig``, which wins over ``jobs``.
        Verdict-bearing records, and the span trees and pipeline
        metrics of an observed run, are the same under every driver:
        every check is a pure function of (corpus, commit).

        ``journal`` names a write-ahead verdict journal: every patch
        verdict is durably appended the moment it exists, under every
        driver. ``resume=True`` replays that journal first and reruns
        only the commits without a durable verdict — the final result
        is byte-identical (``canonical_records()``) to an uninterrupted
        run, because verdicts are pure functions of (corpus, commit)
        and the codec round-trips them exactly. ``resume=False`` with
        an existing journal starts over (the stale journal is wiped).
        Span trees/metrics cover only the *fresh* commits of a resumed
        run; verdict-bearing records are unaffected.
        ``on_journal_append`` is the chaos observer (see
        :class:`repro.faults.chaos.CrashPoint`).
        """
        jobs = validate_jobs(jobs)
        if resume and journal is None:
            raise EvaluationError(
                "resume=True requires a journal path")
        stats_start = self.cache.stats_snapshot() \
            if self.cache is not None else None
        result = EvaluationResult()
        if use_ground_truth_janitors:
            result.janitor_emails = {
                persona.email for persona in self.corpus.roster
                if persona.kind is PersonaKind.JANITOR}
        else:
            result.janitor_emails = self.identify_janitors()

        repository = self.corpus.repository
        metadata = self.corpus.metadata_by_commit()
        commits = repository.log(since=Corpus.TAG_EVAL_START,
                                 until=Corpus.TAG_EVAL_END)
        # Commits dropped by the log filters themselves (merges,
        # whitespace-only) count toward the ignored population.
        window_size = len(self.corpus.eval_metadata)
        filtered_out = window_size - len(commits)
        if limit is not None:
            commits = commits[:limit]
            window_size = len(commits) + filtered_out
        result.total_commits = window_size
        result.ignored_commits = filtered_out

        checkable = [commit for commit in commits
                     if is_checkable(repository, commit)]
        result.ignored_commits += len(commits) - len(checkable)

        ledger = None
        replayed: dict[str, PatchRecord] = {}
        if journal is not None:
            from repro.journal.records import patch_record_from_dict
            ledger = self._open_ledger(
                journal, resume=resume, fsync=journal_fsync,
                on_append=on_journal_append,
                ground_truth=use_ground_truth_janitors)
            for key in ledger.keys():
                replayed[key] = patch_record_from_dict(ledger.get(key))
        pending = [commit for commit in checkable
                   if commit.id not in replayed]

        fresh: dict[str, PatchRecord] = {}

        def record_report(commit, report: PatchReport) -> None:
            """Build the verdict record and journal it immediately."""
            record = self._patch_record(commit, report, result,
                                        metadata.get(commit.id))
            fresh[commit.id] = record
            if ledger is not None:
                from repro.journal.records import patch_record_to_dict
                ledger.emit(commit.id, patch_record_to_dict(record))

        if jobs > 1 and not service:
            from repro.service.service import ServiceConfig
            # every commit admitted at once: the transport batches from
            # the whole task list
            service = ServiceConfig(
                transport="socket", jobs=jobs,
                max_pending_requests=max(1, len(pending)))
        _logger.info("checking %d commits (%d replayed from journal; "
                     "jobs=%d, observe=%s, service=%s)", len(pending),
                     len(checkable) - len(pending), jobs, self.observe,
                     bool(service))
        trees: "list[dict] | None" = None
        metrics: "MetricsRegistry | None" = None
        try:
            if service:
                result.service_stats, trees, metrics = \
                    self._run_service(pending, service, record_report)
            else:
                tracer = Tracer() if self.observe else None
                metrics = MetricsRegistry() if self.observe else None
                jmake = CheckSession.from_generated_tree(
                    self.corpus.tree,
                    options=self.options,
                    cache=self.cache,
                    tracer=tracer,
                    metrics=metrics,
                    fault_plan=self.fault_plan,
                    retry_policy=self.retry_policy)
                trees = [] if self.observe else None
                for index, commit in enumerate(pending):
                    record_report(commit,
                                  jmake.check_commit(repository, commit))
                    if tracer is not None:
                        trees.append(
                            _serialize_commit_tree(tracer, index, 1))
        finally:
            if ledger is not None:
                result.journal_stats = dict(
                    ledger.stats(),
                    resumed=len(checkable) - len(pending))
                ledger.close()

        for commit in checkable:
            record = fresh.get(commit.id)
            if record is None:
                record = replayed[commit.id]
            result.patches.append(record)
        if self.cache is not None:
            result.cache_stats = \
                self.cache.stats_snapshot().delta(stats_start)
        result.span_trees = trees
        result.metrics = metrics
        return result

    def _open_ledger(self, journal: str, *, resume: bool, fsync: bool,
                     on_append, ground_truth: bool):
        """Open (or wipe) the verdict ledger and bind the run identity.

        The meta record refuses a --resume against a journal written by
        a different corpus/options combination — replaying verdicts of
        another run would silently produce wrong tables.
        """
        from repro.journal.ledger import VerdictLedger

        injector = FaultInjector(self.fault_plan) \
            if self.fault_plan else None
        ledger = VerdictLedger(journal, fsync=fsync,
                               injector=injector, on_append=on_append,
                               fresh=not resume)
        spec = self.corpus.spec
        ledger.bind_meta({
            "corpus_seed": spec.seed,
            "history_commits": spec.history_commits,
            "eval_commits": spec.eval_commits,
            "use_configs": self.options.use_configs,
            "use_allmodconfig": self.options.use_allmodconfig,
            "ground_truth": ground_truth,
        })
        return ledger

    def _run_service(self, commits, service, on_report):
        """Route the commits through a check service.

        The service shares this runner's cache/fault-plan/retry-policy
        substrate; per-request sessions keep verdicts byte-identical to
        the sequential path. ``on_report`` fires per commit in
        submission order as results land (journaling incrementally).
        Returns the service's stats, then — None unless observed — the
        span trees and the pipeline metrics (all but ``service.*``).
        """
        from repro.service.service import CheckService, ServiceConfig

        if service is True:
            config = ServiceConfig()
        elif isinstance(service, ServiceConfig):
            # a copy: what is filled in below belongs to this run
            config = replace(service)
        else:
            raise TypeError(
                f"service must be True or a ServiceConfig, "
                f"got {service!r}")
        if config.fault_plan is None:
            config.fault_plan = self.fault_plan
        if config.retry_policy is None:
            config.retry_policy = self.retry_policy
        own_tracer = self.observe and config.tracer is None
        if own_tracer:
            # a service with a tracer returns each check's span tree
            config.tracer = Tracer()
        check_service = CheckService(
            self.corpus, options=self.options, config=config,
            cache=self.cache if self.cache is not None else False)
        by_id = {commit.id: commit for commit in commits}
        lanes = 1 if config.transport == "asyncio" else config.jobs
        trees: "list[dict] | None" = [] if self.observe else None

        def on_result(result) -> None:
            on_report(by_id[result.commit_id], result.report)
            if trees is not None:
                # stamped as _serialize_commit_tree stamps; results
                # land in submission order
                attributes = result.span_tree.setdefault("attributes", {})
                attributes["commit.index"] = len(trees)
                attributes["worker"] = len(trees) % lanes
                trees.append(result.span_tree)

        check_service.check_commits([commit.id for commit in commits],
                                    on_result=on_result)
        if own_tracer:
            # only the checks' trees were wanted, not the service's own
            # service.request spans
            config.tracer.drain()
        metrics = None
        if self.observe:
            metrics = check_service.metrics.snapshot()
            for instruments in (metrics.counters, metrics.gauges,
                                metrics.histograms):
                for name in [name for name in instruments
                             if name.startswith("service.")]:
                    del instruments[name]
        return check_service.stats(), trees, metrics

    # -- record construction ------------------------------------------------

    def _patch_record(self, commit, report: PatchReport,
                      result: EvaluationResult,
                      ground_truth) -> PatchRecord:
        has_c = any(path.endswith(".c") for path in report.file_reports)
        has_h = any(path.endswith(".h") for path in report.file_reports)
        shape = "both" if (has_c and has_h) else \
            ("c_only" if has_c else "h_only")
        record = PatchRecord(
            commit_id=commit.id,
            author_name=commit.author.name,
            author_email=commit.author.email,
            is_janitor=commit.author.email in result.janitor_emails,
            shape=shape,
            certified=report.certified,
            elapsed_seconds=report.elapsed_seconds,
            invocation_counts=dict(report.invocation_counts),
            invocation_durations={
                kind: list(durations) for kind, durations
                in report.invocation_durations.items()},
            verdict=report.verdict,
            quarantined_archs=list(report.quarantined_archs),
            fault_reports=list(report.fault_reports),
        )
        hazard_by_path: dict[str, list[HazardKind]] = {}
        if ground_truth is not None:
            for edit in ground_truth.edits:
                if edit.hazard_kind is not None:
                    hazard_by_path.setdefault(edit.path, []).append(
                        edit.hazard_kind)
        for path, file_report in report.file_reports.items():
            record.files.append(self._file_record(
                commit.id, file_report, hazard_by_path.get(path, [])))
        return record

    @staticmethod
    def _file_record(commit_id: str, report: FileReport,
                     hazard_kinds: list[HazardKind]) -> FileInstanceRecord:
        all_tokens = {mutation.token for mutation in report.mutations}
        # §V-B "benefits for .c files": the good case is that the first
        # compilation that produces no error messages already subjects
        # every changed line to the compiler.
        first_i_ok = next((attempt for attempt in report.attempts
                           if attempt.i_ok), None)
        first_clean = bool(all_tokens) and first_i_ok is not None \
            and first_i_ok.tokens_found >= all_tokens \
            and any(attempt.o_ok for attempt in report.attempts)
        # §V-B "insidious case": an allyesconfig build goes through
        # without errors, yet its .i lacked some mutation tokens.
        insidious = bool(all_tokens) and any(
            attempt.i_ok
            and attempt.config_target == "allyesconfig"
            and not attempt.tokens_found >= all_tokens
            for attempt in report.attempts)
        used_defconfig = any(
            attempt.o_ok and attempt.config_target != "allyesconfig"
            and attempt.tokens_found
            for attempt in report.attempts)
        return FileInstanceRecord(
            commit_id=commit_id,
            path=report.path,
            status=report.status,
            mutation_count=len(report.mutations),
            useful_archs=list(report.useful_archs),
            missing_lines=report.missing_changed_lines(),
            candidate_compilations=report.candidate_compilations,
            first_clean_covers_all=first_clean,
            insidious_under_allyes=insidious,
            needed_non_host_arch=bool(report.useful_archs) and
            "x86_64" not in report.useful_archs,
            used_defconfig=used_defconfig,
            hazard_kinds=hazard_kinds,
        )

