"""The check-session engine behind the ``repro.api`` facade.

Typical use (through the stable facade)::

    from repro import api
    result = api.check_commit(tree, repository, commit_id)
    print(result.report.render())

or, holding a session for many checks::

    session = CheckSession.from_generated_tree(tree)
    report = session.check_commit(repo, commit_id)

``check_commit`` performs the paper's per-patch protocol (§V-A): clean
the worktree (``git clean -dfx`` / ``git reset --hard``), check out the
commit's snapshot, extract the changed lines, mutate, and drive the
compile checks. ``check_patch`` is the lower-level entry for a worktree
the caller already holds; :meth:`CheckSession.worktree_for_files`
builds a throwaway single-commit worktree for VCS-less use. Every
driver — the sequential loop and each check-service transport, the
``--jobs N`` workers included — calls ``check_commit`` once per commit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buildcache.cache import BuildCache
from repro.core.archselect import ArchSelector
from repro.core.cfile import CFileProcessor
from repro.core.changes import extract_changed_files
from repro.core.hfile import HFileProcessor
from repro.core.mutation import (
    MutationEngine,
    MutationOverlay,
    MutationPlan,
)
from repro.core.report import FileReport, FileStatus, PatchReport
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import FaultPlan
from repro.faults.resilience import RetryPolicy
from repro.kbuild.build import BuildSystem
from repro.kbuild.timing import CostModel
from repro.obs.logcfg import get_logger
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.util.rng import DeterministicRng
from repro.util.simclock import SimClock
from repro.vcs.diff import Patch
from repro.vcs.objects import Commit, Signature, Tree
from repro.vcs.repository import Repository, Worktree

_logger = get_logger("core.jmake")


@dataclass
class JMakeOptions:
    """Tunables, defaults matching the paper's prototype."""

    #: compile at most this many files per make invocation (§V-A uses 50)
    batch_limit: int = 50
    #: .h candidate-file threshold beyond which only allyesconfig is
    #: used (§III-E; user-configurable, default 100)
    hfile_candidate_cap: int = 100
    #: consider arch/<d>/configs/ defconfigs in addition to allyesconfig
    use_configs: bool = True
    #: also try allmodconfig after each allyesconfig (§VII future work;
    #: "at the cost of nearly doubling the set of configurations")
    use_allmodconfig: bool = False
    #: as a last resort, generate Vampyr/Troll-style configurations
    #: aimed at the exact blocks holding uncovered lines (§VII: "more
    #: sophisticated configuration generation techniques")
    use_targeted_configs: bool = False
    #: the developer machine's architecture (plain make tries this first)
    host: str = "x86_64"
    #: seed for the deterministic "random" defconfig choice (§III-C)
    selection_seed: int | str = "jmake"


class CheckSession:
    """One checking context: clock, cache, faults, observability."""
    def __init__(self, *, options: JMakeOptions | None = None,
                 clock: SimClock | None = None,
                 cost_model: CostModel | None = None,
                 bootstrap_paths: set[str] | None = None,
                 rebuild_trigger_paths: set[str] | None = None,
                 cache: "BuildCache | None" = None,
                 tracer=None, metrics=None,
                 fault_plan: "FaultPlan | None" = None,
                 retry_policy: "RetryPolicy | None" = None) -> None:
        self.options = options or JMakeOptions()
        self.clock = clock or SimClock()
        self.cache = cache
        #: one injector for the whole run; scope resets per patch keep
        #: fault decisions a pure function of (plan, commit)
        self.injector = FaultInjector(fault_plan) if fault_plan \
            else NULL_INJECTOR
        self.retry_policy = retry_policy
        if cache is not None and not cache.injector_pinned:
            # (re)bind unconditionally so a cache shared across runs
            # never keeps a previous run's injector alive — unless the
            # cache owner pinned an injector (the service shares one
            # cache across concurrent sessions)
            cache.injector = self.injector
        #: observability sinks; default to the shared no-op instances so
        #: un-observed runs pay nothing but an attribute lookup per site
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        if tracer is not None and tracer.enabled and \
                tracer.sim_clock is None:
            # a recording tracer reads (never charges) this clock
            tracer.sim_clock = self.clock
        self._bootstrap = set(bootstrap_paths or ())
        self._triggers = set(rebuild_trigger_paths or ())
        self._cost_model = cost_model or CostModel()
        self._engine = MutationEngine()
        #: BuildSystem of the most recent check (quarantine inspection)
        self.last_build: BuildSystem | None = None

    @classmethod
    def from_generated_tree(cls, tree, *,
                            options: JMakeOptions | None = None,
                            clock: SimClock | None = None,
                            cache: "BuildCache | None" = None,
                            tracer=None, metrics=None,
                            fault_plan: "FaultPlan | None" = None,
                            retry_policy: "RetryPolicy | None" = None
                            ) -> "CheckSession":
        """Bind bootstrap/rebuild metadata from a generated tree."""
        return cls(
            options=options,
            clock=clock,
            bootstrap_paths=tree.bootstrap_paths,
            rebuild_trigger_paths=tree.rebuild_triggers,
            cache=cache,
            tracer=tracer,
            metrics=metrics,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )

    @staticmethod
    def worktree_for_files(files: "dict[str, str]") -> Worktree:
        """A throwaway worktree over a plain file dict (no history)."""
        repository = Repository()
        commit = repository.commit(
            Tree(files),
            Signature("jmake", "jmake@localhost", "1970-01-01T00:00:00"),
            "snapshot")
        return repository.checkout(commit)

    # -- entry points ----------------------------------------------------------

    def check_commit(self, repository: Repository,
                     commit: "Commit | str") -> PatchReport:
        """Check one commit: checkout, diff against parent, verify."""
        if isinstance(commit, str):
            commit = repository.resolve(commit)
        with self.tracer.span("jmake.check_commit",
                              commit=commit.id) as span:
            with self.tracer.span("worktree.prepare"):
                worktree = repository.checkout(commit)
                worktree.clean()
                worktree.reset_hard()
            with self.tracer.span("patch.parse") as parse_span:
                patch = repository.show(commit)
                parse_span.set("files", len(patch.paths()))
            report = self.check_patch(worktree, patch,
                                      commit_id=commit.id)
            # Commit-resolving checks know who wrote the patch; stamp
            # the identity so the verdict store can rank §IV
            # janitors without a second VCS pass.
            report.author_name = commit.author.name
            report.author_email = commit.author.email
            span.set("certified", report.certified)
            _logger.debug("checked %s: certified=%s files=%d",
                          commit.id, report.certified,
                          len(report.file_reports))
            return report

    def check_patch(self, worktree: Worktree, patch: Patch,
                    commit_id: str | None = None) -> PatchReport:
        """Check a patch against an already-checked-out worktree.

        The worktree must hold the *post-patch* state (the paper checks
        out "the snapshot of the source code resulting from applying the
        patch").
        """
        clock_start = self.clock.span_count
        # New commit, fresh fault scope: attempt counters and pending
        # reports reset so decisions cannot leak across commits (or
        # depend on which worker checks which commit).
        self.injector.begin_scope(commit_id or "<patch>")
        with self.tracer.span("jmake.check_patch",
                              commit=commit_id or "<patch>") as patch_span:
            build = self._make_build_system(worktree)
            self.last_build = build
            invocations_start = len(build.invocations)
            selector = ArchSelector(
                build, worktree.paths, worktree.as_file_provider(),
                rng=DeterministicRng(self.options.selection_seed),
                use_configs=self.options.use_configs,
                tracer=self.tracer, metrics=self.metrics,
                committed_tree=worktree.committed_tree)

            report = PatchReport(commit_id=commit_id)
            with self.tracer.span("patch.extract_changes") as extract_span:
                changed = extract_changed_files(
                    patch, new_texts={path: worktree.read(path)
                                      for path in patch.paths()
                                      if worktree.exists(path)})
                extract_span.set("files", len(changed))

            c_plans: list[MutationPlan] = []
            h_plans: list[MutationPlan] = []
            for record in changed:
                if record.path in self._bootstrap:
                    report.file_reports[record.path] = FileReport(
                        path=record.path,
                        status=FileStatus.BOOTSTRAP_UNTREATABLE)
                    continue
                if not worktree.exists(record.path):
                    continue
                with self.tracer.span("mutation.plan",
                                      path=record.path) as plan_span:
                    plan = self._engine.plan(
                        record.path, worktree.read(record.path),
                        record.changed_lines)
                    plan_span.set("tokens", len(plan.mutations))
                if plan.mutations:
                    self.metrics.counter("files.mutated").inc()
                    self.metrics.counter("tokens.placed").inc(
                        len(plan.mutations))
                if record.is_c:
                    c_plans.append(plan)
                else:
                    h_plans.append(plan)

            # Apply all mutated texts to the overlay before any .i run;
            # the same overlay object lets the processors flip to the
            # clean tree for every certification .o build.
            overlay = MutationOverlay(worktree, c_plans + h_plans)
            overlay.apply_all()

            cfile = CFileProcessor(
                build, selector,
                batch_limit=self.options.batch_limit,
                use_allmodconfig=self.options.use_allmodconfig,
                use_targeted_configs=self.options.use_targeted_configs,
                tracer=self.tracer, metrics=self.metrics)
            with self.tracer.span("cfile.process",
                                  files=len(c_plans)) as cfile_span:
                outcome = cfile.process(worktree, c_plans, h_plans,
                                        overlay=overlay)
                cfile_span.set("header_tokens_found",
                               len(outcome.header_tokens_found))
            report.file_reports.update(outcome.reports)

            hfile = HFileProcessor(
                build, selector, worktree.paths,
                worktree.as_file_provider(),
                batch_limit=self.options.batch_limit,
                candidate_cap=self.options.hfile_candidate_cap,
                tracer=self.tracer, metrics=self.metrics)
            for plan in h_plans:
                with self.tracer.span("hfile.process",
                                      path=plan.path) as hfile_span:
                    file_report = hfile.process(
                        worktree, plan, outcome.header_tokens_found,
                        overlay=overlay)
                    hfile_span.set("status", file_report.status.value)
                report.file_reports[plan.path] = file_report

            worktree.reset_hard()
            report.elapsed_seconds = self.clock.elapsed_since(clock_start)
            for invocation in build.invocations[invocations_start:]:
                report.invocation_counts[invocation.kind] = \
                    report.invocation_counts.get(invocation.kind, 0) + 1
                report.invocation_durations.setdefault(
                    invocation.kind, []).append(invocation.duration)
            report.quarantined_archs = build.quarantine.archs()
            report.fault_reports = self.injector.drain_reports()
            patch_span.set("certified", report.certified)
            patch_span.set("files", len(report.file_reports))
            if report.quarantined_archs:
                patch_span.set("quarantined",
                               ",".join(report.quarantined_archs))
        self.metrics.counter("patches.checked").inc()
        if report.certified:
            self.metrics.counter("patches.certified").inc()
        if report.quarantined_archs:
            self.metrics.counter("patches.partial").inc()
        self.metrics.histogram("patch.elapsed_sim_seconds").observe(
            report.elapsed_seconds)
        return report

    # -- helpers ---------------------------------------------------------------

    def _make_build_system(self, worktree: Worktree) -> BuildSystem:
        return BuildSystem(
            worktree.as_file_provider(),
            clock=self.clock,
            cost_model=self._cost_model,
            bootstrap_paths=self._bootstrap,
            rebuild_trigger_paths=self._triggers,
            path_lister=worktree.paths,
            cache=self.cache,
            tracer=self.tracer,
            metrics=self.metrics,
            injector=self.injector,
            retry_policy=self.retry_policy,
        )

