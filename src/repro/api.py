"""The stable, versioned public API of the JMake reproduction.

``repro.api`` is the only supported import surface: the CLI and every
example script import from here, and anything importable from this
module follows the serialized-record ``schema_version`` compatibility
story (see :data:`SCHEMA_VERSION` / :func:`migrate_record`). The
subpackages re-export nothing; everything not listed in ``__all__``
stays importable from its defining module.

Four tiers:

- **functions** — :func:`check_commit`, :func:`check_patch`,
  :func:`evaluate`, :func:`serve` cover the common one-shot write
  paths;
- **the read surface** — :func:`open_store`, :func:`query_verdicts`,
  :func:`janitor_report`, :func:`watch`: fleet mode's persistent
  verdict store and its continuous-ingest daemon. Queries are pure
  reads — answering one never triggers preprocess or compile work;
- **session objects** — :class:`CheckSession`,
  :class:`EvaluationSession`, :class:`CheckService`,
  :class:`WatchSession` for callers that hold state across many
  checks;
- **re-exports** — the data types and helpers the CLI, the examples
  and the test suites reach through this module (corpus construction,
  tables/figures, observability, fault plans, store filters).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# -- the facade's own imports (public re-export surface) ----------------------

from repro.analysis.deadblocks import BlockVerdict, DeadBlockAnalyzer
from repro.buildcache.cache import BuildCache, CachePolicy
from repro.core.changes import extract_changed_files, is_checkable
from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.mutation import MutationEngine, MutationOverlay
from repro.core.report import SCHEMA_VERSION, migrate_record
from repro.cpp.prepared import collect_metrics as collect_substrate_metrics
from repro.errors import (
    AuthError,
    CorpusMismatchError,
    FaultPlanError,
    JournalError,
    SimulatedCrashError,
    StoreError,
    TransportError,
    VcsError,
)
from repro.evalsuite.experiments import EXPERIMENTS
from repro.evalsuite.figures import figure5_overall
from repro.evalsuite.reportdoc import write_markdown_report
from repro.evalsuite.runner import EvaluationSession, scaled_criteria
from repro.evalsuite.tables import table1, table2, table3, table4
from repro.faults.chaos import CrashPoint
from repro.faults.inject import FaultInjector, NULL_INJECTOR
from repro.faults.plan import FaultPlan
from repro.faults.resilience import RetryPolicy
from repro.janitors.activity import ActivityAnalyzer
from repro.janitors.identify import JanitorFinder
from repro.journal.ledger import VerdictLedger
from repro.kbuild.build import BuildSystem
from repro.kconfig.ast import Tristate
from repro.kconfig.configfile import Config
from repro.kernel.generator import generate_tree
from repro.kernel.layout import HazardKind
from repro.obs.events import EventLog, validate_event_record
from repro.obs.export import render_span_tree, span_count, write_chrome_trace
from repro.obs.logcfg import LEVELS, configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import (
    JsonlSink,
    OpenMetricsSink,
    parse_openmetrics,
    read_jsonl,
)
from repro.obs.timeseries import (
    Snapshotter,
    histogram_quantiles,
    validate_snapshot_record,
)
from repro.obs.tracer import Tracer
from repro.service.service import CheckService, ServiceConfig
from repro.service.transport.client import ReconnectPolicy, WorkerClient
from repro.service.watch import (
    SyntheticTrafficSource,
    WatchConfig,
    WatchSession,
    WindowSource,
)
from repro.service.watch import watch as _watch
from repro.store.query import JanitorViewCriteria, StoredVerdict, VerdictFilter
from repro.store.store import VerdictStore
from repro.util.atomicio import atomic_write_json, atomic_write_text
from repro.util.rng import DeterministicRng
from repro.util.validate import validate_jobs
from repro.vcs.diff import Patch, diff_texts
from repro.vcs.repository import Repository
from repro.workload.corpus import Corpus, CorpusSpec, build_corpus
from repro.workload.personas import PersonaKind

if TYPE_CHECKING:
    from repro.core.report import PatchReport
    from repro.evalsuite.runner import EvaluationResult
    from repro.service.watch import WatchResult
    from repro.store.query import JanitorViewRow
    from repro.vcs.repository import Worktree

__all__ = [
    # functions
    "check_commit", "check_patch", "evaluate", "serve", "validate_jobs",
    "resolve_outputs", "OUT_DIR_DEFAULTS",
    # the fleet-mode read surface (store + watch)
    "open_store", "query_verdicts", "janitor_report", "watch",
    "VerdictStore", "VerdictFilter", "StoredVerdict",
    "JanitorViewCriteria", "StoreError",
    "WatchSession", "WatchConfig", "WindowSource",
    "SyntheticTrafficSource",
    # sessions / service
    "CheckSession", "EvaluationSession", "CheckService", "ServiceConfig",
    # transports and the cross-host worker fleet
    "TransportError", "WorkerClient", "ReconnectPolicy", "AuthError",
    "CorpusMismatchError",
    # durability (write-ahead journal, resume, chaos)
    "VerdictLedger", "CrashPoint", "JournalError", "SimulatedCrashError",
    # schema
    "SCHEMA_VERSION", "migrate_record",
    # telemetry plane (snapshots, sinks, structured events)
    "EventLog", "validate_event_record", "Snapshotter",
    "histogram_quantiles", "validate_snapshot_record",
    "JsonlSink", "OpenMetricsSink", "parse_openmetrics", "read_jsonl",
    "collect_substrate_metrics",
    # data types and helpers
    "ActivityAnalyzer", "BlockVerdict", "BuildCache", "BuildSystem",
    "CachePolicy", "Config", "Corpus", "CorpusSpec", "DeadBlockAnalyzer",
    "DeterministicRng", "EXPERIMENTS", "FaultInjector", "FaultPlan",
    "FaultPlanError", "HazardKind", "JMakeOptions", "JanitorFinder",
    "LEVELS", "MetricsRegistry", "MutationEngine", "MutationOverlay",
    "NULL_INJECTOR", "Patch", "PersonaKind", "Repository", "RetryPolicy",
    "Tracer", "Tristate", "VcsError",
    "atomic_write_json", "atomic_write_text", "build_corpus",
    "configure_logging", "diff_texts", "extract_changed_files",
    "figure5_overall", "generate_tree", "is_checkable",
    "render_span_tree", "scaled_criteria", "span_count", "table1",
    "table2", "table3", "table4", "write_chrome_trace",
    "write_markdown_report",
]


# -- one-shot functions -------------------------------------------------------

def check_commit(tree, repository: Repository, commit,
                 *, options: JMakeOptions | None = None,
                 cache: "BuildCache | None" = None,
                 tracer=None, metrics=None,
                 fault_plan: "FaultPlan | None" = None,
                 retry_policy: "RetryPolicy | None" = None) -> PatchReport:
    """Check one commit of a repository against a generated tree."""
    session = CheckSession.from_generated_tree(
        tree, options=options, cache=cache, tracer=tracer,
        metrics=metrics, fault_plan=fault_plan,
        retry_policy=retry_policy)
    return session.check_commit(repository, commit)


def check_patch(worktree: Worktree, patch: Patch,
                *, tree=None, commit_id: str | None = None,
                options: JMakeOptions | None = None,
                cache: "BuildCache | None" = None,
                tracer=None, metrics=None,
                fault_plan: "FaultPlan | None" = None,
                retry_policy: "RetryPolicy | None" = None) -> PatchReport:
    """Check a patch against an already-checked-out worktree.

    ``tree`` (a generated kernel tree) binds bootstrap/rebuild
    metadata when available; without it the check runs bare.
    """
    if tree is not None:
        session = CheckSession.from_generated_tree(
            tree, options=options, cache=cache, tracer=tracer,
            metrics=metrics, fault_plan=fault_plan,
            retry_policy=retry_policy)
    else:
        session = CheckSession(
            options=options, cache=cache, tracer=tracer,
            metrics=metrics, fault_plan=fault_plan,
            retry_policy=retry_policy)
    return session.check_patch(worktree, patch, commit_id=commit_id)


def evaluate(corpus: Corpus, *,
             options: JMakeOptions | None = None,
             criteria=None,
             cache: "BuildCache | bool | None" = None,
             observe: bool = False,
             fault_plan: "FaultPlan | None" = None,
             retry_policy: "RetryPolicy | None" = None,
             limit: int | None = None,
             use_ground_truth_janitors: bool = False,
             jobs: int = 1,
             service: "bool | ServiceConfig" = False
             ) -> EvaluationResult:
    """Run the §V evaluation protocol over a corpus window."""
    session = EvaluationSession(
        corpus, options=options, criteria=criteria, cache=cache,
        observe=observe, fault_plan=fault_plan,
        retry_policy=retry_policy)
    return session.run(limit=limit,
                       use_ground_truth_janitors=use_ground_truth_janitors,
                       jobs=jobs, service=service)


def serve(corpus: Corpus, *,
          options: JMakeOptions | None = None,
          config: "ServiceConfig | None" = None,
          cache: "BuildCache | bool | None" = True) -> CheckService:
    """Construct a check service over a corpus (call ``start()`` or
    use the ``check_commits`` sync wrapper)."""
    return CheckService(corpus, options=options, config=config,
                        cache=cache)


# -- the fleet-mode read surface ----------------------------------------------

def open_store(path: str = ":memory:", *, metrics=None,
               events=None) -> VerdictStore:
    """Open (or create) a persistent verdict store.

    The returned :class:`VerdictStore` is a context manager; pass
    ``metrics``/``events`` to wire its ``store.*`` gauges and
    ``ingest.*`` events into the telemetry plane.
    """
    return VerdictStore(path, metrics=metrics, events=events)


def query_verdicts(store: "VerdictStore | str",
                   filter: "VerdictFilter | None" = None,
                   **predicates) -> list[StoredVerdict]:
    """Answer a typed filter against a store — a pure read.

    ``store`` is an open :class:`VerdictStore` or a database path;
    predicates are either a ready :class:`VerdictFilter` or its fields
    as keywords (``query_verdicts(store, verdict="PARTIAL",
    arch="mips")``). Already-ingested commits answer straight from
    SQLite: no preprocessing, no compilation, no corpus needed.
    """
    if isinstance(store, VerdictStore):
        return store.query(filter, **predicates)
    with VerdictStore(store) as opened:
        return opened.query(filter, **predicates)


def janitor_report(store: "VerdictStore | str",
                   criteria: "JanitorViewCriteria | None" = None
                   ) -> list[JanitorViewRow]:
    """The §IV Table-II janitor ranking, derived from the stored
    verdicts when it is read."""
    if isinstance(store, VerdictStore):
        return store.janitor_report(criteria)
    with VerdictStore(store) as opened:
        return opened.janitor_report(criteria)


def watch(corpus: Corpus, *, store, journal: str, source=None,
          options: JMakeOptions | None = None,
          config: "WatchConfig | None" = None,
          metrics=None, events=None,
          resume: bool = False) -> WatchResult:
    """Run the continuous-ingest daemon until its stream drains.

    Checks only commits neither the journal nor the store has seen,
    and journals every verdict before the store ingests it, one
    transaction per batch. Kill it mid-stream
    (``WatchConfig.chaos_kill_after``) and re-run with ``resume=True``:
    the store converges on bytes identical to an uninterrupted run.
    """
    return _watch(corpus, store=store, journal=journal, source=source,
                  options=options, config=config, metrics=metrics,
                  events=events, resume=resume)


# -- CLI output-path convention -----------------------------------------------

#: per-sink default filenames under ``--out-dir``
OUT_DIR_DEFAULTS = {
    "stats": "stats.json",
    "metrics": "metrics.jsonl",
    "events": "events.jsonl",
    "journal": "run.jnl",
    "store": "verdicts.sqlite",
}


def resolve_outputs(out_dir: "str | None",
                    sinks: "dict[str, object | None]") -> dict:
    """The one validator behind every CLI output-path flag.

    ``sinks`` maps sink names (keys of :data:`OUT_DIR_DEFAULTS`) to
    explicit per-sink overrides (``None`` when the flag was not
    given). With ``--out-dir`` set, un-overridden sinks resolve to
    their conventional filename inside the directory (created on
    demand); without it, they stay ``None`` (disabled). Explicit
    overrides always win — that is the documented escape hatch.
    """
    import os as _os
    unknown = set(sinks) - set(OUT_DIR_DEFAULTS)
    if unknown:
        raise ValueError(
            f"unknown output sink(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(OUT_DIR_DEFAULTS))})")
    if out_dir is not None:
        if _os.path.exists(out_dir) and not _os.path.isdir(out_dir):
            raise ValueError(
                f"--out-dir {out_dir!r} exists and is not a directory")
        _os.makedirs(out_dir, exist_ok=True)
    resolved = {}
    for name, override in sinks.items():
        if override is not None:
            resolved[name] = override
        elif out_dir is not None:
            resolved[name] = _os.path.join(
                out_dir, OUT_DIR_DEFAULTS[name])
        else:
            resolved[name] = None
    return resolved
