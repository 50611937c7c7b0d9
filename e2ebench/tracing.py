"""Span recording around calls into each layer, from the benchmark side.

:meth:`Tracer.install` wraps the public functions named in
``SPAN_TARGETS`` (synchronous functions only, so nested spans never
interleave under asyncio). A span records its name, start, end, parent
span and commit id; spans stay in memory until the repetition ends and
:meth:`Tracer.write_spans` writes them out.
Module-level functions are replaced in every ``repro`` module that
imported them by name, because that is where their callers look them
up (``repro.kbuild.build`` imports the Kconfig solvers, and
``repro.core.jmake`` imports ``extract_changed_files``).

Spans are recorded only in the process that installed the wrappers:
``window_jobs2``'s forked pool workers inherit the wrappers but skip
recording, so that workload has parent-side spans only.
"""

from __future__ import annotations

import json
import os
import sys
import time

import repro.api as api
import repro.core.changes
import repro.kconfig.solver
from repro.cc.compiler import Compiler
from repro.core.archselect import ArchSelector
from repro.cpp import prepared
from repro.kconfig.model import ConfigModel


def _commit_arg(index: int):
    """Extractor of the commit id passed as positional ``index``."""
    def commit_id(args) -> "str | None":
        value = args[index] if len(args) > index else None
        return getattr(value, "id", value)
    return commit_id


#: (owner, attribute, span name, commit-id extractor or None).
#: An owner is a class (methods) or a module (functions); a span
#: without an extractor inherits its parent's commit id.
SPAN_TARGETS = (
    (api.Repository, "show", "vcs.show", _commit_arg(1)),
    (api.Repository, "commits_after", "vcs.commits_after", None),
    (api.JanitorFinder, "identify", "janitors.identify", None),
    (api.CheckSession, "check_commit", "core.check",
     _commit_arg(2)),
    (ArchSelector, "select", "core.archselect", None),
    (api.MutationEngine, "plan", "core.mutation", None),
    (repro.core.changes, "extract_changed_files", "core.changes", None),
    (ConfigModel, "from_kconfig", "kconfig.parse", None),
    (repro.kconfig.solver, "allyesconfig", "kconfig.solve", None),
    (repro.kconfig.solver, "allmodconfig", "kconfig.solve", None),
    (repro.kconfig.solver, "allnoconfig", "kconfig.solve", None),
    (repro.kconfig.solver, "defconfig", "kconfig.solve", None),
    (repro.kconfig.solver, "targeted_config", "kconfig.solve", None),
    (api.BuildSystem, "make_config", "kbuild.make_config", None),
    (api.BuildSystem, "make_i", "kbuild.make_i", None),
    (api.BuildSystem, "make_o", "kbuild.make_o", None),
    (Compiler, "preprocess", "cpp.preprocess", None),
    (Compiler, "compile_object", "cc.compile", None),
    (api.BuildCache, "get_preprocess", "buildcache.probe", None),
    (api.BuildCache, "get_object", "buildcache.probe", None),
    (api.BuildCache, "get_model", "buildcache.probe", None),
    (api.BuildCache, "get_config", "buildcache.probe", None),
    (api.BuildCache, "get_makefile", "buildcache.probe", None),
    (api.BuildCache, "put_preprocess", "buildcache.store", None),
    (api.BuildCache, "put_object", "buildcache.store", None),
    (api.BuildCache, "put_model", "buildcache.store", None),
    (api.BuildCache, "put_config", "buildcache.store", None),
    (api.BuildCache, "put_makefile", "buildcache.store", None),
    (api.BuildCache, "prime", "evalsuite.prime", None),
    (api.CheckService, "check_commits", "service.check_commits", None),
    (api.VerdictLedger, "emit", "journal.emit", _commit_arg(1)),
    (api.VerdictLedger, "checkpoint", "journal.checkpoint", None),
    (api.VerdictStore, "ingest_ledger", "store.ingest", None),
    (api.VerdictStore, "has", "store.has", _commit_arg(1)),
)

#: span names whose ``.calls`` and ``.s`` the layer table reports
COUNTED_SPANS = (
    "vcs.show", "vcs.commits_after", "core.archselect", "core.mutation",
    "kconfig.parse", "kconfig.solve", "cpp.preprocess", "cc.compile",
    "buildcache.probe", "buildcache.store",
    "service.check_commits", "journal.emit", "journal.checkpoint",
    "store.ingest", "store.has",
)

#: span names whose self time alone the layer table reports
TIMED_SPANS = ("janitors.identify", "core.check", "core.changes",
               "evalsuite.prime")

#: kbuild steps: a call count each, one self time together (``kbuild.s``)
KBUILD_SPANS = ("kbuild.make_config", "kbuild.make_i", "kbuild.make_o")

# span fields; a span is a list so its end and child time can be set
_NAME, _START, _END, _PARENT, _COMMIT, _CHILD_TIME, _INDEX = range(7)


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class Tracer:
    """In-memory spans around the layer functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._recording = False
        #: files handed to ``make_i`` while recording
        self.make_i_files = 0
        self.wall_s = 0.0
        self._substrate: list[dict] = []
        self._cache_stats: list = []

    def _wrap(self, name: str, function, commit_of):
        tracer = self
        counts_files = name == "kbuild.make_i"

        def traced(*args, **kwargs):
            if not tracer._recording or os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            commit = commit_of(args) if commit_of is not None else None
            if commit is None and parent is not None:
                commit = parent[_COMMIT]
            if counts_files:
                tracer.make_i_files += len(args[1])
            span = [name, time.perf_counter(), 0.0,
                    parent[_INDEX] if parent is not None else None,
                    commit, 0.0, len(tracer.spans)]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = time.perf_counter()
                if parent is not None:
                    parent[_CHILD_TIME] += span[_END] - span[_START]

        return traced

    def install(self) -> None:
        """Wrap every target; call once per process."""
        for owner, attribute, name, commit_of in SPAN_TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    setattr(owner, attribute, classmethod(self._wrap(
                        name, original.__func__, commit_of)))
                else:
                    setattr(owner, attribute,
                            self._wrap(name, original, commit_of))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, commit_of)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapper)

    def start(self, cache) -> None:
        """Begin recording; the timed call starts now."""
        self._substrate = [prepared.stats_snapshot()]
        self._cache_stats = [cache.stats_snapshot()] \
            if cache is not None else []
        self._recording = True

    def stop(self, wall_s: float, cache) -> None:
        """Stop recording; ``wall_s`` is the timed call's duration."""
        self._recording = False
        self.wall_s = wall_s
        self._substrate.append(prepared.stats_snapshot())
        if cache is not None:
            self._cache_stats.append(cache.stats_snapshot())

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[_INDEX], "name": span[_NAME],
                    "start": span[_START], "end": span[_END],
                    "parent": span[_PARENT],
                    "commit": span[_COMMIT]}) + "\n")

    def layer_metrics(self, cpu_util: "float | None") -> dict:
        """Per-layer counts and self times of the recorded spans.

        ``trace_overhead`` needs the untraced median, so the caller
        adds it.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            name = span[_NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + \
                (span[_END] - span[_START]) - span[_CHILD_TIME]
        metrics: dict[str, float] = {}
        for name in COUNTED_SPANS:
            metrics[name + ".calls"] = calls.get(name, 0)
            metrics[name + ".s"] = self_s.get(name, 0.0)
        for name in TIMED_SPANS:
            metrics[name + ".s"] = self_s.get(name, 0.0)
        for name in KBUILD_SPANS:
            metrics[name + ".calls"] = calls.get(name, 0)
        metrics["kbuild.s"] = sum(self_s.get(name, 0.0)
                                  for name in KBUILD_SPANS)
        make_i_calls = calls.get("kbuild.make_i", 0)
        metrics["kbuild.make_i.files_per_call"] = \
            self.make_i_files / make_i_calls if make_i_calls else 0.0
        begin, end = self._substrate
        for key, label in (("prepared", "cpp.prepared.hit_ratio"),
                           ("header_replay", "cpp.replay.hit_ratio")):
            metrics[label] = _ratio(
                end[key]["hits"] - begin[key]["hits"],
                end[key]["misses"] - begin[key]["misses"])
        delta = self._cache_stats[1].delta(self._cache_stats[0]) \
            if self._cache_stats else None
        for kind in ("preprocess", "object", "config"):
            counters = delta.kind(kind) if delta is not None else None
            metrics[f"buildcache.{kind}.hit_ratio"] = _ratio(
                counters.hits, counters.misses) if counters else 0.0
        metrics["evalsuite.cpu_util"] = cpu_util or 0.0
        metrics["unattributed.s"] = self.wall_s - sum(self_s.values())
        return metrics
