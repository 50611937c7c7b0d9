"""The content-addressed artifact store.

One :class:`BuildCache` is shared by every :class:`~repro.kbuild.build.
BuildSystem` a run creates (one per patch), memoizing across commits:

- ``preprocess`` — :class:`~repro.cpp.preprocessor.PreprocessResult`
  per (file, environment, source blob), validated against the include
  closure manifest recorded when the entry was stored;
- ``object`` — ``make file.o`` outcomes (both the fake ``.o`` and
  compile failures), same keying;
- ``model`` — parsed Kconfig models per architecture directory;
- ``config`` — solved configurations per (model digest, target);
- ``makefile`` — parsed Kbuild Makefiles per (path, text digest).

Correctness is content-addressed: a probe only hits when every file the
original computation read (or probed and found absent) still has the
same digest, so a hit is bit-for-bit equivalent to recomputing. The
include-dependency graph makes per-commit maintenance incremental, and
an optional LRU bound keeps long windows from growing without limit.

Keys for mutable-content artifacts hold a short list of *variants*
(same source blob, different closure — e.g. an unchanged ``.c``
candidate preprocessed under successive mutated headers), probed
most-recent-first.

The store pickles to disk (:meth:`BuildCache.save` /
:meth:`BuildCache.load`) for cross-run reuse — the ``jmake evaluate
--cache-file`` flow.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.buildcache.depgraph import IncludeDependencyGraph
from repro.buildcache.fingerprint import (
    FileProvider,
    Manifest,
    RecordingProvider,
    blob_digest,
    manifest_digest,
    manifest_for,
    manifest_valid,
)
from repro.buildcache.stats import LOAD_ERRORS, CacheStats
from repro.faults.inject import NULL_INJECTOR
from repro.faults.plan import SITE_CACHE_LOAD, SITE_CACHE_STORE
from repro.obs.logcfg import get_logger

# v2: Token gained __slots__ and MacroTable drops its read recorder on
# pickling, so v1 stores (pre-slotted token payloads) must not be loaded
# v3: PreprocessResult lost its macros and emitted_lines fields, so v2
# payloads (which embed both) must not be loaded
_PICKLE_VERSION = 3

_logger = get_logger("buildcache")

#: clock policies: "replay" charges the full modeled cost on a hit so
#: simulated timings stay byte-identical to an uncached run (the work is
#: still skipped, which is where the wall-clock win comes from);
#: "probe" charges only the cache-probe cost, mirroring how a hit
#: behaves on real hardware (verdicts identical, timing figures shift).
CLOCK_REPLAY = "replay"
CLOCK_PROBE = "probe"


@dataclass(frozen=True)
class CachePolicy:
    """Tunables for one cache instance."""

    #: maximum number of keys held; None = unbounded
    max_entries: int | None = None
    #: closure variants kept per key (mutated-header churn)
    max_variants: int = 8
    #: CLOCK_REPLAY or CLOCK_PROBE (see module docstring)
    clock: str = CLOCK_REPLAY


@dataclass
class _Entry:
    """One stored artifact variant."""

    manifest: Manifest
    payload: Any = None


@dataclass
class _Slot:
    """All variants stored under one key, most recent first."""

    variants: list[_Entry] = field(default_factory=list)


class BuildCache:
    """Shared, content-addressed build artifact cache."""

    def __init__(self, policy: CachePolicy | None = None) -> None:
        self.policy = policy or CachePolicy()
        self.stats = CacheStats()
        self.graph = IncludeDependencyGraph()
        self._slots: "OrderedDict[tuple, _Slot]" = OrderedDict()
        #: fault-injection hook; an injected fault degrades a probe to a
        #: miss and a store to a no-op — corruption can cost time, never
        #: correctness, so cache-site faults cannot change any verdict
        self.injector = NULL_INJECTOR
        #: when True, CheckSession leaves ``injector`` alone — the check
        #: service pins one injector on the cache it shares across
        #: concurrent sessions, so per-request sessions cannot rebind it
        #: out from under each other
        self.injector_pinned = False

    def pin_injector(self, injector) -> None:
        """Bind ``injector`` and refuse later per-session rebinding."""
        self.injector = injector
        self.injector_pinned = True

    def __len__(self) -> int:
        return sum(len(slot.variants) for slot in self._slots.values())

    @property
    def charge_probe_cost(self) -> bool:
        """True under the probe clock policy."""
        return self.policy.clock == CLOCK_PROBE

    # -- generic store ------------------------------------------------------

    def _probe(self, kind: str, key: tuple,
               provider: FileProvider | None) -> "_Entry | None":
        counters = self.stats.kind(kind)
        if self.injector.fire(SITE_CACHE_LOAD, path=self._fault_path(key)) \
                is not None:
            # rotten entry / read error: degrade to a miss and recompute
            counters.misses += 1
            return None
        slot = self._slots.get(key)
        if slot is not None:
            for entry in slot.variants:
                if provider is None or manifest_valid(entry.manifest,
                                                      provider):
                    counters.hits += 1
                    self._slots.move_to_end(key)
                    return entry
        counters.misses += 1
        return None

    @staticmethod
    def _fault_path(key: tuple) -> str:
        """The artifact identity a fault plan's path filter sees."""
        return f"{key[0]}:{key[1]}" if len(key) > 1 else str(key[0])

    def _store(self, kind: str, key: tuple, manifest: Manifest,
               payload: Any) -> None:
        if self.injector.fire(SITE_CACHE_STORE, path=self._fault_path(key)) \
                is not None:
            # failed write: the entry is simply not persisted
            return
        slot = self._slots.get(key)
        if slot is None:
            slot = _Slot()
            self._slots[key] = slot
        # replace an identical-manifest variant instead of duplicating
        slot.variants = [entry for entry in slot.variants
                         if entry.manifest != manifest]
        slot.variants.insert(0, _Entry(manifest=manifest, payload=payload))
        counters = self.stats.kind(kind)
        while len(slot.variants) > self.policy.max_variants:
            slot.variants.pop()
            counters.evictions += 1
        self._slots.move_to_end(key)
        if self.policy.max_entries is not None:
            while len(self._slots) > self.policy.max_entries:
                _, evicted = self._slots.popitem(last=False)
                counters.evictions += len(evicted.variants)

    # -- preprocessing (.i) -------------------------------------------------

    def get_preprocess(self, path: str, env: str, main_digest: str,
                       provider: FileProvider):
        """A still-valid PreprocessResult, or None."""
        entry = self._probe("preprocess", ("preprocess", path, env,
                                           main_digest), provider)
        return entry.payload if entry is not None else None

    def put_preprocess(self, path: str, env: str, main_digest: str,
                       provider: FileProvider, result) -> None:
        """Store one preprocessing result with its closure manifest."""
        closure = [path, *result.included_files]
        manifest = manifest_for(closure, provider,
                                absent=result.missing_includes)
        self._store("preprocess", ("preprocess", path, env, main_digest),
                    manifest, result)
        self.graph.record(path, closure)

    # -- compilation (.o) ---------------------------------------------------

    def get_object(self, path: str, env: str, main_digest: str,
                   provider: FileProvider):
        """A still-valid compile outcome tuple, or None.

        Outcomes are ``("ok", ObjectFile)`` or
        ``("compile_failed", message)`` — failures are cached too, since
        recompiling a bad unit is as expensive as a good one.
        """
        entry = self._probe("object", ("object", path, env, main_digest),
                            provider)
        return entry.payload if entry is not None else None

    def put_object(self, path: str, env: str, main_digest: str,
                   provider: FileProvider, closure: Iterable[str],
                   missing: Iterable[str], outcome) -> None:
        """Store one compile outcome with its closure manifest."""
        closure = [path, *closure]
        manifest = manifest_for(closure, provider, absent=missing)
        self._store("object", ("object", path, env, main_digest),
                    manifest, outcome)
        self.graph.record(path, closure)

    # -- Kconfig models and solved configurations ---------------------------

    def get_model(self, root_path: str, root_text: str,
                  provider: FileProvider):
        """(model, model_digest) for a Kconfig root, or None."""
        key = ("model", root_path, blob_digest(root_text))
        entry = self._probe("model", key, provider)
        return entry.payload if entry is not None else None

    def put_model(self, root_path: str, root_text: str,
                  recording: RecordingProvider, model) -> str:
        """Store a parsed model; returns its identity digest.

        The identity digest covers the root *path* as well as the read
        closure: two architectures' Kconfig roots can source the very
        same tree files, and their models (hence their solved
        configurations) must never be conflated.
        """
        manifest = recording.manifest()
        digest = manifest_digest((("model-root", root_path), *manifest))
        key = ("model", root_path, blob_digest(root_text))
        self._store("model", key, manifest, (model, digest))
        return digest

    def get_config(self, model_digest: str, target: str,
                   seed_digest: str = ""):
        """A solved configuration for (model, target), or None."""
        entry = self._probe("config", ("config", model_digest, target,
                                       seed_digest), None)
        return entry.payload if entry is not None else None

    def put_config(self, model_digest: str, target: str, config,
                   seed_digest: str = "") -> None:
        """Store one solved configuration."""
        self._store("config", ("config", model_digest, target, seed_digest),
                    (), config)

    # -- Makefiles ----------------------------------------------------------

    def get_makefile(self, path: str, text: str):
        """A parsed Kbuild Makefile for (path, text), or None."""
        entry = self._probe("makefile", ("makefile", path,
                                         blob_digest(text)), None)
        return entry.payload if entry is not None else None

    def put_makefile(self, path: str, text: str, parsed) -> None:
        """Store one parsed Makefile (content-addressed, no manifest)."""
        self._store("makefile", ("makefile", path, blob_digest(text)),
                    (), parsed)

    # -- per-commit maintenance ---------------------------------------------

    def on_commit(self, changed_paths: Iterable[str]) -> set[str]:
        """Apply one commit's diff to the dependency graph.

        Incrementally perturbs exactly the sources whose recorded
        include closure intersects the diff (no per-worktree closure
        recomputation) and counts them as invalidations. Entries are
        *not* dropped — their manifests no longer match the new tree,
        so probes against it miss, but the entries revive verbatim when
        the same content reappears (a replayed window, a revert, a
        warm second run).
        """
        dependents = self.graph.note_changed(changed_paths)
        self.stats.kind("preprocess").invalidations += len(dependents)
        return dependents

    # -- priming and persistence --------------------------------------------

    def prime(self, tree, registry, *, use_allmodconfig: bool = False) -> None:
        """Pre-solve Kconfig models and all*config per architecture.

        Called by a remote transport's coordinator before it spawns
        workers, so every worker starts from the solved configurations
        (copy-on-write under ``fork``) instead of re-solving them.
        """
        from repro.errors import KconfigError, ToolchainError
        from repro.kconfig.model import ConfigModel
        from repro.kconfig.solver import allmodconfig, allyesconfig

        provider = tree.files.get
        seen_roots: set[str] = set()
        for name in registry.working_names():
            try:
                architecture = registry.get(name)
            except ToolchainError:  # pragma: no cover - working_names only
                continue
            root_path = f"arch/{architecture.directory}/Kconfig"
            root_text = provider(root_path)
            if root_text is None:
                root_path = "Kconfig"
                root_text = provider(root_path)
            if root_text is None or root_path in seen_roots:
                continue
            seen_roots.add(root_path)
            if self.get_model(root_path, root_text, provider) is not None:
                continue
            recording = RecordingProvider(provider)
            recording(root_path)  # the root belongs in the manifest
            try:
                model = ConfigModel.from_kconfig(
                    root_text, path=root_path, provider=recording)
            except KconfigError:
                continue
            digest = self.put_model(root_path, root_text, recording, model)
            targets = ["allyesconfig"]
            if use_allmodconfig:
                targets.append("allmodconfig")
            for target in targets:
                if self.get_config(digest, target) is None:
                    solver = allmodconfig if target == "allmodconfig" \
                        else allyesconfig
                    self.put_config(digest, target, solver(model))

    def _note_load_error(self, path: str, reason: str) -> None:
        """Count and log one failed persistent-cache load."""
        self.stats.registry.counter(LOAD_ERRORS).inc()
        _logger.warning(
            "build cache load failed, starting empty: path=%s reason=%s",
            path, reason)

    def stats_snapshot(self) -> CacheStats:
        """An independent copy of the counters."""
        return self.stats.copy()

    def save(self, path: str) -> None:
        """Pickle the store (entries + graph, not stats) to disk.

        The pickle lands via temp-file + fsync + ``os.replace``, so a
        crash mid-save leaves the previous cache file intact instead of
        a torn pickle (which the next :meth:`load` would discard as
        corrupt, silently dropping the warm state).
        """
        from repro.util.atomicio import atomic_write_bytes

        if self.injector.fire(SITE_CACHE_STORE, path=path) is not None:
            _logger.warning(
                "build cache save failed (injected fault): path=%s", path)
            return
        payload = {
            "version": _PICKLE_VERSION,
            "policy": self.policy,
            "slots": self._slots,
            "graph": self.graph,
        }
        atomic_write_bytes(
            path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    @classmethod
    def load(cls, path: str, policy: CachePolicy | None = None,
             injector=None) -> "BuildCache":
        """Unpickle a store; a fresh cache on any mismatch or error.

        A missing file is the normal first-run case and stays quiet; a
        present-but-unreadable file is counted in the
        ``cache.load_errors`` instrument and logged as a structured
        warning so a persistent cache silently rotting is visible.
        ``injector`` lets a fault plan rot the pickle (``cache_corrupt``
        at ``cache_load``), exercising exactly that recovery path.
        """
        cache = cls(policy)
        if injector is not None:
            cache.injector = injector
            if injector.fire(SITE_CACHE_LOAD, path=path) is not None:
                cache._note_load_error(path, "injected cache corruption")
                return cache
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            _logger.debug("no build cache at %s; starting empty", path)
            return cache
        # pickle surfaces corrupt bytes as whatever the misread opcodes
        # raise (ValueError, KeyError, ...), not just UnpicklingError
        except Exception as error:
            cache._note_load_error(path, f"{type(error).__name__}: {error}")
            return cache
        if not isinstance(payload, dict) or \
                payload.get("version") != _PICKLE_VERSION:
            version = payload.get("version") if isinstance(payload, dict) \
                else None
            cache._note_load_error(
                path, f"incompatible payload (version={version!r}, "
                      f"expected {_PICKLE_VERSION})")
            return cache
        cache._slots = payload["slots"]
        cache.graph = payload["graph"]
        if policy is None and isinstance(payload.get("policy"), CachePolicy):
            cache.policy = payload["policy"]
        return cache
