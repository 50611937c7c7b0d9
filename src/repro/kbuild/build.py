"""The build orchestrator: configuration, preprocessing, compilation.

:class:`BuildSystem` binds a source-tree view (any ``path -> text | None``
provider, typically a :class:`repro.vcs.repository.Worktree`) to the
toolchain registry, a simulated clock, and the cost model. It exposes the
make targets JMake drives (§II-A):

- :meth:`BuildSystem.make_config` — ``make ARCH=<a> allyesconfig`` /
  ``allmodconfig`` / ``<name>_defconfig``, cached per (arch, target);
- :meth:`BuildSystem.make_i` — batched ``make f1.i f2.i …`` (§III-D
  groups up to 50 files per invocation to amortize make start-up);
- :meth:`BuildSystem.make_o` — individual ``make file.o``.

Buildability follows the kbuild chain: a source compiles only when its
own Makefile rule is enabled by the configuration *and* every ancestor
directory is pulled in by an enabled ``obj-… += subdir/`` rule. Files
under ``arch/<d>/`` build only for toolchains owning that directory.

Bootstrap files (§V-D): the kernel Makefile compiles a few tree files to
run *any* make target, so those files cannot be mutated; the tree marks
them and :meth:`BuildSystem.is_bootstrap` exposes the set.

When constructed with a :class:`~repro.buildcache.cache.BuildCache`,
every expensive artifact (parsed Kconfig models, solved configurations,
parsed Makefiles, ``.i`` results, ``.o`` outcomes) is first probed in the
shared content-addressed cache; under the default *replay* clock policy
a hit charges exactly the cost the uncached run would have charged, so
the simulated timeline — and thus every table and figure — is
byte-identical while the real Python work is skipped.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Callable

from repro.buildcache.cache import BuildCache
from repro.buildcache.fingerprint import (
    RecordingProvider,
    blob_digest,
    compile_environment,
    env_fingerprint,
)
from repro.cc.compiler import Compiler, ObjectFile
from repro.cc.toolchain import ToolchainRegistry, arch_directory
from repro.cpp.preprocessor import FileProvider, PreprocessResult
from repro.errors import (
    CompileError,
    KbuildError,
    KconfigError,
    MakefileNotFoundError,
    PreprocessorError,
)
from repro.faults.inject import NULL_INJECTOR
from repro.faults.plan import (
    KIND_COMPILE_TIMEOUT,
    KIND_CONFIG_FAIL,
    KIND_IO_ERROR,
    KIND_PREPROCESS_FLAKE,
    KIND_TRUNCATE_I,
    SITE_COMPILE,
    SITE_CONFIG,
    SITE_PREPROCESS,
)
from repro.faults.resilience import DEFAULT_RETRY_POLICY, Quarantine
from repro.kbuild.makefile import KbuildMakefile
from repro.kbuild.timing import CostModel
from repro.kconfig.configfile import Config
from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import (
    allmodconfig,
    allnoconfig,
    allyesconfig,
    defconfig,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.util.simclock import SimClock


class BuildError(KbuildError):
    """A make invocation failed; ``kind`` narrows the cause."""

    def __init__(self, message: str, kind: str) -> None:
        super().__init__(message)
        self.kind = kind


#: BuildError kinds injected fault kinds surface as after retries
_FAULT_ERROR_KINDS = {
    KIND_CONFIG_FAIL: "config_failed",
    KIND_PREPROCESS_FLAKE: "preprocess_flake",
    KIND_COMPILE_TIMEOUT: "timeout",
    KIND_IO_ERROR: "io_error",
}


@dataclass
class FileBuildResult:
    """Per-file outcome inside a batched ``make_i`` invocation."""

    path: str
    ok: bool
    i_text: str | None = None
    preprocess_result: PreprocessResult | None = None
    error: str | None = None
    error_kind: str | None = None  # no_makefile | no_rule | preprocess_failed
    #: True when the result came out of the shared build cache
    cached: bool = False


@dataclass
class MakeInvocation:
    """One recorded make run, with its simulated duration."""

    kind: str                 # "config" | "make_i" | "make_o"
    arch: str
    duration: float
    files: list[str] = field(default_factory=list)


#: Directories the top-level Makefile always descends into.
_TOP_LEVEL_DIRS = ("kernel", "mm", "fs", "drivers", "net", "sound", "lib",
                   "crypto", "block", "init", "security", "virt", "ipc")


class BuildSystem:
    """Configuration, preprocessing, and compilation orchestrator."""
    def __init__(self, provider: FileProvider,
                 registry: ToolchainRegistry | None = None,
                 clock: SimClock | None = None,
                 cost_model: CostModel | None = None,
                 bootstrap_paths: set[str] | None = None,
                 rebuild_trigger_paths: set[str] | None = None,
                 path_lister: "Callable[[], list[str]] | None" = None,
                 cache: BuildCache | None = None,
                 tracer=None, metrics=None,
                 injector=None, retry_policy=None,
                 quarantine: Quarantine | None = None) -> None:
        self._provider = provider
        self._path_lister = path_lister
        self.registry = registry or ToolchainRegistry()
        self.clock = clock or SimClock()
        #: span sink (NULL_TRACER when observability is off); spans only
        #: read the simulated clock, they never charge it
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.cost_model = cost_model or CostModel()
        self.cache = cache
        #: fault-injection hook consulted at every step boundary;
        #: NULL_INJECTOR (never fires) outside fault-plan runs
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.retry_policy = retry_policy if retry_policy is not None \
            else DEFAULT_RETRY_POLICY
        #: per-architecture circuit breaker; a BuildSystem lives for one
        #: patch, so quarantine state is naturally commit-scoped
        self.quarantine = quarantine if quarantine is not None \
            else Quarantine()
        self._bootstrap_paths = set(bootstrap_paths or ())
        self._rebuild_trigger_paths = set(rebuild_trigger_paths or ())
        self._config_cache: dict[tuple[str, str], Config] = {}
        self._model_cache: dict[str, ConfigModel] = {}
        self._model_digests: dict[str, str] = {}
        self._makefile_cache: dict[str, KbuildMakefile | None] = {}
        self._invocations_seen: set[tuple[str, str]] = set()
        self.invocations: list[MakeInvocation] = []

    # -- bootstrap files (§V-D) --------------------------------------------

    def is_bootstrap(self, path: str) -> bool:
        """True for files the Makefile compiles during setup (§V-D)."""
        return path in self._bootstrap_paths

    # -- fault injection and resilience --------------------------------------

    def _guard_step(self, site: str, arch_name: str, path: str = ""):
        """The fault gate every step passes through before real work.

        Raises ``BuildError(kind="quarantined")`` when the architecture
        is benched. Otherwise consults the injector: failing fault kinds
        are absorbed by a bounded retry loop — each doomed attempt
        charges its simulated cost (clamped by the step timeout), each
        retry charges exponential backoff under a ``retry`` span — until
        an attempt comes back clean or the budget is exhausted, at which
        point the persistent failure is recorded with the quarantine and
        raised as a :class:`BuildError`. Output-degrading kinds (e.g.
        ``truncate_i``) are returned for the caller to apply; they never
        fail the step.

        Runs before any cache probe, so the decision sequence — and
        therefore every verdict — is identical with the cache on or off.
        """
        if self.quarantine.is_quarantined(arch_name):
            raise BuildError(
                f"architecture {arch_name} is quarantined after persistent "
                f"{self.quarantine.reason(arch_name)} failures",
                kind="quarantined")
        if not self.injector.enabled:
            return None
        retries = 0
        while True:
            spec = self.injector.fire(site, arch=arch_name, path=path)
            if spec is None:
                return None
            self.metrics.counter("build.faults.injected").inc()
            self.metrics.counter(f"build.faults.{spec.kind}").inc()
            if spec.kind not in _FAULT_ERROR_KINDS:
                return spec  # degrades output instead of failing the step
            cost = self.retry_policy.clamp_attempt_seconds(
                spec.attempt_cost_seconds)
            if cost:
                self.clock.charge("fault", cost)
            if retries >= self.retry_policy.max_retries:
                self.quarantine.record(arch_name, site)
                raise BuildError(
                    f"injected {spec.kind} at {site} "
                    f"({path or arch_name}): {retries} retries exhausted",
                    kind=_FAULT_ERROR_KINDS[spec.kind])
            backoff = self.retry_policy.backoff_seconds(retries)
            with self.tracer.span("retry", site=site, arch=arch_name,
                                  path=path, attempt=retries + 1) as span:
                self.clock.charge("retry_backoff", backoff)
                span.set("backoff", backoff)
                span.set("fault_kind", spec.kind)
            self.metrics.counter("build.retries").inc()
            retries += 1

    def _check_step_timeout(self, site: str, arch_name: str, cost: float,
                            charge) -> None:
        """Fail a step whose simulated cost exceeds ``--step-timeout``.

        A cost-model timeout is deterministic, so no retry loop: the
        step burns the timeout budget and fails outright (config-site
        timeouts bench the architecture immediately).
        """
        timeout = self.retry_policy.step_timeout_seconds
        if timeout is None or cost <= timeout:
            return
        charge(timeout)
        self.metrics.counter("build.timeouts").inc()
        self.quarantine.record(arch_name, site)
        raise BuildError(
            f"{site} step for {arch_name} exceeded the "
            f"{timeout:g}s step timeout", kind="timeout")

    # -- configuration -------------------------------------------------------

    def config_model(self, arch_name: str) -> ConfigModel:
        """The parsed Kconfig model for an architecture (cached)."""
        directory = arch_directory(arch_name)
        if directory not in self._model_cache:
            kconfig_path = f"arch/{directory}/Kconfig"
            text = self._provider(kconfig_path)
            if text is None:
                kconfig_path = "Kconfig"
                text = self._provider(kconfig_path)
            if text is None:
                raise KconfigError(
                    f"no Kconfig found for architecture {arch_name}")
            if self.cache is not None:
                payload = self.cache.get_model(kconfig_path, text,
                                               self._provider)
                if payload is not None:
                    model, digest = payload
                else:
                    recording = RecordingProvider(self._provider)
                    recording(kconfig_path)  # root lands in the manifest
                    model = ConfigModel.from_kconfig(
                        text, path=kconfig_path, provider=recording)
                    digest = self.cache.put_model(kconfig_path, text,
                                                  recording, model)
                self._model_digests[directory] = digest
                self._model_cache[directory] = model
            else:
                self._model_cache[directory] = ConfigModel.from_kconfig(
                    text, path=kconfig_path, provider=self._provider)
        return self._model_cache[directory]

    def make_config(self, arch_name: str, target: str = "allyesconfig"
                    ) -> Config:
        """Create (or fetch cached) configuration for an architecture.

        ``target`` is ``allyesconfig``, ``allmodconfig``, or the name of
        a file in ``arch/<dir>/configs/`` (e.g. ``multi_defconfig``).
        """
        self.registry.get(arch_name)  # raises ToolchainError if broken
        key = (arch_name, target)
        if key in self._config_cache:
            return self._config_cache[key]
        with self.tracer.span("build.config", arch=arch_name,
                              target=target) as span:
            # Fault gate before the model cache probe below, so the
            # decision sequence is cache-invariant.
            self._guard_step(SITE_CONFIG, arch_name, path=target)
            model = self.config_model(arch_name)
            seed_text: str | None = None
            if target not in ("allyesconfig", "allmodconfig", "allnoconfig"):
                directory = arch_directory(arch_name)
                seed_path = f"arch/{directory}/configs/{target}"
                seed_text = self._provider(seed_path)
                if seed_text is None:
                    raise KconfigError(f"no such defconfig: {seed_path}")
            cost = self.cost_model.config_cost(arch_name, target, len(model))

            def _charge_timeout(amount: float) -> None:
                self.clock.charge("config", amount)
                span.set("sim_cost", amount)
                self.invocations.append(MakeInvocation(
                    kind="config", arch=arch_name, duration=amount,
                    files=[target]))

            self._check_step_timeout(SITE_CONFIG, arch_name, cost,
                                     _charge_timeout)

            config: Config | None = None
            model_digest = self._model_digests.get(arch_directory(arch_name))
            seed_digest = blob_digest(seed_text) \
                if seed_text is not None else ""
            if self.cache is not None and model_digest is not None:
                config = self.cache.get_config(model_digest, target,
                                               seed_digest)
            span.set("cached", config is not None)
            if config is not None:
                probe = self.cost_model.cache_probe_seconds
                counters = self.cache.stats.kind("config")
                counters.sim_seconds_saved += max(0.0, cost - probe)
                if self.cache.charge_probe_cost:
                    cost = probe
            else:
                if target == "allyesconfig":
                    config = allyesconfig(model)
                elif target == "allmodconfig":
                    config = allmodconfig(model)
                elif target == "allnoconfig":
                    config = allnoconfig(model)
                else:
                    config = defconfig(model, seed_text, name=target)
                if self.cache is not None and model_digest is not None:
                    self.cache.put_config(model_digest, target, config,
                                          seed_digest)
            self.clock.charge("config", cost)
            span.set("sim_cost", cost)
            self.invocations.append(MakeInvocation(
                kind="config", arch=arch_name, duration=cost,
                files=[target]))
        self.metrics.counter("build.config.invocations").inc()
        self._config_cache[key] = config
        return config

    def adopt_config(self, arch_name: str, config: Config) -> Config:
        """Register an externally built configuration (e.g. a targeted
        covering configuration), charging creation cost once."""
        self.registry.get(arch_name)
        key = (arch_name, config.name)
        if key in self._config_cache:
            return self._config_cache[key]
        cost = self.cost_model.config_cost(
            arch_name, config.name, len(self.config_model(arch_name)))
        self.clock.charge("config", cost)
        self.invocations.append(MakeInvocation(
            kind="config", arch=arch_name, duration=cost,
            files=[config.name]))
        self._config_cache[key] = config
        return config

    def gate_symbols(self, source_path: str) -> "set[str] | None":
        """Config symbols the kbuild chain requires to build the file.

        Returns None when no Makefile governs the path. Used by the
        targeted-configuration extension: a covering configuration must
        enable these on top of the block's own condition.
        """
        parts = source_path.split("/")
        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return None
        symbols: set[str] = set()
        rule = makefile.rule_for_source(parts[-1])
        if rule is not None and rule.condition is not None:
            symbols.add(rule.condition)
        if parts[0] == "arch":
            chain_root = f"arch/{parts[1]}" if len(parts) >= 3 else None
        else:
            chain_root = parts[0]
        directory = posixpath.dirname(source_path)
        while chain_root is not None and directory != chain_root:
            parent = posixpath.dirname(directory)
            parent_makefile = self.makefile_for_directory(parent)
            if parent_makefile is None:
                break
            subdir_name = posixpath.basename(directory) + "/"
            subdir_rule = next(
                (r for r in parent_makefile.subdir_rules()
                 if r.target == subdir_name), None)
            if subdir_rule is not None and \
                    subdir_rule.condition is not None:
                symbols.add(subdir_rule.condition)
            directory = parent
        return symbols

    def defconfig_names(self, arch_name: str) -> list[str]:
        """Files available under ``arch/<dir>/configs/``.

        Requires a ``path_lister`` (a plain provider cannot enumerate);
        without one, no defconfigs are discoverable, which degrades JMake
        to allyesconfig-only — the E-S1 ablation baseline.
        """
        if self._path_lister is None:
            return []
        directory = arch_directory(arch_name)
        prefix = f"arch/{directory}/configs/"
        return sorted(path[len(prefix):] for path in self._path_lister()
                      if path.startswith(prefix) and "/" not in
                      path[len(prefix):])

    # -- makefiles and buildability ------------------------------------------

    def makefile_for_directory(self, directory: str) -> KbuildMakefile | None:
        """The parsed Makefile of a directory, or None (cached)."""
        if directory in self._makefile_cache:
            return self._makefile_cache[directory]
        path = posixpath.join(directory, "Makefile") if directory \
            else "Makefile"
        text = self._provider(path)
        if text is None:
            parsed = None
        elif self.cache is not None:
            parsed = self.cache.get_makefile(path, text)
            if parsed is None:
                parsed = KbuildMakefile.parse(text, directory=directory)
                self.cache.put_makefile(path, text, parsed)
        else:
            parsed = KbuildMakefile.parse(text, directory=directory)
        self._makefile_cache[directory] = parsed
        return parsed

    def governing_makefile(self, source_path: str) -> KbuildMakefile:
        """The Makefile of the file's directory; raises if absent."""
        directory = posixpath.dirname(source_path)
        makefile = self.makefile_for_directory(directory)
        if makefile is None:
            raise MakefileNotFoundError(
                f"no Makefile governs {source_path}")
        return makefile

    def is_buildable(self, source_path: str, arch_name: str,
                     config: Config) -> bool:
        """Does ``make source.o`` have an enabled rule chain?"""
        parts = source_path.split("/")
        if parts[0] == "arch":
            if len(parts) < 3:
                return False
            if parts[1] != arch_directory(arch_name):
                return False
            chain_root = f"arch/{parts[1]}"
        elif parts[0] in _TOP_LEVEL_DIRS:
            chain_root = parts[0]
        else:
            return False

        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return False
        basename = parts[-1]
        if not makefile.source_is_enabled(basename, config):
            return False

        # Ancestor chain: every directory from the file's up to (but not
        # including) the chain root must be pulled in by its parent.
        directory = posixpath.dirname(source_path)
        while directory != chain_root:
            parent = posixpath.dirname(directory)
            parent_makefile = self.makefile_for_directory(parent)
            if parent_makefile is None:
                return False
            subdir_name = posixpath.basename(directory) + "/"
            rule = next((r for r in parent_makefile.subdir_rules()
                         if r.target == subdir_name), None)
            if rule is None:
                return False
            if rule.condition is not None and not config.enabled(rule.condition):
                return False
            directory = parent
        return True

    def is_modular(self, source_path: str, config: Config) -> bool:
        """True when the config builds the file as a module (=m)."""
        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return False
        return makefile.source_is_modular(
            posixpath.basename(source_path), config)

    # -- compilation -----------------------------------------------------------

    def _compiler(self, arch_name: str, config: Config,
                  *, modular_unit: bool) -> Compiler:
        architecture = self.registry.get(arch_name)
        environment = compile_environment(architecture, config,
                                          modular=modular_unit)
        return Compiler.for_environment(architecture, self._provider,
                                        environment.seed)

    def _env_digest(self, arch_name: str, config: Config,
                    *, modular: bool) -> str:
        return env_fingerprint(self.registry.get(arch_name), config,
                               modular=modular)

    def _cached_preprocess(self, path: str, compiler: Compiler,
                           env: str) -> tuple[PreprocessResult, bool]:
        """Probe/compute/store one ``.i`` result; (result, was_hit)."""
        text = self._provider(path)
        main_digest = blob_digest(text or "")
        cached = self.cache.get_preprocess(path, env, main_digest,
                                           self._provider)
        if cached is not None:
            self.cache.stats.kind("preprocess").bytes_saved += \
                len(cached.text)
            return cached, True
        result = compiler.preprocess(path)
        self.cache.put_preprocess(path, env, main_digest, self._provider,
                                  result)
        return result, False

    def make_i(self, paths: list[str], arch_name: str,
               config: Config) -> list[FileBuildResult]:
        """One batched preprocessing invocation over up to N files."""
        if not paths:
            return []
        with self.tracer.span("build.make_i", arch=arch_name,
                              config=config.name,
                              files=len(paths)) as span:
            results: list[FileBuildResult] = []
            sizes: list[tuple[str, int]] = []
            for path in paths:
                text = self._provider(path)
                sizes.append((path, len(text) if text else 0))
                with self.tracer.span("build.preprocess",
                                      path=path) as file_span:
                    result = self._make_one_i(path, arch_name, config)
                    file_span.set("ok", result.ok)
                    file_span.set("cached", result.cached)
                    if result.error_kind is not None:
                        file_span.set("error_kind", result.error_kind)
                results.append(result)
            first = (arch_name, config.name) not in self._invocations_seen
            self._invocations_seen.add((arch_name, config.name))
            cost = self.cost_model.i_cost(arch_name, sizes,
                                          first_invocation=first)
            hit_count = sum(1 for result in results if result.cached)
            if self.cache is not None and hit_count:
                # What a real ccache-backed make would have cost: a probe
                # per hit plus a normal invocation over the remaining
                # misses.
                probe_equivalent = hit_count * \
                    self.cost_model.cache_probe_seconds
                miss_sizes = [size for size, result in zip(sizes, results)
                              if not result.cached]
                if miss_sizes:
                    probe_equivalent += self.cost_model.i_cost(
                        arch_name, miss_sizes, first_invocation=first)
                self.cache.stats.kind("preprocess").sim_seconds_saved += \
                    max(0.0, cost - probe_equivalent)
                if self.cache.charge_probe_cost:
                    cost = min(cost, probe_equivalent)
            self.clock.charge("make_i", cost)
            span.set("sim_cost", cost)
            span.set("cache_hits", hit_count)
            self.invocations.append(MakeInvocation(
                kind="make_i", arch=arch_name, duration=cost,
                files=list(paths)))
        self.metrics.counter("build.make_i.invocations").inc()
        self.metrics.counter("build.make_i.files").inc(len(paths))
        self.metrics.histogram(
            "build.make_i.batch_size",
            buckets=(1, 2, 5, 10, 20, 50, 100)).observe(len(paths))
        return results

    def _make_one_i(self, path: str, arch_name: str,
                    config: Config) -> FileBuildResult:
        try:
            degrade = self._guard_step(SITE_PREPROCESS, arch_name, path=path)
        except BuildError as error:
            return FileBuildResult(path=path, ok=False, error=str(error),
                                   error_kind=error.kind)
        try:
            self.governing_makefile(path)
        except MakefileNotFoundError as error:
            return FileBuildResult(path=path, ok=False, error=str(error),
                                   error_kind="no_makefile")
        if not self.is_buildable(path, arch_name, config):
            return FileBuildResult(
                path=path, ok=False,
                error=f"no rule to make target '{path[:-2]}.i'",
                error_kind="no_rule")
        modular = self.is_modular(path, config)
        compiler = self._compiler(arch_name, config, modular_unit=modular)
        hit = False
        try:
            if self.cache is not None:
                env = self._env_digest(arch_name, config, modular=modular)
                preprocessed, hit = self._cached_preprocess(
                    path, compiler, env)
            else:
                preprocessed = compiler.preprocess(path)
        except PreprocessorError as error:
            return FileBuildResult(path=path, ok=False, error=str(error),
                                   error_kind="preprocess_failed")
        i_text = preprocessed.text
        if degrade is not None and degrade.kind == KIND_TRUNCATE_I:
            # A torn .i write: keep the first half, cut at a line
            # boundary. Only the grep view is degraded — the cached
            # PreprocessResult stays intact — and losing lines can only
            # lose tokens, so truncation can never credit a line the
            # compiler did not see.
            cut = i_text.rfind("\n", 0, len(i_text) // 2 + 1)
            i_text = i_text[:cut + 1] if cut >= 0 else ""
        return FileBuildResult(path=path, ok=True,
                               i_text=i_text,
                               preprocess_result=preprocessed,
                               cached=hit)

    def make_o(self, path: str, arch_name: str, config: Config) -> ObjectFile:
        """Individual ``make file.o``; raises :class:`BuildError`."""
        self.metrics.counter("build.make_o.invocations").inc()
        with self.tracer.span("build.make_o", arch=arch_name,
                              config=config.name, path=path) as span:
            # Fault gate before the object-cache probe in _make_o, so
            # the decision sequence is cache-invariant.
            self._guard_step(SITE_COMPILE, arch_name, path=path)
            return self._make_o(path, arch_name, config, span)

    def _make_o(self, path: str, arch_name: str, config: Config,
                span) -> ObjectFile:
        text = self._provider(path)
        size = len(text) if text else 0
        first = (arch_name, config.name) not in self._invocations_seen
        self._invocations_seen.add((arch_name, config.name))
        full_cost = self.cost_model.o_cost(
            arch_name, path, size, first_invocation=first,
            triggers_whole_kernel_rebuild=path in self._rebuild_trigger_paths)
        probe_clock = self.cache is not None and self.cache.charge_probe_cost
        charged = False

        def charge(amount: float) -> None:
            # Idempotent so the replay clock can charge up front (the
            # uncached ordering) while the probe clock defers until the
            # hit/miss outcome is known.
            nonlocal charged
            if charged:
                return
            charged = True
            self.clock.charge("make_o", amount)
            span.set("sim_cost", amount)
            self.invocations.append(MakeInvocation(
                kind="make_o", arch=arch_name, duration=amount, files=[path]))

        self._check_step_timeout(SITE_COMPILE, arch_name, full_cost, charge)
        if not probe_clock:
            charge(full_cost)
        try:
            self.governing_makefile(path)
        except MakefileNotFoundError as error:
            charge(full_cost)
            raise BuildError(str(error), kind="no_makefile") from error
        if not self.is_buildable(path, arch_name, config):
            charge(full_cost)
            raise BuildError(
                f"no rule to make target '{path[:-2]}.o'", kind="no_rule")
        modular = self.is_modular(path, config)
        compiler = self._compiler(arch_name, config, modular_unit=modular)
        if self.cache is None:
            try:
                return compiler.compile_object(path)
            except CompileError as error:
                raise BuildError(str(error),
                                 kind="compile_failed") from error

        env = self._env_digest(arch_name, config, modular=modular)
        main_digest = blob_digest(text or "")
        outcome = self.cache.get_object(path, env, main_digest,
                                        self._provider)
        if outcome is not None:
            span.set("cached", True)
            probe = self.cost_model.cache_probe_seconds
            counters = self.cache.stats.kind("object")
            counters.sim_seconds_saved += max(0.0, full_cost - probe)
            charge(probe if probe_clock else full_cost)
            status, payload = outcome
            if status == "ok":
                counters.bytes_saved += payload.size
                return payload
            raise BuildError(payload, kind="compile_failed")
        charge(full_cost)
        preprocessed: PreprocessResult | None = None
        try:
            preprocessed, _ = self._cached_preprocess(path, compiler, env)
        except PreprocessorError:
            # compile_object(path) below reproduces the exact uncached
            # failure; no closure exists so the outcome is not cached.
            preprocessed = None
        try:
            result = compiler.compile_object(path, preprocessed=preprocessed)
        except CompileError as error:
            if preprocessed is not None:
                self.cache.put_object(
                    path, env, main_digest, self._provider,
                    preprocessed.included_files,
                    preprocessed.missing_includes,
                    ("compile_failed", str(error)))
            raise BuildError(str(error), kind="compile_failed") from error
        if preprocessed is not None:
            self.cache.put_object(
                path, env, main_digest, self._provider,
                preprocessed.included_files, preprocessed.missing_includes,
                ("ok", result))
        return result
