"""Architecture and configuration selection heuristics (§III-C).

Candidate order for a file:

1. a file under ``arch/<d>/`` is assumed compilable by the
   cross-compilers owning that directory;
2. otherwise the *host* architecture first — a plain ``make``
   (CONFIG_COMPILE_TEST spirit);
3. then the Makefile heuristic: collect the ``CONFIG_*`` variables tied
   to the file's object (directly, through composite labels, or — when
   nothing matches — any variable in the Makefile); any architecture
   whose ``arch/<d>/`` subtree mentions one of those variables becomes a
   candidate with ``allyesconfig``;
4. if such a variable appears in files under ``arch/<d>/configs/``, one
   of those defconfig files (chosen deterministically at random) is
   additionally used.

Unsupported (broken-toolchain) candidates are reported so JMake can emit
the "unsupported architecture required" verdict.

Steps 3 and 4 answer from an index of the arch/ files built once per
distinct arch/ content (:func:`_arch_index`), not from a regex scan of
every arch/ file per variable: the arch/ subtree rarely changes between
commits, while the variables differ for every selected file.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple
from repro.errors import MakefileNotFoundError
from repro.kbuild.build import BuildSystem
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.util.rng import DeterministicRng


#: ``v`` matches ``\bCONFIG_<v>\b`` exactly when it is the whole word
#: run after some ``\bCONFIG_`` (variables are ``[A-Za-z0-9_]+``).
_MENTION_RE = re.compile(r"\bCONFIG_(\w+)")
#: ``CONFIG_<v>=`` is a substring exactly when some ``CONFIG_``
#: occurrence, overlaps included, is followed by the run ``v`` and ``=``.
_ASSIGN_RE = re.compile(r"(?=CONFIG_([A-Za-z0-9_]+)=)")
_DEFINE_PREFIX = "config "


class _TextFacts(NamedTuple):
    """What one arch/ file text says about config variables."""
    mentions: frozenset[str]  # v with \bCONFIG_<v>\b in the text
    defines: frozenset[str]   # v with a line equal to "config <v>"
    assigns: frozenset[str]   # v with "CONFIG_<v>=" in the text


@lru_cache(maxsize=2048)
def _text_facts(text: str) -> _TextFacts:
    """Scan one arch/ file text, once per distinct content."""
    return _TextFacts(
        mentions=frozenset(_MENTION_RE.findall(text)),
        defines=frozenset(line[len(_DEFINE_PREFIX):]
                          for line in text.split("\n")
                          if line.startswith(_DEFINE_PREFIX)),
        assigns=frozenset(_ASSIGN_RE.findall(text)))


class _ArchIndex(NamedTuple):
    """Variable lookups over one arch/ content."""
    #: variable -> arch/ subdirectories mentioning it, sorted
    dirs: Mapping[str, tuple[str, ...]]
    #: variable -> arch/**/configs/ files assigning it, in path order
    configs: Mapping[str, tuple[str, ...]]


@lru_cache(maxsize=16)
def _arch_index(files: tuple[tuple[str, str], ...]) -> _ArchIndex:
    """Index the ``(path, text)`` pairs of every arch/<d>/ file.

    Keyed by content, so a commit or an overlay that changes an arch/
    file looks up a different entry; only its changed texts are
    rescanned.
    """
    dirs: dict[str, set[str]] = {}
    configs: dict[str, list[str]] = {}
    for path, text in files:
        facts = _text_facts(text)
        names = facts.mentions
        if path.endswith("Kconfig"):
            names = names | facts.defines
        directory = path.split("/", 2)[1]
        for name in names:
            dirs.setdefault(name, set()).add(directory)
        if "/configs/" in path:
            for name in facts.assigns:
                configs.setdefault(name, []).append(path)
    return _ArchIndex(
        dirs=MappingProxyType({name: tuple(sorted(found))
                               for name, found in dirs.items()}),
        configs=MappingProxyType({name: tuple(paths)
                                  for name, paths in configs.items()}))


@dataclass(frozen=True)
class Candidate:
    """One (architecture, config target) to try, in order."""

    arch: str
    config_target: str = "allyesconfig"

    def __str__(self) -> str:
        return f"{self.arch}/{self.config_target}"


@dataclass
class ArchSelection:
    """Ordered candidates plus unsupported/no-Makefile findings."""
    candidates: list[Candidate] = field(default_factory=list)
    #: architectures that looked relevant but have no working toolchain
    unsupported: list[str] = field(default_factory=list)
    no_makefile: bool = False


class ArchSelector:
    """Implements the §III-C candidate-selection heuristics.

    ``path_lister`` returns the tree's paths sorted, as
    :meth:`Worktree.paths` does; ``provider`` reads one file's text.
    """
    def __init__(self, build_system: BuildSystem,
                 path_lister: Callable[[], list[str]],
                 provider: Callable[[str], "str | None"],
                 rng: DeterministicRng | None = None,
                 use_configs: bool = True,
                 tracer=None, metrics=None) -> None:
        self._build = build_system
        self._paths = path_lister
        self._provider = provider
        self._rng = rng or DeterministicRng("archselect")
        self._use_configs = use_configs
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._index: _ArchIndex | None = None

    # -- public ------------------------------------------------------------

    def select(self, source_path: str) -> ArchSelection:
        """Candidate (architecture, config) list for one source file."""
        self._metrics.counter("arch.selections").inc()
        with self._tracer.span("arch.select", path=source_path) as span:
            selection = self._select(source_path)
            span.set("candidates", len(selection.candidates))
            if selection.unsupported:
                span.set("unsupported", ",".join(selection.unsupported))
            if selection.no_makefile:
                span.set("no_makefile", True)
            return selection

    def _select(self, source_path: str) -> ArchSelection:
        selection = ArchSelection()
        parts = source_path.split("/")
        registry = self._build.registry

        if parts[0] == "arch" and len(parts) >= 3:
            directory = parts[1]
            owners = registry.for_directory(directory)
            if owners:
                for architecture in owners:
                    self._add(selection, Candidate(architecture.name))
            else:
                selection.unsupported.append(directory)
            return selection

        try:
            self._build.governing_makefile(source_path)
        except MakefileNotFoundError:
            selection.no_makefile = True
            return selection

        # 1. plain make on the host.
        self._add(selection, Candidate(registry.host.name))

        # 2. Makefile config-variable hints -> architectures.
        makefile = self._build.governing_makefile(source_path)
        variables = makefile.config_vars_for_object(parts[-1])
        for variable in variables:
            for directory in self._arch_dirs_mentioning(variable):
                architectures = registry.for_directory(directory)
                if not architectures:
                    if directory not in selection.unsupported:
                        selection.unsupported.append(directory)
                    continue
                for architecture in architectures:
                    self._add(selection, Candidate(architecture.name))

        # 3. defconfig files mentioning a variable: pick one at random.
        if self._use_configs:
            for variable in variables:
                config_paths = self._config_files_mentioning(variable)
                if not config_paths:
                    continue
                chosen = self._rng.choice(sorted(config_paths))
                arch_dir = chosen.split("/")[1]
                architectures = registry.for_directory(arch_dir)
                if architectures:
                    self._add(selection, Candidate(
                        architectures[0].name,
                        config_target=chosen.rsplit("/", 1)[-1]))
        return selection

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _add(selection: ArchSelection, candidate: Candidate) -> None:
        if candidate not in selection.candidates:
            selection.candidates.append(candidate)

    def _mention_index(self) -> _ArchIndex:
        """The index of this check's arch/ files, each read once."""
        if self._index is None:
            paths = self._paths()
            # sorted paths put arch/ in one slice: "0" follows "/"
            start = bisect_left(paths, "arch/")
            stop = bisect_left(paths, "arch0", start)
            provider = self._provider
            files = []
            for path in paths[start:stop]:
                if path.count("/") >= 2:
                    text = provider(path)
                    if text is not None:
                        files.append((path, text))
            self._index = _arch_index(tuple(files))
        return self._index

    def _arch_dirs_mentioning(self, variable: str) -> list[str]:
        """arch/ subdirectories whose files mention CONFIG_<variable>."""
        return list(self._mention_index().dirs.get(variable, ()))

    def _config_files_mentioning(self, variable: str) -> list[str]:
        """arch/**/configs/ files assigning CONFIG_<variable>=."""
        return list(self._mention_index().configs.get(variable, ()))
