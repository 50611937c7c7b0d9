"""Fingerprints: content digests, environment keys, closure manifests.

A cached artifact is valid exactly when recomputing it would read the
same bytes. For the substrate that means three ingredients:

- the *blob digest* of the main source text;
- the *environment fingerprint* — architecture builtin macros, include
  search roots, the configuration's autoconf macro set, and the
  per-unit ``MODULE`` flag (everything the preprocessor is seeded with);
- the *closure manifest* — (path, digest) pairs for every file the
  original computation read, plus the include candidates it probed and
  found *absent* (so creating a file that would shadow an include
  search path invalidates the entry too).

Digest memoization is content-addressed: a bounded module-level LRU
maps each text to its digest, so re-hashing an unchanged file across
thousands of commits costs one dict lookup (CPython caches
``str.__hash__``, and unchanged files are usually the very same string
object), while mutated overlay texts age out instead of piling up in a
long-lived ``serve`` or ``watch`` process.

The environment is built once per distinct content
(:func:`compile_environment`): one record carries both the fingerprint
and the predefined-macro seed every preprocessing run of that
environment starts from.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from repro.cpp.macro import MacroSeed

FileProvider = Callable[[str], "str | None"]

#: manifest entries are (path, digest) pairs; absent files record the
#: sentinel below so "it did not exist" is part of the fingerprint.
Manifest = tuple[tuple[str, str], ...]

ABSENT = "<absent>"

#: bound on distinct texts whose digest is memoized
_DIGEST_MEMO_SIZE = 4096


@lru_cache(maxsize=_DIGEST_MEMO_SIZE)
def blob_digest(text: str) -> str:
    """Digest of one file's text (memoized by content, bounded LRU)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def clear_digest_memo() -> None:
    """Drop the memoized digests."""
    blob_digest.cache_clear()


def digest_of_items(items: Iterable[tuple[str, str]]) -> str:
    """Digest of an iterable of string pairs (order-sensitive)."""
    hasher = hashlib.sha256()
    for key, value in items:
        hasher.update(key.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(value.encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()[:16]


class CompileEnvironment(NamedTuple):
    """Everything that seeds one preprocessing run, built once.

    ``seed`` holds the architecture predefines, then the configuration's
    autoconf macros, then ``MODULE`` for a modular unit, as shared
    :class:`~repro.cpp.macro.Macro` objects. ``digest`` is the
    environment fingerprint build-cache entries are keyed by.
    """

    seed: MacroSeed
    digest: str


#: bound on distinct environments held
_ENVIRONMENT_MEMO_SIZE = 256

#: content key -> CompileEnvironment, LRU by access
_environments: "OrderedDict[tuple, CompileEnvironment]" = OrderedDict()


def compile_environment(architecture, config, *,
                        modular: bool) -> CompileEnvironment:
    """The shared environment record for this content.

    Keyed by content, never by object identity: a registry may hold
    architectures other than the shared defaults, and configurations
    come back from the build cache as fresh objects.
    """
    key = (architecture.name, architecture.bits,
           tuple(architecture.builtin_macros.items()),
           architecture.include_roots, config.content_digest(), modular)
    environment = _environments.get(key)
    if environment is not None:
        _environments.move_to_end(key)
        return environment
    predefines = architecture.predefines()
    autoconf = config.autoconf_macros()
    items: list[tuple[str, str]] = [("arch", architecture.name)]
    items.extend(("root", root) for root in architecture.include_roots)
    items.extend(sorted(predefines.items()))
    items.extend(sorted(autoconf.items()))
    seeded = dict(predefines)
    seeded.update(autoconf)
    if modular:
        items.append(("MODULE", "1"))
        seeded["MODULE"] = "1"
    environment = CompileEnvironment(MacroSeed(seeded),
                                     digest_of_items(items))
    _environments[key] = environment
    while len(_environments) > _ENVIRONMENT_MEMO_SIZE:
        _environments.popitem(last=False)
    return environment


def env_fingerprint(architecture, config, *, modular: bool) -> str:
    """Fingerprint of everything that seeds a preprocessing run.

    Covers the toolchain builtins (``__arch__`` predefines, word size),
    the ordered include roots, the configuration's autoconf macro set,
    and whether the unit is compiled as a module (``MODULE`` defined).
    Two configurations with identical macro sets fingerprint the same
    even under different names — a defconfig that happens to enable the
    same symbols as allyesconfig shares its cache entries.
    """
    return compile_environment(architecture, config,
                               modular=modular).digest


def manifest_for(paths: Iterable[str], provider: FileProvider,
                 *, absent: Iterable[str] = ()) -> Manifest:
    """Build the closure manifest for the given paths.

    ``paths`` are the files the computation read (main file first, then
    the transitive include closure); ``absent`` are include candidates
    probed and not found. Duplicates collapse to one entry.
    """
    entries: dict[str, str] = {}
    for path in paths:
        if path in entries:
            continue
        text = provider(path)
        entries[path] = ABSENT if text is None else blob_digest(text)
    for path in absent:
        entries.setdefault(path, ABSENT)
    return tuple(entries.items())


def manifest_valid(manifest: Manifest, provider: FileProvider) -> bool:
    """True when every manifest entry still matches the provider."""
    for path, digest in manifest:
        text = provider(path)
        if text is None:
            if digest != ABSENT:
                return False
        elif digest == ABSENT or blob_digest(text) != digest:
            return False
    return True


def manifest_digest(manifest: Manifest) -> str:
    """One digest summarizing a whole manifest (model identity keys)."""
    return digest_of_items(manifest)


class RecordingProvider:
    """Provider wrapper that records reads and missing probes.

    Used while parsing Kconfig models (and anywhere else a computation
    reads through a provider without reporting its closure) so the
    cache can build an exact manifest afterwards.
    """

    def __init__(self, provider: FileProvider) -> None:
        self._provider = provider
        self.read_paths: list[str] = []
        self.missing_paths: list[str] = []
        self._seen: set[str] = set()

    def __call__(self, path: str) -> "str | None":
        text = self._provider(path)
        if path not in self._seen:
            self._seen.add(path)
            if text is None:
                self.missing_paths.append(path)
            else:
                self.read_paths.append(path)
        return text

    def manifest(self) -> Manifest:
        """The manifest of everything read (and probed absent) so far."""
        return manifest_for(self.read_paths, self._provider,
                            absent=self.missing_paths)
