"""Content-addressed incremental build cache (the substrate's ccache).

The paper's evaluation re-preprocesses every candidate file's full
include closure for every one of thousands of commits, even though
consecutive worktrees differ by a handful of lines. This package
memoizes the expensive build steps — preprocessing (``make file.i``),
compilation (``make file.o``), Kconfig model parsing, configuration
solving, and Makefile parsing — across commits and across runs, keyed
by content fingerprints so a hit is provably equivalent to recomputing:

- :mod:`repro.buildcache.fingerprint` — blob/environment digests and
  include-closure manifests (source text + transitive includes +
  configuration macro set + architecture builtins);
- :mod:`repro.buildcache.stats` — hit/miss/evict telemetry per
  artifact kind, bytes saved, simulated seconds saved;
- :mod:`repro.buildcache.cache` — the store itself, with an LRU bound,
  pickle-backed persistence for cross-run reuse, and pre-fork priming
  for the parallel evaluation runner.
"""
