"""Reference verdicts and ground truth for every commit of one corpus.

The reference pipeline checks each stream commit with the cpp fast path
off (``repro.cpp.prepared.fastpath_disabled()``), no build cache, and
sequential ``CheckSession.check_commit`` calls. Its commits are the
watch stream (``Repository.commits_after`` from the evaluation tag),
which contains every commit any workload checks; ``window`` marks the
ones the §V window filter keeps.

``hazard`` marks commits whose edits touch a ``NEVER_SET``, ``IF_ZERO``
or ``UNUSED_MACRO`` block: no workload may report those ``CERTIFIED``.
"""

from __future__ import annotations

from repro.api import (
    CheckSession,
    Corpus,
    HazardKind,
    build_corpus,
    extract_changed_files,
)
from repro.cpp.prepared import fastpath_disabled

from workloads import corpus_spec, fingerprint_record

#: hazard blocks no configuration can compile
UNCOMPILABLE = {HazardKind.NEVER_SET, HazardKind.IF_ZERO,
                HazardKind.UNUSED_MACRO}


def compute_shard(seed: int, part: int, index: int, count: int) -> dict:
    """Reference entries for every ``count``-th stream commit."""
    corpus = build_corpus(corpus_spec(seed, part))
    repository = corpus.repository
    metadata = corpus.metadata_by_commit()
    stream = repository.commits_after(Corpus.TAG_EVAL_START)
    session = CheckSession.from_generated_tree(corpus.tree, cache=None)
    entries = {}
    with fastpath_disabled():
        for commit in stream[index::count]:
            report = session.check_commit(repository, commit)
            truth = metadata.get(commit.id)
            entries[commit.id] = {
                "fingerprint": fingerprint_record(report.to_dict()),
                "window": bool(extract_changed_files(
                    repository.show(commit))),
                "hazard": truth is not None and bool(
                    UNCOMPILABLE.intersection(truth.hazard_kinds())),
            }
    return entries
