"""Corpus identity: the generated history is pinned byte for byte.

``build_corpus`` is the stand-in for the paper's git history, and every
verdict, journal key and store row is keyed by its commit ids. A change
to the generator (a scan, a tree snapshot, a file pick) that alters one
byte of any commit moves these digests, so it fails here rather than
only in the end-to-end benchmark's pinned verdicts.

A digest covers every commit id in apply order, the three tags, and
each commit's ground truth (author email, shape, and the path, edit
kind and hazard kind of every edit). The corpora are the end-to-end
benchmark's parts (seed 1 parts 0-2, seed 7 part 0) and the
``CorpusSpec()`` default. The synthetic traffic stream ``jmake watch
--source synthetic`` appends is pinned separately.
"""

import hashlib
import json

import pytest

from repro.api import SyntheticTrafficSource
from repro.vcs.repository import LogOptions
from repro.workload.corpus import Corpus, CorpusSpec, build_corpus

EVERY_COMMIT = LogOptions(ignore_whitespace=False, modifications_only=False,
                          no_merges=False)


def benchmark_part(seed: int, part: int) -> CorpusSpec:
    """The corpus of the end-to-end benchmark's seed and part."""
    return CorpusSpec(seed=f"e2ebench-{seed}-{part}", history_commits=200,
                      eval_commits=300, regular_developers=20)


def corpus_digest(corpus: Corpus) -> str:
    """sha256 over the commit ids, tags and ground-truth records."""
    hasher = hashlib.sha256()
    for commit in corpus.repository.log(options=EVERY_COMMIT):
        hasher.update(f"{commit.id}\n".encode())
    for tag in (Corpus.TAG_BASE, Corpus.TAG_EVAL_START, Corpus.TAG_EVAL_END):
        hasher.update(f"{tag} {corpus.repository.resolve(tag).id}\n".encode())
    for record in corpus.history_metadata + corpus.eval_metadata:
        edits = [[edit.path, edit.edit_kind,
                  edit.hazard_kind.value if edit.hazard_kind else None]
                 for edit in record.edits]
        hasher.update(json.dumps([record.commit_id, record.author.email,
                                  record.shape, edits]).encode() + b"\n")
    return hasher.hexdigest()


#: digests of the generator before its scans and snapshots were reused
PINNED = {
    "e2ebench-1-0": (
        benchmark_part(1, 0),
        "eeeec142445b597d213bd7e13322bf4a91b9a7291df2e430c95d36d6616b3d67"),
    "e2ebench-1-1": (
        benchmark_part(1, 1),
        "ff3530a05097fe1070f461774ade7edc9cabb417f6b10402010d98cb64e1af88"),
    "e2ebench-1-2": (
        benchmark_part(1, 2),
        "ca2b5bef7a8ebcc5ebb8f2cb87fa278f9e37edf24db015989ec1cd5e3ef0ac61"),
    "e2ebench-7-0": (
        benchmark_part(7, 0),
        "02abeb1b5aec349238d0438853523b36aa22bc0948d417cf838568c6495de52b"),
    "default": (
        CorpusSpec(),
        "0b59b1353ce0dc0083e8db227944009461e86b1eb4652c0665764778855c7387"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_corpus_digest_is_pinned(name):
    spec, expected = PINNED[name]
    assert corpus_digest(build_corpus(spec)) == expected


#: the traffic ``SyntheticTrafficSource`` appends to this corpus
TRAFFIC_SPEC = CorpusSpec(seed="t", history_commits=60, eval_commits=40,
                          regular_developers=10)
TRAFFIC = 12
#: pinned once the traffic started from the head's files (it started
#: from the base files before, and its first commit reverted history)
TRAFFIC_DIGEST = \
    "1bd94966d9e8a264cf0613a63786ad7e6e8937edfdb28ba3f8f0a6950cec4958"


def test_synthetic_traffic_digest_is_pinned():
    """The appended commits' ids and the paths each one changes."""
    corpus = build_corpus(TRAFFIC_SPEC)
    head = corpus.repository.head().id
    SyntheticTrafficSource(corpus, traffic=TRAFFIC).next_commits(TRAFFIC)
    appended = corpus.repository.commits_after(head, options=EVERY_COMMIT)
    assert len(appended) == TRAFFIC
    hasher = hashlib.sha256()
    for commit in appended:
        paths = corpus.repository.changed_paths(commit,
                                                ignore_whitespace=False)
        hasher.update(json.dumps([commit.id, list(paths)]).encode() + b"\n")
    assert hasher.hexdigest() == TRAFFIC_DIGEST
