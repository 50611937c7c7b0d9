"""Session-scoped corpora shared across the pipeline-level test suites.

Corpus construction (synthetic history + kernel-like tree) is the
dominant fixture cost in the evalsuite, buildcache, obs and faults
tests, and several modules used to build near-identical corpora under
different seeds. The shared instances live here instead.

Sharing is safe because a built corpus is immutable from the runner's
point of view: every :class:`EvaluationSession` run checks commits out
into throwaway worktrees and never edits the repository or tree in
place (the session-scoped ``corpus`` in ``tests/evalsuite/conftest.py``
has relied on this from the start).
"""

import pytest

from repro.workload.corpus import CorpusSpec, build_corpus


@pytest.fixture(scope="session")
def small_corpus():
    """The standard pipeline-test corpus: 120 history / 60 eval commits.

    Used by the parallel-runner, observability and fault-injection
    suites; anything asserting cross-run invariants (jobs, cache,
    observe, faults) should run over this corpus so failures reproduce
    identically across suites.
    """
    return build_corpus(CorpusSpec(seed="shared-small",
                                   history_commits=120,
                                   eval_commits=60,
                                   regular_developers=8))


@pytest.fixture(scope="session")
def midsize_corpus():
    """A slightly larger corpus: 160 history / 80 eval commits.

    Big enough for warm-cache hit rates to stabilise above 90%, so the
    cache acceptance surface uses it.
    """
    return build_corpus(CorpusSpec(seed="shared-midsize",
                                   history_commits=160,
                                   eval_commits=80,
                                   regular_developers=10))
