"""Fixtures for the check-service suite.

The corpora come from the session fixtures in ``tests/conftest.py``;
the fault storm is the same plan the fault-determinism suite uses, so
the differential tests pin service mode against exactly the reference
the sequential suite already trusts.

Transport hygiene lives here too. The socket transport holds real child
processes, so every fixture that crosses into a worker must stay
pickle-safe under the ``spawn`` start method (``spawn_safe_corpus``
proves it once per session), and every test must drain the service it
started — the autouse ``_no_leaked_transports`` check fails the test
that leaks a live transport or an orphaned worker process, naming it
instead of letting the leak poison whichever test runs next.
"""

import multiprocessing
import pickle

import pytest

from repro.core.changes import is_checkable
from repro.service.transport.base import live_transports
from repro.workload.corpus import Corpus

from tests.faults.conftest import storm_plan  # noqa: F401  (fixture)


@pytest.fixture(scope="session")
def checkable_commits(small_corpus):
    """The checkable commits of the shared small corpus, in order."""
    repository = small_corpus.repository
    commits = repository.log(since=Corpus.TAG_EVAL_START,
                             until=Corpus.TAG_EVAL_END)
    return [commit for commit in commits
            if is_checkable(repository, commit)]


@pytest.fixture(scope="session")
def spawn_safe_corpus(small_corpus):
    """The shared corpus, proven pickle-safe for spawned workers.

    Under the ``spawn`` start method the corpus crosses the process
    boundary as a ``multiprocessing.Process`` argument; a fixture that
    silently stopped pickling would make every spawn test hang on the
    HELLO timeout instead of failing fast. Round-tripping once per
    session pins the property where the failure is legible.
    """
    clone = pickle.loads(pickle.dumps(small_corpus))
    assert [c.id for c in clone.eval_window_commits()] == \
        [c.id for c in small_corpus.eval_window_commits()]
    assert clone.tree.files == small_corpus.tree.files
    return small_corpus


@pytest.fixture(autouse=True)
def _no_leaked_transports():
    """Leak check: every test drains the service it started.

    An undrained transport means live worker tasks — and for the socket
    transport, orphaned child processes that would outlive the test
    run. Asserting *after* each test attributes the leak to the test
    that caused it.
    """
    yield
    leaked = live_transports()
    assert not leaked, (
        f"test leaked {len(leaked)} undrained transport(s): "
        f"{[transport.kind for transport in leaked]} — "
        f"every started CheckService must be drained")
    orphans = multiprocessing.active_children()
    assert not orphans, (
        f"test leaked {len(orphans)} live worker process(es): "
        f"{[process.name for process in orphans]}")
