"""A module-scoped evaluation run shared by the evalsuite tests."""

import pytest

from repro.evalsuite.runner import EvaluationSession
from repro.workload.corpus import CorpusSpec, build_corpus

from tests.faults.conftest import storm_plan  # noqa: F401  (fixture)


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(CorpusSpec(seed="evalsuite-tests",
                                   history_commits=400,
                                   eval_commits=260,
                                   regular_developers=14))


@pytest.fixture(scope="session")
def result(corpus):
    return EvaluationSession(corpus).run()
