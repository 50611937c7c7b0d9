"""Tests for developer activity metrics."""

import pytest

from repro.janitors.activity import ActivityAnalyzer, DeveloperActivity
from repro.kernel.maintainers import MaintainersDb, MaintainersEntry
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import Repository


def maintainers_db():
    return MaintainersDb([
        MaintainersEntry(name="SUBSYS A",
                         maintainers=["Alice <alice@x.org>"],
                         lists=["a@vger.kernel.org",
                                "linux-kernel@vger.kernel.org"],
                         file_patterns=["a/"]),
        MaintainersEntry(name="SUBSYS B",
                         maintainers=["Bob <bob@x.org>"],
                         lists=["b@vger.kernel.org"],
                         file_patterns=["b/"]),
    ])


@pytest.fixture
def history():
    repo = Repository()
    files = {"a/x.c": "int x;\n", "a/y.c": "int y;\n", "b/z.c": "int z;\n"}
    base = repo.commit(Tree(files), Signature(
        "Base", "base@x.org", "2011-01-01T00:00:00"), "base")
    repo.tag("start", base.id)

    def change(path, text, author, email, n):
        nonlocal files
        files = dict(files)
        files[path] = text
        return repo.commit(Tree(files), Signature(
            author, email, f"2012-01-{n:02d}T00:00:00"), f"change {n}")

    # Carol: breadth across both subsystems, uniform.
    change("a/x.c", "int x2;\n", "Carol", "carol@x.org", 1)
    change("a/y.c", "int y2;\n", "Carol", "carol@x.org", 2)
    change("b/z.c", "int z2;\n", "Carol", "carol@x.org", 3)
    # Bob: maintainer of b/, works only there, repeatedly on one file.
    change("b/z.c", "int z3;\n", "Bob", "bob@x.org", 4)
    change("b/z.c", "int z4;\n", "Bob", "bob@x.org", 5)
    repo.tag("end", repo.head().id)
    return repo


class TestAnalyzer:
    def test_patch_counts(self, history):
        analyzer = ActivityAnalyzer(history, maintainers_db())
        activities = analyzer.analyze()
        assert activities["carol@x.org"].patches == 3
        assert activities["bob@x.org"].patches == 2

    def test_subsystems_and_lists(self, history):
        analyzer = ActivityAnalyzer(history, maintainers_db())
        activities = analyzer.analyze()
        carol = activities["carol@x.org"]
        assert carol.subsystems == {"SUBSYS A", "SUBSYS B"}
        assert carol.lists == {"a@vger.kernel.org", "b@vger.kernel.org",
                               "linux-kernel@vger.kernel.org"}

    def test_maintainer_share(self, history):
        analyzer = ActivityAnalyzer(history, maintainers_db())
        activities = analyzer.analyze()
        assert activities["bob@x.org"].maintainer_share == 1.0
        assert activities["carol@x.org"].maintainer_share == 0.0

    def test_file_touches(self, history):
        analyzer = ActivityAnalyzer(history, maintainers_db())
        activities = analyzer.analyze()
        assert activities["bob@x.org"].file_touches == {"b/z.c": 2}
        assert activities["carol@x.org"].file_touches == {
            "a/x.c": 1, "a/y.c": 1, "b/z.c": 1}

    def test_window_restriction(self, history):
        analyzer = ActivityAnalyzer(history, maintainers_db())
        activities = analyzer.analyze(since="start", until="end")
        assert "base@x.org" not in activities


class TestCv:
    def test_uniform_is_zero(self):
        activity = DeveloperActivity("D", "d@x.org",
                                     file_touches={"a": 2, "b": 2, "c": 2})
        assert activity.file_cv == 0.0

    def test_skewed_is_positive(self):
        activity = DeveloperActivity("D", "d@x.org",
                                     file_touches={"a": 10, "b": 1, "c": 1})
        assert activity.file_cv > 1.0

    def test_empty_is_zero(self):
        assert DeveloperActivity("D", "d@x.org").file_cv == 0.0

    def test_known_value(self):
        # counts 1 and 3: mean 2, pop std 1 -> cv 0.5
        activity = DeveloperActivity("D", "d@x.org",
                                     file_touches={"a": 1, "b": 3})
        assert activity.file_cv == pytest.approx(0.5)

    def test_maintainer_share_zero_patches(self):
        assert DeveloperActivity("D", "d@x.org").maintainer_share == 0.0
