"""Tests for patch stats and the authors of logged commits."""

from repro.vcs.diff import Patch, diff_texts
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import Repository


class TestPatchStats:
    def test_counts(self):
        old = "a\nb\nc\n"
        new = "a\nB\nc\nd\n"
        patch = Patch(files=[diff_texts("f.c", old, new,
                                        ignore_whitespace=False)])
        stats = patch.stats()
        assert stats.files_changed == 1
        assert stats.insertions == 2   # B and d
        assert stats.deletions == 1    # b

    def test_empty_patch(self):
        stats = Patch().stats()
        assert (stats.files_changed, stats.insertions,
                stats.deletions) == (0, 0, 0)

    def test_render(self):
        old, new = "a\n", "b\n"
        patch = Patch(files=[diff_texts("f.c", old, new)])
        assert "1 file(s) changed" in patch.stats().render()


class TestLogAuthors:
    def test_log_keeps_every_authors_commits(self):
        repo = Repository()
        files = {"a.c": "int a;\n"}
        repo.commit(Tree(files), Signature(
            "Base", "base@x.org", "2015-01-01T00:00:00"), "base")
        authors = [("Alice", "alice@x.org"), ("Bob", "bob@x.org"),
                   ("Alice", "alice@x.org")]
        for index, (name, email) in enumerate(authors):
            files = dict(files)
            files["a.c"] = f"int a{index};\n"
            repo.commit(Tree(files), Signature(
                name, email, f"2015-01-0{index + 2}T00:00:00"),
                f"change {index}")
        # the root commit has no parent to modify a file against
        assert [(commit.author.name, commit.author.email)
                for commit in repo.log()] == authors
