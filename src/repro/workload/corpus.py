"""The evaluation corpus bundle.

A :class:`Corpus` holds everything one experiment needs:

- the generated tree and its ground-truth metadata;
- a repository whose history spans two windows — a long *history*
  window (the paper's v3.0..v4.3, used for janitor identification) and
  the *evaluation* window (v4.3..v4.4, the commits JMake checks);
- per-commit ground truth (author persona, change shape, hazard kinds
  touched);
- the author roster.

``build_corpus`` is deterministic given the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.generator import GeneratedTree, KernelTreeGenerator
from repro.kernel.layout import TreeSpec, default_tree_spec
from repro.util.rng import DeterministicRng
from repro.vcs.objects import Signature, Tree
from repro.vcs.repository import Repository
from repro.workload.commits import CommitMetadata, CommitStreamGenerator
from repro.workload.personas import Persona, default_roster


@dataclass(frozen=True)
class CorpusSpec:
    """Scale and seed of one evaluation corpus."""
    seed: int | str = "jmake-corpus-v1"
    #: commits in the v3.0..v4.3 history window (janitor identification)
    history_commits: int = 1200
    #: commits in the v4.3..v4.4 evaluation window
    eval_commits: int = 400
    regular_developers: int = 40
    tree_spec: TreeSpec | None = None


@dataclass
class Corpus:
    """Tree + history + roster + ground truth bundle."""
    spec: CorpusSpec
    tree: GeneratedTree
    repository: Repository
    roster: list[Persona]
    history_metadata: list[CommitMetadata] = field(default_factory=list)
    eval_metadata: list[CommitMetadata] = field(default_factory=list)

    #: tag names bounding the windows
    TAG_BASE = "v3.0"
    TAG_EVAL_START = "v4.3"
    TAG_EVAL_END = "v4.4"

    def metadata_by_commit(self) -> dict[str, CommitMetadata]:
        """commit id -> ground-truth metadata."""
        merged: dict[str, CommitMetadata] = {}
        for record in self.history_metadata + self.eval_metadata:
            merged[record.commit_id] = record
        return merged

    def eval_window_commits(self):
        """Commits of the evaluation window, unfiltered."""
        return [self.repository.resolve(record.commit_id)
                for record in self.eval_metadata]


def build_corpus(spec: CorpusSpec | None = None) -> Corpus:
    """Deterministically build a corpus from its spec."""
    spec = spec or CorpusSpec()
    rng = DeterministicRng(spec.seed)
    tree_spec = spec.tree_spec or default_tree_spec(
        seed=f"{spec.seed}-tree")
    tree = KernelTreeGenerator(tree_spec).generate()
    roster = default_roster(
        list(tree_spec.subsystems),
        regular_developers=spec.regular_developers)

    repository = Repository()
    base = repository.commit(
        Tree(tree.files),
        Signature("Linus Torvalds", "torvalds@example.org",
                  "2011-07-21T00:00:00"),
        "Linux 3.0")
    repository.tag(Corpus.TAG_BASE, base.id)

    generator = CommitStreamGenerator(tree, roster, rng.fork("commits"))
    history = generator.generate(repository, spec.history_commits)
    repository.tag(Corpus.TAG_EVAL_START, repository.head().id)

    # Scripted rare populations (§V-C/D): roughly 2% of the window edits
    # a bootstrap file, plus a couple of whole-kernel-rebuild outliers.
    scripted: list[tuple[int, str]] = []
    bootstrap = sorted(tree.bootstrap_paths)
    triggers = sorted(path for path in tree.rebuild_triggers
                      if path in tree.files)
    bootstrap_count = max(1, spec.eval_commits // 50)
    for index in range(bootstrap_count):
        position = (index + 1) * spec.eval_commits // (bootstrap_count + 1)
        scripted.append((position, bootstrap[index % len(bootstrap)]))
    for index, trigger in enumerate(triggers):
        scripted.append((spec.eval_commits // 3 + index * 7, trigger))
    scripted.sort()

    eval_window: list = []
    script_rng = rng.fork("scripted")
    script_index = 0
    normal_total = max(0, spec.eval_commits - len(scripted))
    for produced in range(normal_total):
        while script_index < len(scripted) and \
                scripted[script_index][0] <= produced:
            persona = script_rng.choice(roster)
            eval_window.append(generator.scripted_edit(
                repository, persona, scripted[script_index][1]))
            script_index += 1
        eval_window.extend(generator.generate(repository, 1))
    while script_index < len(scripted):
        persona = script_rng.choice(roster)
        eval_window.append(generator.scripted_edit(
            repository, persona, scripted[script_index][1]))
        script_index += 1
    repository.tag(Corpus.TAG_EVAL_END, repository.head().id)

    return Corpus(spec=spec, tree=tree, repository=repository,
                  roster=roster, history_metadata=history,
                  eval_metadata=eval_window)
