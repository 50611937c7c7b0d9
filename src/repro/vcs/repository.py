"""Repository: history storage, log filtering, diffing, and worktrees.

Mirrors the git operations the paper's pipeline performs:

- ``git log -w --diff-filter=M --no-merges v4.3..v4.4`` →
  :meth:`Repository.log` with :class:`LogOptions`.
- ``git show <id>`` → :meth:`Repository.show`, and the files it
  lists → :meth:`Repository.changed_paths`.
- ``git reset --hard`` / ``git clean -dfx`` → :class:`Worktree`
  (:meth:`Worktree.reset_hard`, :meth:`Worktree.clean`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from repro.errors import VcsError
from repro.vcs.diff import (
    FileDiff,
    Patch,
    apply_file_diff,
    diff_texts,
    texts_differ,
)
from repro.vcs.objects import Commit, Signature, Tree


@dataclass
class LogOptions:
    """Filters equivalent to the paper's git log invocation (§V-A)."""

    ignore_whitespace: bool = True      # -w
    modifications_only: bool = True     # --diff-filter=M
    no_merges: bool = True              # --no-merges


class Repository:
    """An append-only commit store with a linear mainline plus merges."""

    def __init__(self) -> None:
        self._commits: dict[str, Commit] = {}
        self._order: list[str] = []   # commit ids in topological (apply) order
        self._position: dict[str, int] = {}   # commit id -> index in _order
        self._tags: dict[str, str] = {}
        # (commit id, ignore_whitespace) -> what changed_paths() and
        # show() returned
        self._changed: dict[tuple[str, bool], tuple[str, ...]] = {}
        self._patches: dict[tuple[str, bool], Patch] = {}

    def __getstate__(self) -> dict:
        # spawned transport workers receive whole corpora: ship only the
        # history and rebuild the index and memos on the other side
        state = self.__dict__.copy()
        del state["_position"], state["_changed"], state["_patches"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._position = {commit_id: index
                          for index, commit_id in enumerate(self._order)}
        self._changed = {}
        self._patches = {}

    # -- writing history -------------------------------------------------

    def commit(self, tree: Tree, author: Signature, message: str,
               parents: tuple[str, ...] | None = None) -> Commit:
        """Append a commit (parents default to the current head)."""
        if parents is None:
            parents = (self._order[-1],) if self._order else ()
        for parent in parents:
            if parent not in self._commits:
                raise VcsError(f"unknown parent commit: {parent}")
        commit = Commit(tree=tree, author=author, message=message,
                        parents=parents)
        commit_id = commit.id
        if commit_id in self._commits:
            raise VcsError(f"duplicate commit: {commit_id}")
        self._commits[commit_id] = commit
        self._position[commit_id] = len(self._order)
        self._order.append(commit_id)
        return commit

    def tag(self, name: str, commit_id: str) -> None:
        """Name a commit (v4.3-style refs)."""
        if commit_id not in self._commits:
            raise VcsError(f"cannot tag unknown commit: {commit_id}")
        self._tags[name] = commit_id

    # -- reading history ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def resolve(self, ref: str) -> Commit:
        """Resolve a tag name, full id, or unique id prefix."""
        if ref in self._tags:
            return self._commits[self._tags[ref]]
        if ref in self._commits:
            return self._commits[ref]
        matches = [cid for cid in self._commits if cid.startswith(ref)]
        if len(matches) == 1:
            return self._commits[matches[0]]
        if len(matches) > 1:
            raise VcsError(f"ambiguous ref: {ref}")
        raise VcsError(f"unknown ref: {ref}")

    def head(self) -> Commit:
        """The most recent commit."""
        if not self._order:
            raise VcsError("empty repository")
        return self._commits[self._order[-1]]

    def parent_tree(self, commit: Commit) -> Tree:
        """Tree of the first parent, or an empty tree for a root commit."""
        if not commit.parents:
            return Tree({})
        return self._commits[commit.parents[0]].tree

    def log(self, since: str | None = None, until: str | None = None,
            options: LogOptions | None = None) -> list[Commit]:
        """Commits in apply order within ``(since, until]``, filtered.

        ``--diff-filter=M`` keeps only commits whose diff against their
        first parent modifies at least one file that exists on both sides
        and differs (under ``-w`` whitespace-insensitivity when enabled).
        """
        start = self._position_after(since)
        end = None if until is None else self._position_after(until)
        return list(self._filtered(start, end, options))

    def _position_after(self, ref: str | None) -> int:
        """Index in apply order just past ``ref``; 0 when it is None."""
        if ref is None:
            return 0
        return self._position[self.resolve(ref).id] + 1

    def _filtered(self, start: int, end: int | None,
                  options: LogOptions | None) -> Iterator[Commit]:
        """Commits of ``_order[start:end]`` that pass the log filters."""
        options = options or LogOptions()
        for commit_id in islice(self._order, start, end):
            commit = self._commits[commit_id]
            if options.no_merges and commit.is_merge:
                continue
            if options.modifications_only and not self.changed_paths(
                    commit, options.ignore_whitespace):
                continue
            yield commit

    def commits_after(self, cursor: str | None = None,
                      options: LogOptions | None = None,
                      limit: int | None = None) -> list[Commit]:
        """The commit stream: filtered commits strictly after ``cursor``.

        This is the pull surface fleet mode's watch daemon consumes —
        call with the last commit you saw (or ``None`` for the
        beginning of history), get the next ``limit`` commits that pass
        the :class:`LogOptions` filters, remember the id of the last
        one as the next cursor. New commits appended to the repository
        between calls show up on the next pull, so a live stream and a
        fixed backlog are the same API.

        The walk stops at the ``limit``-th commit that passes, so a pull
        costs the commits it walks, not the whole remaining stream.
        """
        if limit is not None and limit < 1:
            raise VcsError(
                f"commits_after limit must be positive, got {limit!r}")
        stream = self._filtered(self._position_after(cursor), None, options)
        return list(islice(stream, limit))

    def changed_paths(self, commit: Commit | str,
                      ignore_whitespace: bool = True) -> tuple[str, ...]:
        """The paths :meth:`show` lists for a commit, without its hunks.

        These are the files that exist in both the parent and the
        commit tree and whose lines differ (modulo whitespace with
        ``ignore_whitespace``), in path order. Readers that need only
        which files changed (the ``--diff-filter=M`` test, the janitor
        analysis, the checkable filter) read them here, so a commit's
        hunks are built only by the check that reads them.

        Memoized per ``(commit id, ignore_whitespace)``, like ``show``.
        """
        if isinstance(commit, str):
            commit = self.resolve(commit)
        key = (commit.id, ignore_whitespace)
        paths = self._changed.get(key)
        if paths is None:
            paths = self._changed[key] = self._changed_paths(
                commit, ignore_whitespace)
        return paths

    def _changed_paths(self, commit: Commit,
                       ignore_whitespace: bool) -> tuple[str, ...]:
        """One walk of the two trees' path → text maps."""
        old_tree = self.parent_tree(commit)
        old_files = old_tree.items()
        changed = []
        # a (path, text) pair the parent tree holds too is unchanged;
        # what is left are added paths and edited texts
        for path, new_text in [item for item in commit.tree.items()
                               if item not in old_files]:
            old_text = old_tree.get(path)
            if old_text is not None and texts_differ(
                    old_text, new_text, ignore_whitespace=ignore_whitespace):
                changed.append(path)
        return tuple(changed)

    def show(self, commit: Commit | str,
             ignore_whitespace: bool = True) -> Patch:
        """The patch a commit applies relative to its first parent.

        Only *modified* files appear (``--diff-filter=M``): files that
        exist in both the parent and the commit tree with differing text.

        A commit's patch is a pure function of its content-addressed id,
        so each ``(commit id, ignore_whitespace)`` pair is diffed once
        and every later call returns the same :class:`Patch` object.
        That object is shared by every caller: read it, never mutate it.
        """
        if isinstance(commit, str):
            commit = self.resolve(commit)
        key = (commit.id, ignore_whitespace)
        patch = self._patches.get(key)
        if patch is None:
            patch = self._patches[key] = self._diff(commit, ignore_whitespace)
        return patch

    def _diff(self, commit: Commit, ignore_whitespace: bool) -> Patch:
        """Diff the paths :meth:`changed_paths` names, and no others."""
        old_tree = self.parent_tree(commit)
        new_tree = commit.tree
        return Patch([
            diff_texts(path, old_tree[path], new_tree[path],
                       ignore_whitespace=ignore_whitespace)
            for path in self.changed_paths(commit, ignore_whitespace)])

    def checkout(self, ref: str | Commit) -> "Worktree":
        """A mutable worktree over one commit."""
        commit = ref if isinstance(ref, Commit) else self.resolve(ref)
        return Worktree(repository=self, commit=commit)


@dataclass
class Worktree:
    """A mutable checkout of one commit, as JMake's mutation step needs.

    ``overlay`` holds files modified in place (mutated sources);
    ``untracked`` holds generated files (.i/.o equivalents). ``clean``
    drops untracked files (git clean -dfx) and ``reset_hard`` additionally
    drops the overlay (git reset --hard).
    """

    repository: Repository
    commit: Commit
    overlay: dict[str, str] = field(default_factory=dict)
    untracked: dict[str, str] = field(default_factory=dict)

    def read(self, path: str) -> str:
        """File text, overlay first; VcsError when absent."""
        text = self.as_file_provider()(path)
        if text is None:
            raise VcsError(f"no such file in worktree: {path}")
        return text

    def exists(self, path: str) -> bool:
        """True when the path is visible in the worktree."""
        return (path in self.overlay or path in self.untracked
                or path in self.commit.tree)

    def write(self, path: str, text: str) -> None:
        """Modify a tracked file in place (overlay write)."""
        if path not in self.commit.tree:
            raise VcsError(f"cannot overlay untracked path: {path}")
        self.overlay[path] = text

    def revert(self, path: str) -> None:
        """Drop one path's overlay, restoring the committed text."""
        self.overlay.pop(path, None)

    def write_untracked(self, path: str, text: str) -> None:
        """Record a generated file (dropped by clean)."""
        self.untracked[path] = text

    def apply_patch(self, patch: Patch) -> None:
        """Apply every file diff to the overlay."""
        for file_diff in patch.files:
            self.apply_file_diff(file_diff)

    def apply_file_diff(self, file_diff: FileDiff) -> None:
        """Apply one file diff to the overlay."""
        old_text = self.read(file_diff.path)
        self.write(file_diff.path, apply_file_diff(old_text, file_diff))

    def paths(self) -> list[str]:
        """Union of committed, overlaid, and untracked paths, sorted."""
        # write() overlays tracked paths only, so the overlay adds none
        if not self.untracked:
            return self.commit.tree.paths()
        return sorted(set(self.commit.tree.paths()).union(self.untracked))

    def committed_tree(self, prefix: str) -> Tree | None:
        """The commit's tree while every path under ``prefix`` reads as
        committed: neither the overlay nor the untracked files hold
        one. None otherwise."""
        for layer in (self.overlay, self.untracked):
            for path in layer:
                if path.startswith(prefix):
                    return None
        return self.commit.tree

    def clean(self) -> None:
        """git clean -dfx: drop generated (untracked) files."""
        self.untracked.clear()

    def reset_hard(self) -> None:
        """git reset --hard: drop overlay modifications too."""
        self.overlay.clear()
        self.untracked.clear()

    def as_file_provider(self):
        """A ``path -> text`` callable view for the preprocessor.

        It reads the overlay, then the untracked files, then the
        committed tree: one lookup per layer.
        """
        overlay = self.overlay.get
        untracked = self.untracked.get
        committed = self.commit.tree.get

        def provider(path: str) -> str | None:
            text = overlay(path)
            if text is None:
                text = untracked(path)
                if text is None:
                    text = committed(path)
            return text
        return provider
