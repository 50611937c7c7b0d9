"""Content-addressed objects: trees and commits.

A :class:`Tree` is an immutable mapping from repository-relative paths to
file text. A :class:`Commit` snapshots one tree together with authorship
metadata and parent links, exactly the information the evaluation pipeline
needs from ``git log`` (author identity for janitor analysis, parent count
for ``--no-merges``, tree pairs for diffing).

Identifiers are hex SHA-256 prefixes, so ``commit.id[:12]`` behaves like
an abbreviated git hash in reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Callable, ItemsView, Iterator, Mapping, TypeVar

_T = TypeVar("_T")


@dataclass(frozen=True)
class Signature:
    """Author or committer identity."""

    name: str
    email: str
    date: str  # ISO-8601; the corpus generator stamps these deterministically

    def __str__(self) -> str:
        return f"{self.name} <{self.email}>"


def _check_path(path: str) -> None:
    """Refuse an absolute path or one that climbs out of the tree."""
    if path.startswith("/") or ".." in path.split("/"):
        raise ValueError(f"invalid tree path: {path!r}")


class Tree:
    """An immutable snapshot of the source tree.

    Files are held in path order, so listing or iterating the paths
    never sorts them again. A tree made by :meth:`with_files` remembers
    its base tree and the paths it updated (its lineage), so a value
    derived from one subtree can be carried to descendants that left
    that subtree alone (:meth:`carried`).
    """

    def __init__(self, files: Mapping[str, str]) -> None:
        for path in files:
            _check_path(path)
        self._files: Mapping[str, str] = MappingProxyType(
            dict(sorted(files.items())))
        self._id: str | None = None
        self._base: Tree | None = None
        self._updated: tuple[str, ...] = ()
        self._carried: dict[str, object] | None = None

    def __getstate__(self) -> dict:
        # mappingproxy objects refuse to pickle; spawned transport
        # workers receive whole corpora, so serialize the plain dict
        # and restore the read-only view on load. The lineage and the
        # values carried along it stay behind: a loaded tree is a root.
        return {"files": dict(self._files), "id": self._id}

    def __setstate__(self, state: dict) -> None:
        self._files = MappingProxyType(dict(sorted(state["files"].items())))
        self._id = state["id"]
        self._base = None
        self._updated = ()
        self._carried = None

    @property
    def id(self) -> str:
        """Content hash of the whole snapshot."""
        if self._id is None:
            # "path\0text\0" per file in path order, hashed in one call;
            # the trailing "" ends the last text with its "\0"
            stream = "\0".join([*chain.from_iterable(self._files.items()),
                                 ""])
            self._id = hashlib.sha256(stream.encode("utf-8")).hexdigest()
        return self._id

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def __getitem__(self, path: str) -> str:
        return self._files[path]

    def get(self, path: str, default: str | None = None) -> str | None:
        """File text or a default."""
        return self._files.get(path, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)

    def paths(self) -> list[str]:
        """Sorted file paths."""
        return list(self._files)

    def items(self) -> ItemsView[str, str]:
        """``(path, text)`` pairs in path order; ``(path, text) in``
        this view is one lookup."""
        return self._files.items()

    def with_files(self, updates: Mapping[str, str]) -> "Tree":
        """Return a new tree with the given files replaced or added.

        Only the paths this tree lacks are validated, and the paths are
        sorted again only when one is added. The new tree's lineage
        names this tree and the paths whose text differs from it.
        """
        files = self._files
        updated = tuple(path for path, text in updates.items()
                        if files.get(path) != text)
        merged = files.copy()
        merged.update(updates)
        if len(merged) != len(files):
            for path in updates:
                if path not in files:
                    _check_path(path)
            merged = dict(sorted(merged.items()))
        # every path is valid and in path order: skip __init__'s pass
        tree = Tree.__new__(Tree)
        tree._files = MappingProxyType(merged)
        tree._id = None
        tree._base = self
        tree._updated = updated
        tree._carried = None
        return tree

    def carried(self, key: str, prefix: str,
                derive: Callable[["Tree"], _T]) -> _T:
        """``derive(self)``, for a ``derive`` that reads only the files
        whose paths start with ``prefix``.

        The value is kept on this tree under ``key``. It is taken from
        the nearest tree of the lineage that keeps it, unless a tree on
        the way there updated a path under ``prefix``: trees only add
        or replace files, so every other path keeps its text. A tree
        without a base derives the value itself.
        """
        tree = self
        while True:
            kept = tree._carried
            if kept is not None and key in kept:
                value = kept[key]
                break
            base = tree._base
            if base is None or any(path.startswith(prefix)
                                   for path in tree._updated):
                value = derive(self)
                break
            tree = base
        if self._carried is None:
            self._carried = {}
        self._carried[key] = value
        return value  # type: ignore[return-value]


@dataclass(frozen=True)
class Commit:
    """One node of history."""

    tree: Tree
    author: Signature
    message: str
    parents: tuple[str, ...] = ()
    #: the content hash, computed once when the commit is made
    _id: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hasher = hashlib.sha256()
        hasher.update(self.tree.id.encode("ascii"))
        hasher.update(str(self.author).encode("utf-8"))
        hasher.update(self.author.date.encode("utf-8"))
        hasher.update(self.message.encode("utf-8"))
        for parent in self.parents:
            hasher.update(parent.encode("ascii"))
        object.__setattr__(self, "_id", hasher.hexdigest())

    @property
    def id(self) -> str:
        """Content hash over tree, author, message, parents."""
        return self._id

    @property
    def is_merge(self) -> bool:
        """True for commits with more than one parent."""
        return len(self.parents) > 1

    @property
    def subject(self) -> str:
        """First line of the commit message."""
        return self.message.split("\n", 1)[0]
