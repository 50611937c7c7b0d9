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
from types import MappingProxyType
from typing import ItemsView, Iterator, Mapping


@dataclass(frozen=True)
class Signature:
    """Author or committer identity."""

    name: str
    email: str
    date: str  # ISO-8601; the corpus generator stamps these deterministically

    def __str__(self) -> str:
        return f"{self.name} <{self.email}>"


class Tree:
    """An immutable snapshot of the source tree.

    Files are held in path order, so listing or iterating the paths
    never sorts them again.
    """

    def __init__(self, files: Mapping[str, str]) -> None:
        for path in files:
            if path.startswith("/") or ".." in path.split("/"):
                raise ValueError(f"invalid tree path: {path!r}")
        self._files: Mapping[str, str] = MappingProxyType(
            dict(sorted(files.items())))
        self._id: str | None = None

    def __getstate__(self) -> dict:
        # mappingproxy objects refuse to pickle; spawned transport
        # workers receive whole corpora, so serialize the plain dict
        # and restore the read-only view on load
        return {"files": dict(self._files), "id": self._id}

    def __setstate__(self, state: dict) -> None:
        self._files = MappingProxyType(dict(sorted(state["files"].items())))
        self._id = state["id"]

    @property
    def id(self) -> str:
        """Content hash of the whole snapshot."""
        if self._id is None:
            hasher = hashlib.sha256()
            for path, text in self._files.items():
                hasher.update(path.encode("utf-8"))
                hasher.update(b"\0")
                hasher.update(text.encode("utf-8"))
                hasher.update(b"\0")
            self._id = hasher.hexdigest()
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
        """Return a new tree with the given files replaced or added."""
        merged = dict(self._files)
        merged.update(updates)
        return Tree(merged)

    def without_files(self, paths: list[str]) -> "Tree":
        """A new tree with the given paths removed."""
        merged = {path: text for path, text in self._files.items()
                  if path not in set(paths)}
        return Tree(merged)

    def glob(self, *, suffix: str | None = None,
             prefix: str | None = None) -> list[str]:
        """Paths filtered by suffix and/or directory prefix."""
        selected = self.paths()
        if prefix is not None:
            normalized = prefix.rstrip("/") + "/"
            selected = [path for path in selected
                        if path.startswith(normalized)]
        if suffix is not None:
            selected = [path for path in selected if path.endswith(suffix)]
        return selected


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
