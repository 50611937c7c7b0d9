"""Deterministic random number generation.

All stochastic behaviour in the library (synthetic tree generation, commit
streams, the random defconfig choice of §III-C) flows through
:class:`DeterministicRng`, so a corpus spec plus a seed reproduces every
table and figure bit-for-bit.

The generator is a thin wrapper over :class:`random.Random` that adds
namespacing: ``rng.fork("commits")`` yields an independent stream whose
sequence does not change when unrelated subsystems draw more or fewer
values. This keeps experiments stable as the code evolves.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random stream with cheap namespaced forking."""

    def __init__(self, seed: int | str, *, _label: str = "root") -> None:
        if isinstance(seed, str):
            digest = hashlib.sha256(seed.encode("utf-8")).digest()
            seed = int.from_bytes(digest[:8], "big")
        self._seed = seed
        self._label = _label
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The resolved integer seed."""
        return self._seed

    @property
    def label(self) -> str:
        """Namespace lineage, for debugging."""
        return self._label

    def fork(self, namespace: str) -> "DeterministicRng":
        """Return an independent stream derived from this seed and a name.

        Forks are derived from the *original* seed, not the stream state,
        so the order in which forks are created does not matter.
        """
        material = f"{self._seed}:{namespace}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        child_seed = int.from_bytes(digest[:8], "big")
        return DeterministicRng(child_seed, _label=f"{self._label}/{namespace}")

    # -- draws ---------------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Inclusive uniform integer in [low, high]."""
        return self._random.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """One element, uniformly."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(options)

    def sample(self, options: Sequence[T], k: int) -> list[T]:
        """k elements without replacement."""
        return self._random.sample(list(options), k)

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def weighted_choice(self, options: Sequence[T],
                        weights: Sequence[float]) -> T:
        """One element with the given weights."""
        if len(options) != len(weights):
            raise ValueError("options and weights must have equal length")
        return self._random.choices(list(options), weights=list(weights))[0]

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._random.random() < probability

    def zipf_rank(self, n: int, skew: float = 1.0) -> int:
        """Draw a 0-based rank in [0, n) with a Zipf-like bias toward 0.

        Implemented by inverse-CDF over the truncated harmonic weights; the
        result is deterministic given the stream state.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        total = sum(weights)
        target = self._random.random() * total
        acc = 0.0
        for rank, weight in enumerate(weights):
            acc += weight
            if target < acc:
                return rank
        return n - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRng(seed={self._seed}, label={self._label!r})"
