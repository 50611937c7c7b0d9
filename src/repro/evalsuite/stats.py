"""Statistical helpers for the evaluation: CDFs and share computations."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


class Cdf:
    """Empirical cumulative distribution function over durations."""

    def __init__(self, values: list[float]) -> None:
        self._sorted = sorted(values)

    def __len__(self) -> int:
        return len(self._sorted)

    def fraction_at_most(self, threshold: float) -> float:
        """P(X <= threshold); 0.0 for an empty sample."""
        if not self._sorted:
            return 0.0
        return bisect_right(self._sorted, threshold) / len(self._sorted)

    def percentile(self, fraction: float) -> float:
        """Smallest value v with P(X <= v) >= fraction."""
        if not self._sorted:
            raise ValueError("empty CDF")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction out of range: {fraction}")
        # First index whose cumulative share covers the fraction.
        target = fraction * len(self._sorted)
        index = max(0, min(len(self._sorted) - 1, int(target + 0.999999) - 1))
        return self._sorted[index]

    @property
    def max(self) -> float:
        """Largest sample value."""
        if not self._sorted:
            raise ValueError("empty CDF")
        return self._sorted[-1]

    @property
    def min(self) -> float:
        """Smallest sample value."""
        if not self._sorted:
            raise ValueError("empty CDF")
        return self._sorted[0]

    def series(self, points: int = 100) -> list[tuple[float, float]]:
        """(x, P(X<=x)) pairs suitable for plotting Figure-style CDFs."""
        if not self._sorted:
            return []
        n = len(self._sorted)
        pairs: list[tuple[float, float]] = []
        for index, value in enumerate(self._sorted):
            pairs.append((value, (index + 1) / n))
        if len(pairs) <= points:
            return pairs
        step = len(pairs) / points
        sampled = [pairs[int(i * step)] for i in range(points)]
        if sampled[-1] != pairs[-1]:
            sampled.append(pairs[-1])
        return sampled

    def render_ascii(self, *, width: int = 60, height: int = 12,
                     title: str = "") -> str:
        """A terminal rendering of the CDF for harness output."""
        if not self._sorted:
            return f"{title}: (empty)"
        lo, hi = self._sorted[0], self._sorted[-1]
        span = hi - lo or 1.0
        rows: list[str] = []
        for row in range(height, 0, -1):
            frac = row / height
            line = []
            for col in range(width):
                x = lo + span * col / (width - 1)
                line.append("#" if self.fraction_at_most(x) >= frac
                            else " ")
            rows.append(f"{frac:4.0%} |" + "".join(line))
        axis = "      +" + "-" * width
        labels = f"      {lo:<12.1f}{'':^{max(0, width - 24)}}{hi:>12.1f}"
        header = [title] if title else []
        return "\n".join(header + rows + [axis, labels])


@dataclass(frozen=True)
class Share:
    """A count out of a total, rendered like the paper's 'N (P%)'."""

    count: int
    total: int

    @property
    def fraction(self) -> float:
        """count/total, 0.0 when the total is zero."""
        return self.count / self.total if self.total else 0.0

    def render(self) -> str:
        """The paper's 'N (P%)' formatting."""
        return f"{self.count} ({self.fraction:.0%})"
