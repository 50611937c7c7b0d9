"""Resilience policies: bounded retry/backoff and per-arch quarantine.

These are deliberately dumb data objects — the *loop* lives in
:mod:`repro.kbuild.build` where retries charge the simulated clock and
emit ``retry`` spans, and the *verdict degradation* lives in
:mod:`repro.core.report` where quarantined architectures turn a
commit's verdict into ``PARTIAL:<arch>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import SITE_CONFIG


@dataclass(frozen=True)
class RetryPolicy:
    """How often (and how patiently) a failed step is retried."""

    #: retries after the first attempt; 0 disables retrying
    max_retries: int = 2
    #: simulated seconds slept before the first retry
    backoff_base_seconds: float = 1.0
    #: multiplier applied for each further retry
    backoff_factor: float = 2.0
    #: simulated seconds a single attempt may take; None = unlimited
    step_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries cannot be negative, got {self.max_retries!r}")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if (self.step_timeout_seconds is not None
                and self.step_timeout_seconds <= 0):
            raise ValueError("step_timeout_seconds must be positive")

    @property
    def max_attempts(self) -> int:
        """Total attempts a step gets, the first one included."""
        return 1 + self.max_retries

    def backoff_seconds(self, retry_index: int) -> float:
        """Simulated sleep before retry ``retry_index`` (0-based)."""
        return self.backoff_base_seconds * self.backoff_factor ** retry_index

    def clamp_attempt_seconds(self, seconds: float) -> float:
        """Charge for one attempt, capped at the step timeout."""
        if self.step_timeout_seconds is None:
            return seconds
        return min(seconds, self.step_timeout_seconds)


#: the retry policy un-configured pipelines run with
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class Quarantine:
    """Per-architecture circuit breaker.

    A config-site failure that exhausts its retries trips the breaker
    immediately — without a configuration nothing downstream of that
    architecture can run. Compile/preprocess failures count toward
    ``threshold`` before the arch is benched. Once an architecture is
    quarantined, further steps against it fail fast with a
    ``quarantined`` build error and the commit's verdict degrades to
    ``PARTIAL:<arch>`` instead of the whole run aborting.
    """

    #: persistent step failures an arch may accrue before quarantine
    threshold: int = 3
    _strikes: dict[str, int] = field(default_factory=dict)
    _reasons: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(
                f"threshold must be positive, got {self.threshold!r}")

    def record(self, arch: str, site: str) -> bool:
        """Record a persistent failure; True if the arch just tripped."""
        if arch in self._reasons:
            return False
        if site == SITE_CONFIG:
            self._reasons[arch] = site
            return True
        strikes = self._strikes.get(arch, 0) + 1
        self._strikes[arch] = strikes
        if strikes >= self.threshold:
            self._reasons[arch] = site
            return True
        return False

    def is_quarantined(self, arch: str) -> bool:
        """Is this architecture benched for the current scope?"""
        return arch in self._reasons

    def reason(self, arch: str) -> str:
        """The site whose failures tripped the breaker ("" if none)."""
        return self._reasons.get(arch, "")

    def archs(self) -> list[str]:
        """Quarantined architectures, sorted for stable output."""
        return sorted(self._reasons)

    def reset(self) -> None:
        """Clear all strikes and benched architectures (new commit)."""
        self._strikes.clear()
        self._reasons.clear()
