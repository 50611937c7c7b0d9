"""The injection hook the pipeline consults at every step boundary.

One :class:`FaultInjector` is owned by a
:class:`~repro.core.jmake.CheckSession` instance and threaded into every
:class:`~repro.kbuild.build.BuildSystem` it creates (and into the shared
:class:`~repro.buildcache.cache.BuildCache`).
``begin_scope(commit_id)`` resets the per-key attempt counters at the
start of each checked commit, which is what makes firing decisions a
pure function of (plan, commit) — independent of worker assignment
(``--jobs``), cache hits, and observability.

Sites that can fail call :meth:`FaultInjector.fire`; a returned
:class:`~repro.faults.plan.FaultSpec` means "this attempt is doomed" and
the caller turns it into a retry, an error, or (for output-corruption
kinds like ``truncate_i``) a degraded artifact. Every firing appends a
structured :class:`FaultReport`, drained per patch into the evaluation
records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan, FaultSpec, unit_draw


@dataclass(frozen=True)
class FaultReport:
    """One injected fault, as surfaced in the evaluation report."""

    kind: str
    site: str
    arch: str
    path: str
    #: the commit (or "<patch>") the fault fired under
    scope: str
    #: 1-based attempt number of the step the fault hit
    attempt: int

    def render(self) -> str:
        """One-line human-readable form."""
        where = f"{self.arch}/{self.path}" if self.arch else self.path
        return (f"fault {self.kind} at {self.site} ({where}) "
                f"attempt {self.attempt}")

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {"kind": self.kind, "site": self.site, "arch": self.arch,
                "path": self.path, "scope": self.scope,
                "attempt": self.attempt}


class FaultInjector:
    """Deterministic, seedable fault firing against a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._scope = "<patch>"
        self._attempts: dict[tuple, int] = {}
        self._reports: list[FaultReport] = []
        #: total faults fired over the injector's lifetime (all scopes)
        self.fired_total = 0
        self._by_site = {}
        for index, spec in enumerate(self.plan.specs):
            self._by_site.setdefault(spec.site, []).append((index, spec))

    @property
    def enabled(self) -> bool:
        """True when the plan holds at least one rule."""
        return bool(self.plan)

    # -- scoping ------------------------------------------------------------

    def begin_scope(self, scope: str) -> None:
        """Reset attempt counters and pending reports for one commit."""
        self._scope = scope or "<patch>"
        self._attempts.clear()
        self._reports.clear()

    def drain_reports(self) -> list[FaultReport]:
        """Pop the faults fired since the scope began."""
        reports, self._reports = self._reports, []
        return reports

    # -- firing -------------------------------------------------------------

    def fire(self, site: str, *, arch: str = "",
             path: str = "") -> FaultSpec | None:
        """Should this (site, arch, path) attempt be faulted?

        Walks the plan's rules for the site in order; the first rule
        that matches, still has ``times`` budget for this key in this
        scope, and wins its deterministic rate draw fires. Each call
        advances the per-key attempt counters, so a retried step sees a
        fresh decision.
        """
        specs = self._by_site.get(site)
        if not specs:
            return None
        for index, spec in specs:
            if not spec.matches(site, arch, path):
                continue
            key = (index, site, arch, path)
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
            if attempt > spec.times:
                continue
            if spec.rate < 1.0 and unit_draw(
                    self.plan.seed, self._scope, index, site, arch, path,
                    attempt) >= spec.rate:
                continue
            self.fired_total += 1
            self._reports.append(FaultReport(
                kind=spec.kind, site=site, arch=arch, path=path,
                scope=self._scope, attempt=attempt))
            return spec
        return None


class NullInjector:
    """API-compatible injector that never fires (the default)."""

    __slots__ = ()

    plan = FaultPlan()
    fired_total = 0

    @property
    def enabled(self) -> bool:
        """False — nothing ever fires."""
        return False

    def begin_scope(self, scope: str) -> None:
        return None

    def drain_reports(self) -> list:
        return []

    def fire(self, site: str, *, arch: str = "",
             path: str = "") -> None:
        return None


#: the process-wide disabled injector un-faulted pipelines default to
NULL_INJECTOR = NullInjector()
