"""Janitor identification: Table I thresholds + the cv ranking.

The procedure (§IV):

1. select developers passing the Table I thresholds over the long
   history window (v3.0..v4.4): ≥10 patches, ≥20 subsystems, ≥3
   mailing lists, <5% maintainer patches;
2. additionally require ≥20 patches inside the evaluation window
   (v4.3..v4.4) so the experiment has enough janitor patches;
3. rank by the per-file coefficient of variation, ascending (uniform,
   breadth-first work first), and take the top N (the paper takes 10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.janitors.activity import ActivityAnalyzer, DeveloperActivity
from repro.kernel.maintainers import MaintainersDb
from repro.vcs.repository import Repository


@dataclass(frozen=True)
class JanitorCriteria:
    """Table I, plus the evaluation-window activity floor."""

    min_patches: int = 10
    min_subsystems: int = 20
    min_lists: int = 3
    max_maintainer_share: float = 0.05
    min_eval_window_patches: int = 20
    top_n: int = 10

    def passes(self, activity: DeveloperActivity) -> bool:
        """True when the activity clears every Table I threshold."""
        return (activity.patches >= self.min_patches
                and len(activity.subsystems) >= self.min_subsystems
                and len(activity.lists) >= self.min_lists
                and activity.maintainer_share < self.max_maintainer_share)


@dataclass
class RankedDeveloper:
    """One Table II row."""

    name: str
    email: str
    patches: int
    subsystems: int
    lists: int
    maintainer_share: float
    file_cv: float
    eval_window_patches: int = 0

    def as_row(self) -> list[str]:
        """Table II cell values for this developer."""
        return [self.name, str(self.patches), str(self.subsystems),
                str(self.lists), f"{self.maintainer_share:.0%}",
                f"{self.file_cv:.2f}"]


class JanitorFinder:
    """Applies Table I thresholds and the cv ranking (§IV)."""
    def __init__(self, repository: Repository, maintainers: MaintainersDb,
                 criteria: JanitorCriteria | None = None) -> None:
        self._repository = repository
        self._maintainers = maintainers
        self.criteria = criteria or JanitorCriteria()
        self._analyzer = ActivityAnalyzer(repository, maintainers)

    def identify(self, *, history_since: str | None,
                 history_until: str | None,
                 eval_since: str | None,
                 eval_until: str | None) -> list[RankedDeveloper]:
        """The Table II procedure. Returns the top-N ranked developers."""
        activities = self._analyzer.analyze(since=history_since,
                                            until=history_until)
        eval_counts: dict[str, int] = {}
        for commit in self._repository.log(since=eval_since,
                                           until=eval_until):
            eval_counts[commit.author.email] = \
                eval_counts.get(commit.author.email, 0) + 1

        qualified: list[RankedDeveloper] = []
        for email, activity in activities.items():
            if not self.criteria.passes(activity):
                continue
            window_patches = eval_counts.get(email, 0)
            if window_patches < self.criteria.min_eval_window_patches:
                continue
            qualified.append(RankedDeveloper(
                name=activity.name,
                email=email,
                patches=activity.patches,
                subsystems=len(activity.subsystems),
                lists=len(activity.lists),
                maintainer_share=activity.maintainer_share,
                file_cv=activity.file_cv,
                eval_window_patches=window_patches,
            ))
        qualified.sort(key=lambda dev: (dev.file_cv, dev.email))
        return qualified[:self.criteria.top_n]
