"""Per-developer activity metrics from commit history.

For each developer between two refs, §IV collects:

- the number of patches contributed;
- the number of *subsystems* touched, proxied by MAINTAINERS entries
  matching the patched files;
- the number of designated *mailing lists* for those files (coarser,
  since related entries share lists);
- the share of patches for which the developer is a listed maintainer
  of some touched file;
- the *coefficient of variation* (std/mean) of the number of patches
  touching each file the developer ever touched — low cv means uniform,
  breadth-first work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.kernel.maintainers import MaintainersDb
from repro.vcs.repository import LogOptions, Repository


@dataclass
class DeveloperActivity:
    """One developer's §IV metrics over a history window."""
    name: str
    email: str
    patches: int = 0
    subsystems: set[str] = field(default_factory=set)
    lists: set[str] = field(default_factory=set)
    maintainer_patches: int = 0
    #: path -> number of this developer's patches touching it
    file_touches: dict[str, int] = field(default_factory=dict)

    @property
    def maintainer_share(self) -> float:
        """Fraction of patches touching files this developer maintains."""
        if self.patches == 0:
            return 0.0
        return self.maintainer_patches / self.patches

    @property
    def file_cv(self) -> float:
        """std/mean of per-file patch counts (population std)."""
        counts = list(self.file_touches.values())
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        variance = sum((count - mean) ** 2 for count in counts) / len(counts)
        return math.sqrt(variance) / mean


class ActivityAnalyzer:
    """Computes DeveloperActivity records from a repository."""
    def __init__(self, repository: Repository,
                 maintainers: MaintainersDb) -> None:
        self._repository = repository
        self._maintainers = maintainers

    def analyze(self, since: str | None = None, until: str | None = None,
                options: LogOptions | None = None
                ) -> dict[str, DeveloperActivity]:
        """Activity per developer email over the given window."""
        activities: dict[str, DeveloperActivity] = {}
        # path -> (entry names, lists, maintainer emails) of the
        # MAINTAINERS entries covering it: paths repeat across commits,
        # so each distinct path is matched once per call
        covering: dict[str, tuple[set[str], set[str], set[str]]] = {}
        for commit in self._repository.log(since=since, until=until,
                                           options=options):
            email = commit.author.email
            activity = activities.get(email)
            if activity is None:
                activity = DeveloperActivity(name=commit.author.name,
                                             email=email)
                activities[email] = activity
            paths = self._repository.changed_paths(commit)
            if not paths:
                continue
            activity.patches += 1
            is_maintainer_patch = False
            for path in paths:
                activity.file_touches[path] = \
                    activity.file_touches.get(path, 0) + 1
                entries = covering.get(path)
                if entries is None:
                    entries = covering[path] = self._covering(path)
                names, lists, maintainer_emails = entries
                activity.subsystems.update(names)
                activity.lists.update(lists)
                if email in maintainer_emails:
                    is_maintainer_patch = True
            if is_maintainer_patch:
                activity.maintainer_patches += 1
        return activities

    def _covering(self, path: str) -> tuple[set[str], set[str], set[str]]:
        """Names, lists and maintainer emails of the entries covering
        the path."""
        names: set[str] = set()
        lists: set[str] = set()
        emails: set[str] = set()
        for entry in self._maintainers.entries_for_path(path):
            names.add(entry.name)
            lists.update(entry.lists)
            emails.update(entry.maintainer_emails())
        return names, lists, emails
