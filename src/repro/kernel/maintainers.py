"""The MAINTAINERS database.

§IV uses two pieces of MAINTAINERS structure: entries (a proxy for
*subsystems*) and the mailing lists designated to receive patches
(a coarser proxy). An entry looks like::

    INTEL ETHERNET DRIVERS
    M:	Jeff Kirsher <jeffrey.t.kirsher@intel.com>
    L:	netdev@vger.kernel.org
    F:	drivers/net/ethernet/intel/

``F:`` patterns ending in ``/`` match the whole subtree; otherwise they
match a single path (with ``*`` globbing, as the kernel's
``get_maintainer.pl`` does). Entries may overlap — a path can belong to
several subsystems, exactly the ambiguity §IV calls out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache


@lru_cache(maxsize=4096)
def _glob_regex(pattern: str) -> re.Pattern[str]:
    """The compiled form of one F: glob, built once per pattern."""
    return re.compile("".join("[^/]*" if ch == "*" else
                              "[^/]" if ch == "?" else re.escape(ch)
                              for ch in pattern))


def _glob_match(pattern: str, path: str) -> bool:
    """Glob where ``*`` does not cross ``/`` (get_maintainer.pl style)."""
    return _glob_regex(pattern).fullmatch(path) is not None


@dataclass
class MaintainersEntry:
    """One MAINTAINERS section (subsystem proxy, §IV)."""
    name: str
    maintainers: list[str] = field(default_factory=list)  # "Name <email>"
    lists: list[str] = field(default_factory=list)
    file_patterns: list[str] = field(default_factory=list)

    def matches(self, path: str) -> bool:
        """True when an F: pattern covers the path."""
        for pattern in self.file_patterns:
            if pattern.endswith("/"):
                if path.startswith(pattern):
                    return True
            elif _glob_match(pattern, path):
                return True
        return False

    def maintainer_emails(self) -> list[str]:
        """Emails extracted from the M: lines."""
        emails = []
        for maintainer in self.maintainers:
            if "<" in maintainer and ">" in maintainer:
                emails.append(maintainer.split("<", 1)[1].split(">", 1)[0])
        return emails

    def render(self) -> str:
        """The entry in MAINTAINERS file syntax."""
        lines = [self.name]
        lines.extend(f"M:\t{maintainer}" for maintainer in self.maintainers)
        lines.extend(f"L:\t{list_addr}" for list_addr in self.lists)
        lines.extend(f"F:\t{pattern}" for pattern in self.file_patterns)
        return "\n".join(lines) + "\n"


class MaintainersDb:
    """The parsed MAINTAINERS database with path matching."""
    def __init__(self, entries: list[MaintainersEntry] | None = None) -> None:
        self.entries = list(entries or [])

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: MaintainersEntry) -> None:
        """Append an entry."""
        self.entries.append(entry)

    def entries_for_path(self, path: str) -> list[MaintainersEntry]:
        """All entries whose patterns cover the path."""
        return [entry for entry in self.entries if entry.matches(path)]

    def render(self) -> str:
        """The whole database in MAINTAINERS file syntax."""
        header = ("List of maintainers and how to submit kernel changes\n"
                  "\n")
        return header + "\n".join(entry.render() for entry in self.entries)

    @classmethod
    def parse(cls, text: str) -> "MaintainersDb":
        """Parse MAINTAINERS text back into a database."""
        db = cls()
        current: MaintainersEntry | None = None
        for raw in text.split("\n"):
            line = raw.rstrip()
            if not line:
                current = None
                continue
            if len(line) >= 2 and line[1] == ":" and current is not None:
                tag, _, value = line.partition(":")
                value = value.strip()
                if tag == "M":
                    current.maintainers.append(value)
                elif tag == "L":
                    current.lists.append(value)
                elif tag == "F":
                    current.file_patterns.append(value)
                continue
            if line == line.upper() and any(ch.isalpha() for ch in line) \
                    and ":" not in line:
                current = MaintainersEntry(name=line)
                db.add(current)
        return db
