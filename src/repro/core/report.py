"""Structured JMake verdicts.

§III-D: "In the former case, representing success, JMake reports on the
architectures for which compilation was successful and that reduced the
number of lines remaining to be subjected to the compiler. In case of
failure, JMake returns the list of mutations that were not found, or an
indication of the other possible errors, such as no Makefile found, an
unsupported architecture required, or a failure in making the .i or .o
file."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.core.mutation import Mutation
from repro.errors import SchemaError

#: version of the canonical serialized check/evaluation records.
#:
#: 1 — PR-3 era: no ``schema_version`` key; ``quarantined_archs`` and
#:     ``faults`` may be absent on records written before the fault
#:     layer existed.
#: 2 — adds ``schema_version`` and the explicit ``fully_checked`` flag
#:     (PARTIAL commits must not be counted as checked).
#: 3 — adds the ``journal`` block (durability metadata: the dedup key
#:     under which the verdict is emitted exactly once into the
#:     write-ahead journal).
#: 4 — fleet-mode store keys: each file entry gains ``attempts``
#:     (the per-(arch, config) trial outcomes that become
#:     ``file_verdicts`` rows in the verdict store) and the record
#:     gains a top-level ``author`` block (``{"name", "email"}`` or
#:     ``None``) feeding the §IV janitor ranking.
SCHEMA_VERSION = 4

#: a record missing any of these was cut off mid-write (or never was a
#: check record); migration refuses it rather than guessing
_REQUIRED_KEYS = ("commit", "certified", "verdict", "files")


def _validate_record(record: dict) -> None:
    """Refuse truncated or numerically-poisoned records."""
    missing = [key for key in _REQUIRED_KEYS if key not in record]
    if missing:
        raise SchemaError(
            f"truncated record: missing required key(s) "
            f"{', '.join(missing)}")
    if not isinstance(record["files"], dict) or \
            not all(isinstance(entry, dict)
                    for entry in record["files"].values()):
        raise SchemaError(
            "record 'files' is not a mapping of per-file entries")
    elapsed = record.get("elapsed_seconds", 0.0)
    if isinstance(elapsed, float) and not math.isfinite(elapsed):
        raise SchemaError(
            f"record has non-finite elapsed_seconds ({elapsed!r}); "
            f"refusing to migrate a numerically poisoned record")


def _check_verdict_consistency(record: dict) -> None:
    """``fully_checked`` must agree with the ``PARTIAL:`` verdict.

    A quarantine verdict (``PARTIAL:<archs>``) and ``fully_checked``
    are two encodings of the same fact; a record where they disagree
    was hand-edited or corrupted, and silently trusting either side
    would let a partially checked commit masquerade as fully checked
    (or vice versa). Both orderings of the disagreement are refused.
    """
    verdict = record.get("verdict")
    fully = record.get("fully_checked")
    if not isinstance(verdict, str) or not isinstance(fully, bool):
        return
    partial = verdict.startswith("PARTIAL:")
    if partial and fully:
        raise SchemaError(
            f"inconsistent record: verdict {verdict!r} says the commit "
            f"was only partially checked but fully_checked is true")
    if not partial and not fully:
        raise SchemaError(
            f"inconsistent record: fully_checked is false but verdict "
            f"{verdict!r} carries no PARTIAL quarantine")


def migrate_record(record: dict) -> dict:
    """Upgrade a serialized :meth:`PatchReport.to_dict` record to
    :data:`SCHEMA_VERSION`.

    Unversioned (PR-3-era and older) records are treated as version 1:
    missing fault-layer keys get their empty defaults and
    ``fully_checked`` is derived from ``quarantined_archs``; version 2
    records gain the v3 ``journal`` block with its dedup key derived
    from the commit id; version 3 records gain the v4 store keys (an
    empty ``attempts`` list per file and a null ``author`` block —
    pre-fleet records never carried either). Every record — current
    version included — is validated first: truncated records (missing
    required keys), records carrying non-finite floats, and records
    whose ``fully_checked`` flag disagrees with a ``PARTIAL:<arch>``
    verdict raise :class:`~repro.errors.SchemaError`, as do unknown or
    future versions. Always returns a copy.
    """
    if not isinstance(record, dict):
        raise SchemaError(
            f"record is not an object: {type(record).__name__}")
    version = record.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) or \
            not 1 <= version <= SCHEMA_VERSION:
        raise SchemaError(
            f"cannot migrate record with schema_version={version!r} "
            f"(supported: 1..{SCHEMA_VERSION})")
    migrated = dict(record)
    _validate_record(migrated)
    if version == 1:
        migrated.setdefault("quarantined_archs", [])
        migrated.setdefault("faults", [])
        migrated["fully_checked"] = not migrated["quarantined_archs"]
        version = 2
    if version == 2:
        migrated["journal"] = {"dedup_key": migrated.get("commit")}
        version = 3
    if version == 3:
        migrated.setdefault("author", None)
        migrated["files"] = {
            path: {**entry, "attempts": list(entry.get("attempts", []))}
            for path, entry in migrated["files"].items()}
        version = 4
    _check_verdict_consistency(migrated)
    migrated["schema_version"] = SCHEMA_VERSION
    return migrated


class FileStatus(Enum):
    #: all changed lines subjected to the compiler under some config
    """Per-file verdict vocabulary (§III-D failure taxonomy)."""
    OK = "ok"
    #: changes were only in comments: nothing for the compiler to see
    COMMENT_ONLY = "comment-only"
    #: compilation succeeded somewhere but some tokens never surfaced
    LINES_NOT_COMPILED = "lines-not-compiled"
    #: no Makefile governs the file
    NO_MAKEFILE = "no-makefile"
    #: the only candidate architectures have no working cross-compiler
    UNSUPPORTED_ARCH = "unsupported-arch"
    #: every candidate failed to produce a .i file
    I_FAILED = "i-failed"
    #: tokens all surfaced, but no candidate could build the clean .o
    O_FAILED = "o-failed"
    #: the file takes part in the Makefile's own setup compilation (§V-D)
    BOOTSTRAP_UNTREATABLE = "bootstrap-untreatable"

    @property
    def is_success(self) -> bool:
        """True for OK and COMMENT_ONLY."""
        return self in (FileStatus.OK, FileStatus.COMMENT_ONLY)


@dataclass
class ArchAttempt:
    """One (architecture, configuration) trial for a file."""

    arch: str
    config_target: str
    i_ok: bool = False
    tokens_found: set[str] = field(default_factory=set)
    o_ok: bool = False
    error: str | None = None


@dataclass
class FileReport:
    """JMake's verdict for one file of one patch."""
    path: str
    status: FileStatus
    mutations: list[Mutation] = field(default_factory=list)
    #: tokens never seen in any successfully compiled configuration
    missing_tokens: set[str] = field(default_factory=set)
    attempts: list[ArchAttempt] = field(default_factory=list)
    #: architectures whose successful compilation reduced the remainder
    useful_archs: list[str] = field(default_factory=list)
    comment_lines: list[int] = field(default_factory=list)
    macro_hints: list[str] = field(default_factory=list)
    #: §VII advisory messages issued before compilation started
    advisories: list[str] = field(default_factory=list)
    #: for .h files: how many candidate .c compilations were attempted
    candidate_compilations: int = 0

    @property
    def certified(self) -> bool:
        """True when every changed line reached the compiler."""
        return self.status.is_success

    def missing_changed_lines(self) -> list[int]:
        """Changed lines whose mutation never surfaced."""
        missing = []
        for mutation in self.mutations:
            if mutation.token in self.missing_tokens:
                missing.append(mutation.line)
        return sorted(set(missing))

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"{self.path}: {self.status.value}"]
        for advisory in self.advisories:
            lines.append(f"  advisory: {advisory}")
        if self.useful_archs:
            lines.append(f"  useful architectures: "
                         f"{', '.join(self.useful_archs)}")
        if self.missing_tokens:
            lines.append("  lines not subjected to the compiler:")
            for lineno in self.missing_changed_lines():
                lines.append(f"    {self.path}:{lineno}")
        for attempt in self.attempts:
            state = "ok" if attempt.o_ok else \
                ("i-only" if attempt.i_ok else "failed")
            lines.append(f"  tried {attempt.arch}/{attempt.config_target}: "
                         f"{state}")
        return "\n".join(lines)


@dataclass
class PatchReport:
    """All file verdicts of one patch plus timing/accounting."""
    commit_id: str | None
    file_reports: dict[str, FileReport] = field(default_factory=dict)
    #: simulated seconds JMake spent on this patch
    elapsed_seconds: float = 0.0
    #: counts of build-system invocations by kind
    invocation_counts: dict[str, int] = field(default_factory=dict)
    #: per-invocation simulated durations by kind (config/make_i/make_o)
    invocation_durations: dict[str, list[float]] = field(
        default_factory=dict)
    #: architectures the per-patch circuit breaker benched: their
    #: candidates were never (fully) tried, so the verdict is PARTIAL
    quarantined_archs: list[str] = field(default_factory=list)
    #: structured records of the faults injected while checking the patch
    fault_reports: list = field(default_factory=list)
    #: patch author identity (stamped by commit-resolving callers);
    #: feeds the §IV janitor ranking of the verdict store
    author_name: str | None = None
    author_email: str | None = None

    @property
    def certified(self) -> bool:
        """Every changed line of every file subjected to the compiler."""
        return bool(self.file_reports) and \
            all(report.certified for report in self.file_reports.values())

    @property
    def verdict(self) -> str:
        """``CERTIFIED``, ``ATTENTION REQUIRED``, or ``PARTIAL:<archs>``.

        A quarantined architecture means some candidates were never
        tried, so neither success nor failure is trustworthy: the
        explicit ``PARTIAL`` verdict tells the janitor to re-run rather
        than silently counting the commit as fully checked.
        """
        if self.quarantined_archs:
            return "PARTIAL:" + ",".join(self.quarantined_archs)
        return "CERTIFIED" if self.certified else "ATTENTION REQUIRED"

    def to_dict(self) -> dict:
        """A JSON-serializable view for tooling (CI bots, dashboards)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "commit": self.commit_id,
            "certified": self.certified,
            "verdict": self.verdict,
            "fully_checked": not self.quarantined_archs,
            "elapsed_seconds": self.elapsed_seconds,
            "invocations": dict(self.invocation_counts),
            "quarantined_archs": list(self.quarantined_archs),
            "faults": [report.to_dict() for report in self.fault_reports],
            # durability metadata: the key this verdict deduplicates
            # under when emitted into the write-ahead journal
            "journal": {"dedup_key": self.commit_id},
            "author": self._author_block(),
            "files": {
                path: {
                    "status": report.status.value,
                    "useful_archs": list(report.useful_archs),
                    "missing_lines": report.missing_changed_lines(),
                    "mutations": len(report.mutations),
                    "advisories": list(report.advisories),
                    # the (arch, config) trial outcomes: these become
                    # the file_verdicts rows of the verdict store
                    "attempts": [
                        {"arch": attempt.arch,
                         "config": attempt.config_target,
                         "i_ok": bool(attempt.i_ok),
                         "o_ok": bool(attempt.o_ok)}
                        for attempt in report.attempts
                    ],
                }
                for path, report in self.file_reports.items()
            },
        }

    def _author_block(self) -> dict | None:
        if self.author_name is None and self.author_email is None:
            return None
        return {"name": self.author_name, "email": self.author_email}

    def render(self) -> str:
        """Human-readable report (the tool's terminal output)."""
        header = f"JMake report for {self.commit_id or '<patch>'}: " + \
            self.verdict
        body = "\n".join(report.render()
                         for report in self.file_reports.values())
        lines = [header, body]
        for fault in self.fault_reports:
            lines.append(f"  {fault.render()}")
        lines.append(f"elapsed: {self.elapsed_seconds:.1f}s simulated, "
                     f"invocations: {self.invocation_counts}")
        return "\n".join(lines)
