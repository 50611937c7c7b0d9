"""Typed query surface over the verdict store.

:class:`VerdictFilter` is the one way to ask the store questions: a
frozen dataclass whose fields map one-to-one onto indexed columns, so
every programmatic caller (``repro.api.query_verdicts``, ``jmake
query``, the tests) speaks the same vocabulary and gets the same
validation. Commit-level predicates constrain the ``verdicts`` table
directly; file-level predicates (``path``/``arch``/``config``/
``status``) constrain via an EXISTS over ``file_verdicts``, and the
matched commits come back whole — a :class:`StoredVerdict` always
carries *all* of its file rows, because a verdict is only meaningful
as a unit.

Queries are pure reads: answering one never triggers preprocessing or
compilation, which is the entire point of keeping the store around.

The §IV janitor ranking (:func:`janitor_rows`) is a query too: it is
derived from ``verdicts`` and ``file_verdicts`` on every read, so no
second copy of those facts has to be kept in step with them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from repro.errors import StoreError

#: verdict-kind shorthand: ``"PARTIAL"`` matches any quarantine verdict
#: by prefix, the other two match exactly
VERDICT_KINDS = ("CERTIFIED", "ATTENTION REQUIRED", "PARTIAL")


@dataclass(frozen=True)
class FileVerdictRow:
    """One (commit, file, arch, config) compilation fact."""
    commit: str
    path: str
    arch: str
    config: str
    status: str
    i_ok: bool
    o_ok: bool


@dataclass(frozen=True)
class StoredVerdict:
    """One commit's stored verdict plus its file rows."""
    commit: str
    verdict: str
    certified: bool
    fully_checked: bool
    elapsed_seconds: float
    author_name: str | None
    author_email: str | None
    #: the full canonical ``schema_version=4`` record
    record: dict
    files: tuple[FileVerdictRow, ...] = field(default_factory=tuple)

    @property
    def partial(self) -> bool:
        """True for quarantine (``PARTIAL:<archs>``) verdicts."""
        return self.verdict.startswith("PARTIAL:")


@dataclass(frozen=True)
class VerdictFilter:
    """Typed predicates for :meth:`VerdictStore.query`.

    All fields are ANDed; ``None`` means "don't constrain". ``verdict``
    accepts the three kinds in :data:`VERDICT_KINDS` (``"PARTIAL"``
    matches by prefix) or an exact ``PARTIAL:<archs>`` string.
    """
    commit: str | None = None
    path: str | None = None
    arch: str | None = None
    config: str | None = None
    status: str | None = None
    verdict: str | None = None
    certified: bool | None = None
    fully_checked: bool | None = None
    author: str | None = None
    limit: int | None = None

    def validate(self) -> None:
        """Raise :class:`~repro.errors.StoreError` on malformed filters."""
        for name in ("commit", "path", "arch", "config", "status",
                     "verdict", "author"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise StoreError(
                    f"filter {name} must be a string, got {value!r}")
        for name in ("certified", "fully_checked"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise StoreError(
                    f"filter {name} must be a bool, got {value!r}")
        if self.limit is not None and (
                isinstance(self.limit, bool) or
                not isinstance(self.limit, int) or self.limit < 1):
            raise StoreError(
                f"filter limit must be a positive integer, "
                f"got {self.limit!r}")
        if self.verdict is not None and \
                self.verdict not in VERDICT_KINDS and \
                not self.verdict.startswith("PARTIAL:"):
            raise StoreError(
                f"filter verdict must be one of {VERDICT_KINDS} or an "
                f"exact 'PARTIAL:<archs>' string, got {self.verdict!r}")

    def sql(self) -> tuple[str, list]:
        """The WHERE clause + parameters this filter compiles to."""
        self.validate()
        clauses: list[str] = []
        params: list = []
        if self.commit is not None:
            clauses.append("v.commit_id = ?")
            params.append(self.commit)
        if self.verdict == "PARTIAL":
            clauses.append("v.verdict LIKE 'PARTIAL:%'")
        elif self.verdict is not None:
            clauses.append("v.verdict = ?")
            params.append(self.verdict)
        if self.certified is not None:
            clauses.append("v.certified = ?")
            params.append(int(self.certified))
        if self.fully_checked is not None:
            clauses.append("v.fully_checked = ?")
            params.append(int(self.fully_checked))
        if self.author is not None:
            clauses.append("v.author_email = ?")
            params.append(self.author)
        file_clauses: list[str] = []
        for column in ("path", "arch", "config", "status"):
            value = getattr(self, column)
            if value is not None:
                file_clauses.append(f"f.{column} = ?")
                params.append(value)
        if file_clauses:
            clauses.append(
                "EXISTS (SELECT 1 FROM file_verdicts f "
                "WHERE f.commit_id = v.commit_id AND "
                + " AND ".join(file_clauses) + ")")
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params


def filter_from_kwargs(filter=None, **kwargs) -> VerdictFilter:
    """Accept either a ready filter or loose keyword predicates."""
    if filter is not None:
        if kwargs:
            raise StoreError(
                "pass either a VerdictFilter or keyword predicates, "
                "not both")
        if not isinstance(filter, VerdictFilter):
            raise StoreError(
                f"filter must be a VerdictFilter, got {filter!r}")
        return filter
    known = {f.name for f in fields(VerdictFilter)}
    unknown = set(kwargs) - known
    if unknown:
        raise StoreError(
            f"unknown filter predicate(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return VerdictFilter(**kwargs)


def stored_verdict_from_row(row, file_rows) -> StoredVerdict:
    """Build a :class:`StoredVerdict` from its table rows."""
    (commit_id, verdict, certified, fully_checked, elapsed,
     author_name, author_email, record_json) = row
    return StoredVerdict(
        commit=commit_id,
        verdict=verdict,
        certified=bool(certified),
        fully_checked=bool(fully_checked),
        elapsed_seconds=elapsed,
        author_name=author_name,
        author_email=author_email,
        record=json.loads(record_json),
        files=tuple(
            FileVerdictRow(commit=commit_id, path=path, arch=arch,
                           config=config, status=status,
                           i_ok=bool(i_ok), o_ok=bool(o_ok))
            for path, arch, config, status, i_ok, o_ok in file_rows),
    )


@dataclass(frozen=True)
class JanitorViewCriteria:
    """Cutoffs for :func:`janitor_rows` (Table I, store-local)."""
    #: minimum stored patches before an author is rankable
    min_patches: int = 3
    #: minimum distinct files touched
    min_files: int = 2
    #: rows returned (ascending file_cv — most janitor-like first)
    top_n: int = 10

    def validate(self) -> None:
        """Raise :class:`~repro.errors.StoreError` on malformed cutoffs."""
        for name, least, kind in (("min_patches", 0, "non-negative"),
                                  ("min_files", 0, "non-negative"),
                                  ("top_n", 1, "positive")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < least:
                raise StoreError(
                    f"janitor criteria {name} must be a {kind} "
                    f"integer, got {value!r}")


@dataclass(frozen=True)
class JanitorViewRow:
    """One ranked author of the §IV janitor ranking."""
    email: str
    name: str | None
    patches: int
    certified: int
    partial: int
    attention: int
    files: int
    file_cv: float


def _file_cv(counts: "list[int]") -> float:
    """Population std / mean — the §IV uniformity metric."""
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    variance = sum((count - mean) ** 2 for count in counts) / len(counts)
    return math.sqrt(variance) / mean


def janitor_rows(conn, criteria: JanitorViewCriteria | None = None
                 ) -> "list[JanitorViewRow]":
    """The Table-II ranking: ascending file_cv, email tie-break.

    Janitors touch many files about once each (low coefficient of
    variation of per-file patch counts, exactly the
    :attr:`DeveloperActivity.file_cv` formula); maintainers hammer a
    few files (high cv). Every author with a non-empty email is
    ranked, including one whose commits touched no file (``files``
    0). The per-file counts reach ``_file_cv`` in path order, so the
    float does not depend on ingest order.
    """
    criteria = criteria or JanitorViewCriteria()
    criteria.validate()
    counts: dict[str, list[int]] = {}
    for email, patches in conn.execute(
            "SELECT v.author_email, COUNT(DISTINCT f.commit_id) "
            "FROM verdicts v JOIN file_verdicts f "
            "ON f.commit_id = v.commit_id "
            "WHERE v.author_email <> '' "
            "GROUP BY v.author_email, f.path "
            "ORDER BY v.author_email, f.path"):
        counts.setdefault(email, []).append(patches)
    rows = []
    for (email, name, patches, certified, partial,
         attention) in conn.execute(
            "SELECT author_email, MAX(author_name), COUNT(*), "
            "SUM(verdict = 'CERTIFIED'), "
            "SUM(verdict LIKE 'PARTIAL:%'), "
            "SUM(verdict = 'ATTENTION REQUIRED') "
            "FROM verdicts WHERE author_email <> '' "
            "GROUP BY author_email"):
        files = counts.get(email, [])
        if patches >= criteria.min_patches and \
                len(files) >= criteria.min_files:
            rows.append(JanitorViewRow(
                email=email, name=name, patches=patches,
                certified=certified, partial=partial,
                attention=attention, files=len(files),
                file_cv=_file_cv(files)))
    rows.sort(key=lambda row: (row.file_cv, row.email))
    return rows[:criteria.top_n]
