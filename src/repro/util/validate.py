"""Argument validation shared by the CLI, the evaluation session and
the check service (re-exported as ``repro.api.validate_jobs``)."""

from __future__ import annotations


def validate_jobs(jobs, *, what: str = "jobs") -> int:
    """The one place ``--jobs``/shard counts are validated.

    Accepts any integral value ≥ 1 (bools rejected); raises
    ``ValueError`` with a uniform message otherwise. The CLI, the
    evaluation session, and the service config all call this, so
    ``jmake serve --shards 0`` and ``jmake evaluate --jobs 0`` fail the
    same way.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(
            f"{what} must be a positive integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(
            f"{what} must be a positive integer, got {jobs}")
    return jobs
