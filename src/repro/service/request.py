"""Request/result dataclasses of the check service.

These are part of the stable ``repro.api`` surface: a
:class:`CheckRequest` names a commit (plus per-request option
overrides), a :class:`CheckResult` carries the verdict-bearing
:class:`~repro.core.report.PatchReport`, its canonical serialized
record (with ``schema_version``), and the simulated seconds it took.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.jmake import JMakeOptions
from repro.core.report import PatchReport


@dataclass
class CheckRequest:
    """One unit of service work: check a commit of the corpus."""

    #: the commit to check (any ref ``Repository.resolve`` accepts)
    commit_id: str
    #: per-request tunables; None uses the service's defaults
    options: JMakeOptions | None = None
    #: caller-chosen correlation id; assigned by the service if empty
    request_id: str = ""


@dataclass
class CheckResult:
    """The outcome of one :class:`CheckRequest`."""

    request_id: str
    commit_id: str
    #: the full verdict-bearing report (byte-identical to what the
    #: sequential ``EvaluationSession`` path produces for this commit)
    report: PatchReport
    #: the canonical JSON-ready record (``schema_version`` included)
    record: dict = field(default_factory=dict)
    #: simulated seconds the check charged to its own clock
    elapsed_sim_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        """The report's verdict line."""
        return self.report.verdict
