"""Work units: the schedulable decomposition of one patch check.

A check is a small DAG of stages (§III-D mapped onto a scheduler):

    mutate ──> config ──> preprocess-batch ──> token-grep ──> certify
                 │              │                  │              │
                 └── per (arch, config target); preprocess batches
                     carry ≤ batch_limit files per make invocation

The pipeline generators in :mod:`repro.core.cfile`,
:mod:`repro.core.hfile`, and :mod:`repro.core.jmake` *yield*
:class:`WorkUnit` objects instead of touching the build system directly;
whoever drives the generator decides where and when each unit runs:

- :func:`run_units` executes every unit inline, in yield order — this
  is sequential mode, and it is bit-for-bit the behavior the processors
  had before the decomposition (the unit thunks are the exact former
  call sites, exception handling included);
- the check service (:mod:`repro.service`) routes units to per-
  architecture shard workers and coalesces preprocess units from
  *different* requests into shared ≤ batch-limit invocations.

Within one request, units execute strictly in yield order (each yield
waits for its result before the generator can produce the next unit),
so per-request clock charges, invocation logs, and verdicts cannot
depend on how many other requests are in flight. The DAG metadata
(``deps``) records the stage structure for scheduling, observability,
and the shape assertions in the test suite.

Unit thunks never raise: call sites that used to catch build errors
moved the ``try``/``except`` into the thunk and return a
:class:`UnitFailure` instead, so results cross scheduler boundaries as
plain values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

#: stage vocabulary, in DAG order
STAGE_MUTATE = "mutate"
STAGE_CONFIG = "config"
STAGE_PREPROCESS = "preprocess"
STAGE_GREP = "grep"
STAGE_CERTIFY = "certify"

#: stages that must run on the owning architecture's shard
ARCH_STAGES = (STAGE_CONFIG, STAGE_PREPROCESS, STAGE_CERTIFY)


@dataclass(frozen=True)
class UnitFailure:
    """A step that failed in a way the pipeline handles inline."""

    error: str
    kind: str = ""

    def __bool__(self) -> bool:  # failures are falsy result values
        return False


@dataclass
class WorkUnit:
    """One schedulable step of a patch check.

    ``arch`` is the shard routing key (``None`` for request-local
    stages like mutate and token-grep). ``paths`` is what the unit
    touches — for preprocess units its length is the unit's batch
    occupancy, the quantity the cross-request batcher packs into
    ≤ batch-limit invocations.
    """

    stage: str
    run: Callable[[], Any]
    arch: str | None = None
    config_target: str | None = None
    paths: tuple[str, ...] = ()
    #: unit ids this unit depends on (DAG edges); assigned by the
    #: yielding pipeline, which knows the stage structure
    deps: tuple[int, ...] = ()
    #: identity within one request's DAG (assigned at creation)
    unit_id: int = -1

    @property
    def occupancy(self) -> int:
        """Files this unit contributes to a batched invocation."""
        return len(self.paths)


class UnitDag:
    """The recorded decomposition of one request.

    Pipelines allocate unit ids through :meth:`new_unit`; the driver
    (sequential or service) keeps the instance around so tests and the
    service stats endpoint can inspect stage structure, per-stage
    counts, and edges.
    """

    def __init__(self, request_id: str = "<patch>") -> None:
        self.request_id = request_id
        self.units: list[WorkUnit] = []

    def new_unit(self, stage: str, run: Callable[[], Any], *,
                 arch: str | None = None,
                 config_target: str | None = None,
                 paths: Iterable[str] = (),
                 deps: Iterable[int] = ()) -> WorkUnit:
        """Create, register, and return the next unit."""
        unit = WorkUnit(stage=stage, run=run, arch=arch,
                        config_target=config_target,
                        paths=tuple(paths), deps=tuple(deps),
                        unit_id=len(self.units))
        self.units.append(unit)
        return unit

    def __len__(self) -> int:
        return len(self.units)

    def stage_counts(self) -> dict[str, int]:
        """Units per stage, for occupancy/shape assertions."""
        counts: dict[str, int] = {}
        for unit in self.units:
            counts[unit.stage] = counts.get(unit.stage, 0) + 1
        return counts

    def edges(self) -> list[tuple[int, int]]:
        """(dep, unit) pairs — the DAG's edge list."""
        return [(dep, unit.unit_id)
                for unit in self.units for dep in unit.deps]

    def stage_of(self, unit_id: int) -> str:
        """Stage name of one unit."""
        return self.units[unit_id].stage

    def to_dict(self) -> dict:
        """JSON-ready summary (no thunks)."""
        return {
            "request_id": self.request_id,
            "units": [
                {"id": unit.unit_id, "stage": unit.stage,
                 "arch": unit.arch, "config_target": unit.config_target,
                 "paths": list(unit.paths), "deps": list(unit.deps)}
                for unit in self.units
            ],
        }


#: the type pipelines return: a generator yielding units, receiving each
#: unit's result, returning the stage outcome
UnitGenerator = Generator[WorkUnit, Any, Any]


def run_units(generator: UnitGenerator) -> Any:
    """Sequential driver: execute every unit inline, in yield order.

    This is exactly the pre-decomposition control flow — the generator
    suspends at each former call site and immediately receives the
    result the inline call produces.
    """
    try:
        unit = next(generator)
        while True:
            unit = generator.send(unit.run())
    except StopIteration as stop:
        return stop.value
