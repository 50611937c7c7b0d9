"""Process-level chaos: deterministic kill points for kill/resume tests.

PR 3's fault plans exercise *step*-level failures (a compile flakes, a
cache entry rots); this module models the process itself dying. A
:class:`CrashPoint` is installed as a journal append observer and
raises :class:`~repro.errors.SimulatedCrashError` once the journal has
durably recorded a chosen number of verdicts — the deterministic
analogue of ``kill -9`` at a given journal offset. Everything fsynced
before the crash point survives; everything after it is lost, exactly
like a real crash.

:func:`crash_offsets` derives a seeded, duplicate-free set of kill
offsets for a run of a known length, so a property suite can replay
"die after 3 verdicts, resume, die after 17, resume, finish" forever.
"""

from __future__ import annotations

from repro.errors import SimulatedCrashError
from repro.faults.plan import (
    KIND_NET_HALF_OPEN,
    KIND_NET_PARTITION,
    KIND_NET_SLOW,
    KIND_SOCKET_DROP,
    KIND_WORKER_HANG,
    KIND_WORKER_KILL,
    FaultPlan,
    FaultSpec,
    unit_draw,
)

__all__ = [
    "CrashPoint",
    "crash_offsets",
    "transport_chaos_plan",
]


def transport_chaos_plan(seed: object, *, kill_rate: float = 0.0,
                         drop_rate: float = 0.0, hang_rate: float = 0.0,
                         partition_rate: float = 0.0,
                         slow_rate: float = 0.0,
                         half_open_rate: float = 0.0,
                         times: int | None = None) -> FaultPlan:
    """A fault plan aimed at remote shard workers.

    ``worker_kill`` hard-kills the child at assignment pickup,
    ``socket_drop`` severs its connection mid-stream, ``worker_hang``
    stalls it past the transport's hang deadline. The network kinds
    model the link rather than the process: ``net_partition`` cuts the
    connection but leaves the worker alive to reconnect, ``net_slow``
    delays the verdict without killing anything, ``net_half_open``
    leaves the socket established while the worker goes silent (only
    lease expiry catches it). All fire from the worker-site injector
    keyed by (worker slot, pickup sequence), so for a fixed dispatch
    order the chaos schedule is deterministic. Verdicts are unaffected
    either way: the assignment is requeued and re-executed from
    scratch, and every check is a pure function of (corpus, commit).
    """
    specs = []
    times = 1 if times is None else times
    if kill_rate:
        specs.append(FaultSpec(kind=KIND_WORKER_KILL, rate=kill_rate,
                               times=times))
    if drop_rate:
        specs.append(FaultSpec(kind=KIND_SOCKET_DROP, rate=drop_rate,
                               times=times))
    if hang_rate:
        specs.append(FaultSpec(kind=KIND_WORKER_HANG, rate=hang_rate,
                               times=times))
    if partition_rate:
        specs.append(FaultSpec(kind=KIND_NET_PARTITION,
                               rate=partition_rate, times=times))
    if slow_rate:
        specs.append(FaultSpec(kind=KIND_NET_SLOW, rate=slow_rate,
                               times=times))
    if half_open_rate:
        specs.append(FaultSpec(kind=KIND_NET_HALF_OPEN,
                               rate=half_open_rate, times=times))
    if not specs:
        raise ValueError("transport_chaos_plan needs at least one "
                         "non-zero rate")
    return FaultPlan(seed=str(seed), specs=specs)


class CrashPoint:
    """Kill the run once ``after_records`` journal appends landed.

    The journal calls the observer *after* each append is durable, with
    the 1-based count of records appended by this process. Raising
    there models the narrowest interesting crash window: the verdict is
    on disk, but nothing that would have happened next is.

    ``armed`` can be flipped off to let a resumed run finish (the test
    harness re-arms a fresh CrashPoint per kill cycle instead).
    """

    def __init__(self, after_records: int) -> None:
        if after_records < 1:
            raise ValueError(
                f"after_records must be positive, got {after_records!r}")
        self.after_records = after_records
        self.armed = True
        #: appends observed so far (this process)
        self.observed = 0

    def __call__(self, sequence: int) -> None:
        self.observed += 1
        if self.armed and self.observed >= self.after_records:
            raise SimulatedCrashError(
                f"simulated crash after {self.observed} journal "
                f"record(s) (offset {sequence})")


def crash_offsets(seed: object, total_records: int,
                  count: int) -> list[int]:
    """``count`` distinct seeded kill offsets in ``[1, total_records - 1]``.

    Deterministic in (seed, total_records, count); sorted ascending so
    a soak test kills earlier offsets first. ``total_records`` must
    leave room for at least one record before and after each kill.
    """
    if total_records < 2:
        raise ValueError(
            f"total_records must be at least 2, got {total_records!r}")
    span = total_records - 1
    count = min(count, span)
    offsets: set[int] = set()
    attempt = 0
    while len(offsets) < count:
        draw = unit_draw(seed, "crash-offset", total_records, attempt)
        offsets.add(1 + int(draw * span))
        attempt += 1
    return sorted(offsets)
