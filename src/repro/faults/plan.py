"""Declarative fault plans: which faults fire, where, and how often.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec` rules.
Each rule names one builtin fault *kind*, the injection *site* it
applies to, optional architecture/path filters, a deterministic firing
``rate``, and ``times`` — on how many attempts per (site, arch, path)
key the rule may fire within one commit's scope. ``times=1`` models a
transient flake (the bounded-retry loop recovers on the second
attempt); ``times`` greater than the retry budget models a persistent
failure (the step errors out and the architecture may be quarantined).

Plans serialize to/from JSON for the ``jmake evaluate --fault-plan``
flag::

    {
      "seed": "storm-7",
      "faults": [
        {"kind": "preprocess_flake", "rate": 0.3},
        {"kind": "config_fail", "arch": "arm", "times": 5},
        {"kind": "compile_timeout", "path": "drivers/", "rate": 0.1}
      ]
    }

Every field is validated eagerly; malformed plans raise
:class:`~repro.errors.FaultPlanError` before any commit is checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import FaultPlanError

# -- builtin fault kinds ----------------------------------------------------

#: ``make *config`` fails outright (a broken arch Makefile, say)
KIND_CONFIG_FAIL = "config_fail"
#: one ``make file.i`` flakes (NFS hiccup, OOM-killed cc1 -E)
KIND_PREPROCESS_FLAKE = "preprocess_flake"
#: ``make file.o`` hangs until the step timeout expires
KIND_COMPILE_TIMEOUT = "compile_timeout"
#: the ``.i`` file is written but cut short (full disk, torn write)
KIND_TRUNCATE_I = "truncate_i"
#: the persistent cache pickle (or an in-memory entry) is rotten
KIND_CACHE_CORRUPT = "cache_corrupt"
#: a transient I/O error at any step boundary
KIND_IO_ERROR = "io_error"

# -- process-level fault kinds (PR 5 chaos vocabulary) ----------------------

#: a worker process dies at assignment pickup (OOM kill, segfault,
#: host loss); the claimed assignment never ran and must be requeued
KIND_WORKER_CRASH = "worker_crash"
#: a worker process stalls holding its claimed assignment (livelock,
#: NFS hang) until the supervisor's hang deadline expires
KIND_WORKER_HANG = "worker_hang"
#: a journal append is cut short mid-frame (power loss, full disk) —
#: replay must truncate the torn tail and continue
KIND_TORN_JOURNAL_WRITE = "torn_journal_write"

# -- transport-level fault kinds (PR 8 chaos vocabulary) --------------------

#: a remote worker process is hard-killed (SIGKILL, OOM) after
#: claiming an assignment; the transport monitor must detect the dead
#: child and requeue the in-flight work
KIND_WORKER_KILL = "worker_kill"
#: a worker's connection drops mid-stream (peer reset, half-close);
#: a dropped socket is just another worker crash to the supervisor
KIND_SOCKET_DROP = "socket_drop"

# -- network-level fault kinds (PR 10 fleet chaos vocabulary) ----------------

#: the link between worker and coordinator partitions: the worker's
#: socket goes away but the *process* survives and reconnects once the
#: partition heals; the coordinator must requeue and later accept the
#: worker back under a fresh lease epoch
KIND_NET_PARTITION = "net_partition"
#: the link degrades (bufferbloat, saturated uplink): frames still
#: arrive but each assignment is served noticeably late; heartbeats
#: must keep the lease alive so slowness is not misread as death
KIND_NET_SLOW = "net_slow"
#: the connection half-opens: the TCP session looks established to the
#: coordinator but the worker stops sending anything — no verdicts, no
#: heartbeats. Only lease expiry can detect this state.
KIND_NET_HALF_OPEN = "net_half_open"

# -- injection sites --------------------------------------------------------

SITE_CONFIG = "config"            # BuildSystem.make_config
SITE_PREPROCESS = "preprocess"    # BuildSystem.make_i, per file
SITE_COMPILE = "compile"          # BuildSystem.make_o
SITE_CACHE_LOAD = "cache_load"    # BuildCache probes + BuildCache.load
SITE_CACHE_STORE = "cache_store"  # BuildCache stores + BuildCache.save
SITE_WORKER = "worker"            # worker process assignment pickup
                                  # (socket transport only)
SITE_JOURNAL_APPEND = "journal_append"  # Journal.append frame write

INJECTION_SITES = (SITE_CONFIG, SITE_PREPROCESS, SITE_COMPILE,
                   SITE_CACHE_LOAD, SITE_CACHE_STORE, SITE_WORKER,
                   SITE_JOURNAL_APPEND)

#: the in-pipeline sites (step + cache) a sequential check consults
PIPELINE_SITES = (SITE_CONFIG, SITE_PREPROCESS, SITE_COMPILE,
                  SITE_CACHE_LOAD, SITE_CACHE_STORE)

#: the verdict-neutral process-level sites: faults here may only delay
#: or re-route work (supervisor requeue, journal tail truncation),
#: never change what a commit's record says
PROCESS_SITES = (SITE_WORKER, SITE_JOURNAL_APPEND)

#: sites each kind may legally be injected at; the first is the default
_KIND_SITES: dict[str, tuple[str, ...]] = {
    KIND_CONFIG_FAIL: (SITE_CONFIG,),
    KIND_PREPROCESS_FLAKE: (SITE_PREPROCESS,),
    KIND_COMPILE_TIMEOUT: (SITE_COMPILE,),
    KIND_TRUNCATE_I: (SITE_PREPROCESS,),
    KIND_CACHE_CORRUPT: (SITE_CACHE_LOAD,),
    KIND_IO_ERROR: (SITE_CONFIG, SITE_PREPROCESS, SITE_COMPILE,
                    SITE_CACHE_LOAD, SITE_CACHE_STORE),
    KIND_WORKER_CRASH: (SITE_WORKER,),
    KIND_WORKER_HANG: (SITE_WORKER,),
    KIND_WORKER_KILL: (SITE_WORKER,),
    KIND_SOCKET_DROP: (SITE_WORKER,),
    KIND_NET_PARTITION: (SITE_WORKER,),
    KIND_NET_SLOW: (SITE_WORKER,),
    KIND_NET_HALF_OPEN: (SITE_WORKER,),
    KIND_TORN_JOURNAL_WRITE: (SITE_JOURNAL_APPEND,),
}

BUILTIN_KINDS = tuple(_KIND_SITES)

#: default simulated seconds one failed attempt burns before the error
#: surfaces (a timeout burns the step-timeout budget instead, when set).
#: Process-level kinds charge nothing: they stall or kill the *worker*,
#: not the simulated step, so verdict-bearing timings stay untouched.
_DEFAULT_COST_SECONDS = {
    KIND_CONFIG_FAIL: 2.0,
    KIND_PREPROCESS_FLAKE: 3.0,
    KIND_COMPILE_TIMEOUT: 30.0,
    KIND_TRUNCATE_I: 0.0,
    KIND_CACHE_CORRUPT: 0.0,
    KIND_IO_ERROR: 1.0,
    KIND_WORKER_CRASH: 0.0,
    KIND_WORKER_HANG: 0.0,
    KIND_WORKER_KILL: 0.0,
    KIND_SOCKET_DROP: 0.0,
    KIND_NET_PARTITION: 0.0,
    KIND_NET_SLOW: 0.0,
    KIND_NET_HALF_OPEN: 0.0,
    KIND_TORN_JOURNAL_WRITE: 0.0,
}


def valid_kind_sites() -> list[tuple[str, str]]:
    """Every legal (kind, site) combination — the fault-matrix axis."""
    return [(kind, site) for kind in BUILTIN_KINDS
            for site in _KIND_SITES[kind]]


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule of a plan."""

    kind: str
    #: injection site; "" means the kind's default site
    site: str = ""
    #: architecture filter; "*" matches every architecture
    arch: str = "*"
    #: filter on the step's path/target; "" matches everything. At build
    #: and cache sites it is a substring test (``"drivers/"``); at the
    #: worker site it must equal the pickup label (``"pickup-1"`` is the
    #: first pickup only, not pickups 10-19)
    path: str = ""
    #: deterministic firing probability per eligible attempt, in [0, 1]
    rate: float = 1.0
    #: fire on at most the first N attempts per key per commit scope
    times: int = 1
    #: simulated seconds one failed attempt charges (None = kind default)
    cost_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SITES:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; builtin kinds: "
                f"{', '.join(BUILTIN_KINDS)}")
        site = self.site or _KIND_SITES[self.kind][0]
        if site not in _KIND_SITES[self.kind]:
            raise FaultPlanError(
                f"fault kind {self.kind!r} cannot be injected at site "
                f"{site!r} (legal: {', '.join(_KIND_SITES[self.kind])})")
        object.__setattr__(self, "site", site)
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"rate must be in [0, 1], got {self.rate!r}")
        if self.times < 1:
            raise FaultPlanError(
                f"times must be a positive integer, got {self.times!r}")
        if self.cost_seconds is not None and self.cost_seconds < 0:
            raise FaultPlanError(
                f"cost_seconds cannot be negative, got {self.cost_seconds!r}")

    @property
    def attempt_cost_seconds(self) -> float:
        """Simulated seconds one failed attempt burns."""
        if self.cost_seconds is not None:
            return self.cost_seconds
        return _DEFAULT_COST_SECONDS[self.kind]

    def matches(self, site: str, arch: str, path: str) -> bool:
        """Does this rule apply to one (site, arch, path) step identity?"""
        if site != self.site:
            return False
        if self.arch not in ("*", "") and arch != self.arch:
            return False
        if not self.path:
            return True
        if site == SITE_WORKER:
            return path == self.path
        return self.path in path

    def to_dict(self) -> dict:
        """JSON-ready form (defaults omitted)."""
        record: dict = {"kind": self.kind, "site": self.site}
        if self.arch != "*":
            record["arch"] = self.arch
        if self.path:
            record["path"] = self.path
        if self.rate != 1.0:
            record["rate"] = self.rate
        if self.times != 1:
            record["times"] = self.times
        if self.cost_seconds is not None:
            record["cost_seconds"] = self.cost_seconds
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FaultSpec":
        """Build and validate one rule from a JSON object."""
        if not isinstance(record, dict):
            raise FaultPlanError(
                f"each fault must be a JSON object, got {type(record).__name__}")
        unknown = set(record) - {"kind", "site", "arch", "path", "rate",
                                 "times", "cost_seconds"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault fields: {', '.join(sorted(unknown))}")
        if "kind" not in record:
            raise FaultPlanError("each fault needs a 'kind'")
        try:
            return cls(
                kind=record["kind"],
                site=record.get("site", ""),
                arch=record.get("arch", "*"),
                path=record.get("path", ""),
                rate=float(record.get("rate", 1.0)),
                times=int(record.get("times", 1)),
                cost_seconds=record.get("cost_seconds"),
            )
        except (TypeError, ValueError) as error:
            raise FaultPlanError(f"malformed fault rule: {error}") from error


@dataclass
class FaultPlan:
    """A seed plus an ordered list of fault rules."""

    seed: int | str = 0
    specs: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = list(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.specs]}

    def dumps(self) -> str:
        """Serialize to the ``--fault-plan`` JSON format."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build and validate a plan from a parsed JSON object."""
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"a fault plan must be a JSON object, "
                f"got {type(payload).__name__}")
        unknown = set(payload) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan fields: {', '.join(sorted(unknown))}")
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise FaultPlanError("'faults' must be a JSON array")
        return cls(seed=payload.get("seed", 0),
                   specs=[FaultSpec.from_dict(record) for record in faults])

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"invalid fault-plan JSON: {error}") \
                from error
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Parse a plan from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise FaultPlanError(
                f"cannot read fault plan {path}: {error}") from error
        return cls.loads(text)


def unit_draw(*identity: object) -> float:
    """A deterministic pseudo-uniform draw in [0, 1) from an identity.

    The same hashing scheme the cost model uses: decisions replay
    identically for a given (seed, scope, step, attempt) no matter how
    commits are distributed over workers.
    """
    digest = hashlib.sha256(
        ":".join(str(part) for part in identity).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
