"""The transport wire codec: frames and messages.

Worker processes and the socket transport's coordinator
(:mod:`repro.service.transport.sock`) exchange length-prefixed,
CRC32-checked frames whose payload is the same canonical JSON the
write-ahead journal speaks (sorted keys, tight separators, ``allow_nan
=False``), so a verdict crossing the wire and a verdict landing in the
journal are literally the same bytes discipline. Frame layout::

    offset  size  field
    0       4     magic  b"JMK1"
    4       1     wire version (3)
    5       1     message type code
    6       4     payload length, big-endian
    10      4     CRC32 over version, type, length and payload (BE)
    14      N     payload: canonical JSON

The CRC deliberately covers the version, type, and length bytes in
addition to the payload: a single bit flipped *anywhere* after the
magic is a checksum mismatch, so a frame can never silently decode as
a different message type than the one sent.

Damage is never silent: a frame that ends early raises
:class:`~repro.errors.FrameTruncatedError` (the streaming decoder
treats that as "wait for more bytes"), a bad magic/version/CRC/JSON
raises :class:`~repro.errors.FrameCorruptError`, a declared length
above :data:`MAX_FRAME_BYTES` raises
:class:`~repro.errors.FrameTooLargeError`, and a well-framed payload
with the wrong shape raises :class:`~repro.errors.WireSchemaError` —
mirroring the journal's torn-tail/interior-damage split.

Verdict payloads reuse the :data:`SCHEMA_VERSION` canonical record
(:meth:`repro.core.report.PatchReport.to_dict`) plus a lossless
``detail`` block (attempts, mutations, durations, fault reports) so the
coordinator can rebuild the *full* :class:`PatchReport` — the
evaluation runner derives its per-attempt records from it, and the
differential suite pins the rebuilt report's canonical form
byte-identical to a local run. A worker checks each commit whole, so
a VERDICT item carries the finished report (and, when asked, its span
tree), never any scheduling data about how the check was split.

WORK and VERDICT frames are batches: one item per commit, in the same
order both ways; a frame's own ``seq`` is its first item's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import struct
import zlib

from repro.core.jmake import JMakeOptions
from repro.core.mutation import Mutation
from repro.core.report import (
    SCHEMA_VERSION,
    ArchAttempt,
    FileReport,
    FileStatus,
    PatchReport,
)
from repro.errors import (
    FrameCorruptError,
    FrameTooLargeError,
    FrameTruncatedError,
    WireSchemaError,
)
from repro.faults.inject import FaultReport

#: first bytes of every frame; a stream that does not start with them
#: is not (or no longer) speaking this protocol
MAGIC = b"JMK1"
#: bumped on incompatible frame-layout or message-schema changes
#: (2: VERDICT frames dropped their per-stage unit counts; 3: WORK and
#: VERDICT frames carry batches of items)
WIRE_VERSION = 3
#: refuse frames that declare more than this much payload — a corrupt
#: length field must not stall the stream waiting for gigabytes
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: ceiling on one connection's CHALLENGE->HELLO->WELCOME exchange, on
#: either side: a peer that connects and goes silent must not pin the
#: coordinator's acceptor, nor a dialing worker, forever
HANDSHAKE_TIMEOUT_SECONDS = 10.0

#: magic | version | type | length | crc32
_HEADER = struct.Struct(">4sBBII")
HEADER_BYTES = _HEADER.size

# -- message type codes -----------------------------------------------------

#: worker -> coordinator, once, after warm preload finished
MSG_HELLO = 1
#: coordinator -> worker: check a batch of commits
MSG_WORK = 2
#: worker -> coordinator: the finished batch's full verdicts
MSG_VERDICT = 3
#: a structured refusal (the coordinator rejecting a handshake)
MSG_ERROR = 4
#: coordinator -> worker: drain and exit cleanly
MSG_SHUTDOWN = 5
#: coordinator -> worker, first frame on accept: authenticate against
#: this nonce (shared-key HMAC challenge/response)
MSG_CHALLENGE = 6
#: coordinator -> worker: handshake accepted; carries the lease epoch,
#: the corpus fingerprint, and (for external workers) the CorpusSpec
#: to rebuild deterministically instead of pickling
MSG_WELCOME = 7
#: worker -> coordinator: liveness beacon under the current lease
MSG_HEARTBEAT = 8

MESSAGE_TYPES = (MSG_HELLO, MSG_WORK, MSG_VERDICT, MSG_ERROR,
                 MSG_SHUTDOWN, MSG_CHALLENGE, MSG_WELCOME,
                 MSG_HEARTBEAT)

#: required payload fields per message type (schema validation runs on
#: both encode and decode: a malformed message must fail loudly at the
#: sender, not poison the peer)
_MESSAGE_FIELDS = {
    MSG_HELLO: ("worker_id", "pid", "start_method"),
    MSG_WORK: ("seq", "items", "chaos", "lease", "trace"),
    MSG_VERDICT: ("seq", "items", "metrics", "cache", "events",
                  "worker_id", "lease"),
    MSG_ERROR: ("seq", "error", "kind"),
    MSG_SHUTDOWN: (),
    MSG_CHALLENGE: ("nonce",),
    MSG_WELCOME: ("worker_id", "lease", "fingerprint",
                  "heartbeat_seconds", "lease_seconds"),
    MSG_HEARTBEAT: ("worker_id", "lease"),
}

#: required fields of every item of a batched message
_ITEM_FIELDS = {
    MSG_WORK: ("seq", "request_id", "commit_id", "options"),
    MSG_VERDICT: ("seq", "request_id", "commit_id", "report",
                  "quarantine", "span_tree", "error"),
}


def _frame_crc(msg_type: int, length: int, body: bytes) -> int:
    """CRC32 over (version, type, length, payload) — see the module
    docstring for why the header fields are covered."""
    seed = zlib.crc32(struct.pack(">BBI", WIRE_VERSION, msg_type,
                                  length))
    return zlib.crc32(body, seed)


def encode_payload(payload: dict) -> bytes:
    """Canonical JSON bytes (the journal's exact discipline)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def encode_frame(msg_type: int, payload: dict) -> bytes:
    """One complete frame for a validated message."""
    validate_message(msg_type, payload)
    body = encode_payload(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"refusing to encode a {len(body)}-byte payload "
            f"(limit {MAX_FRAME_BYTES})",
            declared=len(body), limit=MAX_FRAME_BYTES)
    return _HEADER.pack(MAGIC, WIRE_VERSION, msg_type, len(body),
                        _frame_crc(msg_type, len(body), body)) + body


def decode_frame(data: bytes, offset: int = 0) -> tuple[int, dict, int]:
    """Decode one frame at ``offset``; returns (type, payload, end).

    Raises :class:`FrameTruncatedError` when the buffer ends inside the
    frame, :class:`FrameTooLargeError` on an oversized declared length,
    :class:`FrameCorruptError` on bad magic/version/CRC/JSON, and
    :class:`WireSchemaError` when the payload fails message validation.
    """
    view = memoryview(data)
    if offset + HEADER_BYTES > len(view):
        raise FrameTruncatedError(
            f"frame header truncated at offset {offset}: need "
            f"{HEADER_BYTES} bytes, have {len(view) - offset}",
            needed=HEADER_BYTES, have=len(view) - offset)
    magic, version, msg_type, length, crc = _HEADER.unpack_from(
        view, offset)
    if magic != MAGIC:
        raise FrameCorruptError(
            f"bad frame magic {bytes(magic)!r} at offset {offset}",
            offset=offset)
    if version != WIRE_VERSION:
        raise FrameCorruptError(
            f"unknown wire version {version} at offset {offset} "
            f"(this build speaks {WIRE_VERSION})", offset=offset)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame at offset {offset} declares {length} payload "
            f"bytes (limit {MAX_FRAME_BYTES})",
            declared=length, limit=MAX_FRAME_BYTES)
    start = offset + HEADER_BYTES
    end = start + length
    if end > len(view):
        raise FrameTruncatedError(
            f"frame payload truncated at offset {offset}: need "
            f"{length} bytes, have {len(view) - start}",
            needed=length, have=len(view) - start)
    body = bytes(view[start:end])
    if _frame_crc(msg_type, length, body) != crc:
        raise FrameCorruptError(
            f"frame CRC mismatch at offset {offset}", offset=offset)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameCorruptError(
            f"frame payload at offset {offset} is not valid JSON: "
            f"{error}", offset=offset) from error
    if not isinstance(payload, dict):
        raise FrameCorruptError(
            f"frame payload at offset {offset} is not an object",
            offset=offset)
    validate_message(msg_type, payload)
    return msg_type, payload, end


def validate_message(msg_type: int, payload: dict) -> None:
    """Typed schema check: unknown types, missing fields, and empty or
    incomplete batches raise."""
    fields = _MESSAGE_FIELDS.get(msg_type)
    if fields is None:
        raise WireSchemaError(
            f"unknown message type {msg_type!r} (known: "
            f"{', '.join(str(code) for code in MESSAGE_TYPES)})")
    _require(payload, fields, f"message type {msg_type}")
    if msg_type in _ITEM_FIELDS:
        items = payload["items"]
        if not isinstance(items, list) or not items:
            raise WireSchemaError(
                f"message type {msg_type} carries no items")
        for index, item in enumerate(items):
            _require(item, _ITEM_FIELDS[msg_type],
                     f"item {index} of message type {msg_type}")


def _require(payload, fields: tuple, what: str) -> None:
    missing = [name for name in fields
               if not isinstance(payload, dict) or name not in payload]
    if missing:
        raise WireSchemaError(
            f"{what} missing required field(s) {', '.join(missing)}")


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed whatever chunks arrive; iterate to pop complete ``(type,
    payload)`` messages. A partial frame simply waits for more bytes;
    structural damage raises immediately (there is no way to resync a
    corrupted stream, and pretending otherwise would drop messages
    silently).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: absolute bytes consumed off the front of the stream (error
        #: offsets stay meaningful across compactions)
        self._consumed = 0

    def feed(self, data: bytes) -> None:
        """Append raw bytes received from the peer."""
        self._buffer.extend(data)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decoded into messages."""
        return len(self._buffer)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, dict]:
        try:
            msg_type, payload, end = decode_frame(
                bytes(self._buffer))
        except FrameTruncatedError:
            raise StopIteration
        except (FrameCorruptError, FrameTooLargeError) as error:
            # rebase the reported offset onto the whole stream
            if isinstance(error, FrameCorruptError):
                error.offset += self._consumed
            raise
        del self._buffer[:end]
        self._consumed += end
        return msg_type, payload


# -- message constructors ---------------------------------------------------

def hello_message(worker_id: int, pid: int, start_method: str, *,
                  tree_id: str = "", auth: str = "") -> dict:
    """The worker's ready announcement.

    ``worker_id`` is the slot the worker was spawned for, or ``-1``
    for an external ``jmake worker --connect`` joining whatever slot
    is free. ``auth`` is the HMAC response to the coordinator's
    CHALLENGE nonce (:func:`auth_token`).
    """
    return {"worker_id": worker_id, "pid": pid,
            "start_method": start_method, "tree_id": tree_id,
            "auth": auth}


def work_item(seq: int, request_id: str, commit_id: str, *,
              options: "JMakeOptions | None" = None) -> dict:
    """One commit of a WORK batch."""
    return {"seq": seq, "request_id": request_id,
            "commit_id": commit_id,
            "options": options_to_wire(options)}


def work_message(items: list, *, chaos: str | None = None,
                 lease: int = 0, trace: bool = False) -> dict:
    """One WORK frame — one *pickup* — holding :func:`work_item` dicts.

    ``chaos`` carries the coordinator's worker-site fault decision for
    the pickup (drawn on the coordinator, keyed by worker slot + pickup
    sequence, so it survives worker restarts; the *effect* happens in
    the child, where detection paths are real). ``lease`` is the
    fencing token the verdict must echo; ``trace`` asks for span trees.
    """
    items = list(items)
    return {"seq": items[0]["seq"] if items else None,
            "items": items,
            "chaos": chaos,
            "lease": lease,
            "trace": trace}


def verdict_item(seq: int, request_id: str, commit_id: str, *,
                 report: "PatchReport | None" = None,
                 quarantine: "dict | None" = None,
                 span_tree: "dict | None" = None,
                 error: "str | None" = None) -> dict:
    """One commit of a VERDICT batch: its full verdict, quarantine and
    (when the WORK frame asked) serialized span tree — or, when the
    check raised, ``error`` and no report."""
    return {"seq": seq, "request_id": request_id,
            "commit_id": commit_id,
            "report": report_to_wire(report) if report is not None
            else None,
            "quarantine": dict(quarantine or {}),
            "span_tree": span_tree,
            "error": error}


def verdict_message(seq: int, items: list, *, metrics: dict,
                    cache: "dict | None", events: list,
                    worker_id: int, lease: int = 0) -> dict:
    """One finished WORK batch: a :func:`verdict_item` per commit, in
    the WORK frame's order, plus the batch's telemetry to merge (one
    metrics delta, one cache-stats delta or None, buffered events).
    ``seq`` and ``lease`` echo the WORK frame's; a verdict under a stale
    lease epoch is discarded (its batch was already requeued).
    """
    return {"seq": seq, "items": list(items),
            "metrics": metrics,
            "cache": cache,
            "events": list(events),
            "worker_id": worker_id,
            "lease": lease}


def error_message(seq: int, error: str, kind: str) -> dict:
    """A structured refusal (``seq`` 0 outside any assignment)."""
    return {"seq": seq, "error": error, "kind": kind}


def shutdown_message() -> dict:
    """Drain-and-exit control message."""
    return {}


def challenge_message(nonce: str) -> dict:
    """The coordinator's auth challenge (first frame after accept)."""
    return {"nonce": nonce}


def welcome_message(worker_id: int, lease: int, fingerprint: str,
                    heartbeat_seconds: float, lease_seconds: float, *,
                    corpus: dict | None = None,
                    options: dict | None = None,
                    use_cache: bool = True,
                    fault_plan: dict | None = None,
                    retry_policy: dict | None = None) -> dict:
    """Handshake acceptance: slot assignment + session parameters.

    ``fingerprint`` is the coordinator corpus's head commit id — the
    worker verifies its own (rebuilt) corpus against it before serving.
    ``corpus`` is the deterministic :class:`CorpusSpec` payload an
    external worker rebuilds locally (None when the worker already has
    a corpus, e.g. a locally spawned process).
    """
    return {"worker_id": worker_id, "lease": lease,
            "fingerprint": fingerprint,
            "heartbeat_seconds": heartbeat_seconds,
            "lease_seconds": lease_seconds,
            "corpus": corpus, "options": options,
            "use_cache": use_cache, "fault_plan": fault_plan,
            "retry_policy": retry_policy}


def heartbeat_message(worker_id: int, lease: int) -> dict:
    """A liveness beacon under the worker's current lease epoch."""
    return {"worker_id": worker_id, "lease": lease}


# -- shared-key authentication ----------------------------------------------

def auth_token(key: str, nonce: str) -> str:
    """The HMAC-SHA256 response to a CHALLENGE nonce.

    Keyed by the fleet's shared secret; comparing with
    ``hmac.compare_digest`` on the coordinator makes the check
    constant-time. The nonce is fresh per connection, so a captured
    token never replays.
    """
    return hmac.new(key.encode("utf-8"), nonce.encode("utf-8"),
                    hashlib.sha256).hexdigest()


def verify_auth(key: str, nonce: str, offered: str) -> bool:
    """Constant-time check of a HELLO's ``auth`` field."""
    return hmac.compare_digest(auth_token(key, nonce),
                               str(offered or ""))


# -- JMakeOptions codec -----------------------------------------------------

def options_to_wire(options: "JMakeOptions | None") -> dict | None:
    """JSON-ready options (None passes through: worker defaults)."""
    if options is None:
        return None
    return dataclasses.asdict(options)


def options_from_wire(payload: dict | None) -> "JMakeOptions | None":
    """Rebuild options; unknown fields raise :class:`WireSchemaError`."""
    if payload is None:
        return None
    known = {field.name for field in dataclasses.fields(JMakeOptions)}
    unknown = set(payload) - known
    if unknown:
        raise WireSchemaError(
            f"unknown JMakeOptions field(s) on the wire: "
            f"{', '.join(sorted(unknown))}")
    return JMakeOptions(**payload)


# -- CorpusSpec codec -------------------------------------------------------

def corpus_spec_to_wire(spec) -> dict:
    """The corpus *recipe* (never the corpus): seed + scale knobs.

    A worker on another host rebuilds the corpus deterministically from
    this, which is both smaller and safer than pickling — nothing
    executable crosses the wire. Specs carrying an explicit
    ``tree_spec`` object are refused: only the pure-scalar recipe is
    guaranteed to reproduce byte-identically from a JSON round trip.
    """
    if getattr(spec, "tree_spec", None) is not None:
        raise WireSchemaError(
            "cannot ship a CorpusSpec with an explicit tree_spec over "
            "the wire; only the scalar (seed, counts) recipe rebuilds "
            "deterministically")
    return {"seed": spec.seed,
            "history_commits": spec.history_commits,
            "eval_commits": spec.eval_commits,
            "regular_developers": spec.regular_developers}


def corpus_spec_from_wire(payload: dict):
    """Rebuild the spec; unknown fields raise :class:`WireSchemaError`."""
    from repro.workload.corpus import CorpusSpec
    if not isinstance(payload, dict):
        raise WireSchemaError(
            f"corpus spec payload must be an object, "
            f"got {type(payload).__name__}")
    known = {"seed", "history_commits", "eval_commits",
             "regular_developers"}
    unknown = set(payload) - known
    if unknown:
        raise WireSchemaError(
            f"unknown CorpusSpec field(s) on the wire: "
            f"{', '.join(sorted(unknown))}")
    missing = known - set(payload)
    if missing:
        raise WireSchemaError(
            f"corpus spec payload missing field(s): "
            f"{', '.join(sorted(missing))}")
    return CorpusSpec(**payload)


# -- RetryPolicy codec ------------------------------------------------------

def retry_policy_to_wire(policy) -> dict | None:
    """JSON-ready retry policy (None passes through)."""
    if policy is None:
        return None
    return dataclasses.asdict(policy)


def retry_policy_from_wire(payload: dict | None):
    """Rebuild a retry policy; unknown fields raise."""
    from repro.faults.resilience import RetryPolicy
    if payload is None:
        return None
    known = {field.name for field in dataclasses.fields(RetryPolicy)}
    unknown = set(payload) - known
    if unknown:
        raise WireSchemaError(
            f"unknown RetryPolicy field(s) on the wire: "
            f"{', '.join(sorted(unknown))}")
    return RetryPolicy(**payload)


# -- FaultPlan codec --------------------------------------------------------

def fault_plan_to_wire(plan) -> dict | None:
    """JSON-ready fault plan (the ``--fault-plan`` format)."""
    if plan is None:
        return None
    return plan.to_dict()


def fault_plan_from_wire(payload: dict | None):
    """Rebuild a fault plan; malformed plans raise."""
    from repro.errors import FaultPlanError
    from repro.faults.plan import FaultPlan
    if payload is None:
        return None
    try:
        return FaultPlan.from_dict(payload)
    except FaultPlanError as error:
        raise WireSchemaError(
            f"malformed fault plan on the wire: {error}") from error


# -- PatchReport codec ------------------------------------------------------

def _attempt_to_wire(attempt: ArchAttempt) -> dict:
    return {"arch": attempt.arch,
            "config_target": attempt.config_target,
            "i_ok": attempt.i_ok,
            "tokens_found": sorted(attempt.tokens_found),
            "o_ok": attempt.o_ok,
            "error": attempt.error}


def _attempt_from_wire(payload: dict) -> ArchAttempt:
    return ArchAttempt(arch=payload["arch"],
                       config_target=payload["config_target"],
                       i_ok=payload["i_ok"],
                       tokens_found=set(payload["tokens_found"]),
                       o_ok=payload["o_ok"],
                       error=payload["error"])


def _file_to_wire(path: str, report: FileReport) -> dict:
    return {
        "path": path,
        "status": report.status.value,
        "mutations": [dataclasses.asdict(mutation)
                      for mutation in report.mutations],
        "missing_tokens": sorted(report.missing_tokens),
        "attempts": [_attempt_to_wire(attempt)
                     for attempt in report.attempts],
        "useful_archs": list(report.useful_archs),
        "comment_lines": list(report.comment_lines),
        "macro_hints": list(report.macro_hints),
        "advisories": list(report.advisories),
        "candidate_compilations": report.candidate_compilations,
    }


def _file_from_wire(payload: dict) -> FileReport:
    try:
        status = FileStatus(payload["status"])
    except ValueError as error:
        raise WireSchemaError(
            f"unknown file status {payload['status']!r}") from error
    return FileReport(
        path=payload["path"],
        status=status,
        mutations=[Mutation(**mutation)
                   for mutation in payload["mutations"]],
        missing_tokens=set(payload["missing_tokens"]),
        attempts=[_attempt_from_wire(attempt)
                  for attempt in payload["attempts"]],
        useful_archs=list(payload["useful_archs"]),
        comment_lines=list(payload["comment_lines"]),
        macro_hints=list(payload["macro_hints"]),
        advisories=list(payload["advisories"]),
        candidate_compilations=payload["candidate_compilations"],
    )


def report_to_wire(report: PatchReport) -> dict:
    """Canonical :data:`SCHEMA_VERSION` record plus the lossless detail.

    The ``record`` half is exactly :meth:`PatchReport.to_dict` — what
    dashboards and the journal consume; the ``detail`` half carries
    everything ``to_dict`` drops (per-attempt results, mutations,
    durations, fault reports) so the receiver rebuilds a full report.
    Files are a *list* in insertion order: record iteration order is
    part of the canonical-byte contract, and JSON objects with sorted
    keys would destroy it.
    """
    return {
        "record": report.to_dict(),
        "detail": {
            "elapsed_seconds": report.elapsed_seconds,
            "author_name": report.author_name,
            "author_email": report.author_email,
            "invocation_counts": dict(report.invocation_counts),
            "invocation_durations": {
                kind: list(durations)
                for kind, durations in
                report.invocation_durations.items()},
            "quarantined_archs": list(report.quarantined_archs),
            "fault_reports": [fault.to_dict()
                              for fault in report.fault_reports],
            "files": [_file_to_wire(path, file_report)
                      for path, file_report in
                      report.file_reports.items()],
        },
    }


def report_from_wire(payload: dict) -> PatchReport:
    """Rebuild the full :class:`PatchReport` and prove losslessness.

    The rebuilt report's ``to_dict()`` must equal the shipped canonical
    record — ``certified``/``verdict`` are *derived* on the rebuilt
    state, so the equality is a real end-to-end check of the codec, not
    a tautology. A mismatch raises :class:`WireSchemaError` instead of
    silently handing back a subtly different verdict.
    """
    record = payload.get("record")
    detail = payload.get("detail")
    if not isinstance(record, dict) or not isinstance(detail, dict):
        raise WireSchemaError(
            "verdict payload needs 'record' and 'detail' objects")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise WireSchemaError(
            f"cannot decode verdict with schema_version={version!r} "
            f"(this codec speaks {SCHEMA_VERSION})")
    report = PatchReport(
        commit_id=record.get("commit"),
        elapsed_seconds=detail["elapsed_seconds"],
        author_name=detail.get("author_name"),
        author_email=detail.get("author_email"),
        invocation_counts=dict(detail["invocation_counts"]),
        invocation_durations={
            kind: list(durations)
            for kind, durations in
            detail["invocation_durations"].items()},
        quarantined_archs=list(detail["quarantined_archs"]),
        fault_reports=[FaultReport(**fault)
                       for fault in detail["fault_reports"]],
    )
    for file_payload in detail["files"]:
        file_report = _file_from_wire(file_payload)
        report.file_reports[file_report.path] = file_report
    rebuilt = report.to_dict()
    if rebuilt != record:
        raise WireSchemaError(
            f"verdict for {record.get('commit')!r} did not survive "
            f"the wire: rebuilt canonical record differs from the "
            f"shipped one")
    return report
