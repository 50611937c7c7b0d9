"""Exception hierarchy for the JMake reproduction.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch one base type at API boundaries while tests can assert on precise
failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class VcsError(ReproError):
    """Raised by the version-control substrate (bad refs, bad objects)."""


class PatchFormatError(VcsError):
    """Raised when unified-diff text cannot be parsed."""


class PatchApplyError(VcsError):
    """Raised when a patch does not apply to the given source text."""


class PreprocessorError(ReproError):
    """Raised by the C preprocessor substrate.

    Carries the file and line of the offending directive when known.
    """

    def __init__(self, message: str, *, file: str | None = None,
                 line: int | None = None) -> None:
        location = ""
        if file is not None:
            location = f"{file}:{line if line is not None else '?'}: "
        super().__init__(f"{location}{message}")
        self.file = file
        self.line = line


class IncludeNotFoundError(PreprocessorError):
    """Raised when an ``#include`` target cannot be resolved."""


class MacroError(PreprocessorError):
    """Raised on malformed macro definitions or expansions."""


class CompileError(ReproError):
    """Raised by the compiler front end when a translation unit is invalid.

    ``diagnostics`` holds the individual :class:`repro.cc.compiler.Diagnostic`
    records that caused the failure.
    """

    def __init__(self, message: str, diagnostics: list | None = None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ToolchainError(ReproError):
    """Raised when a requested cross-toolchain is unavailable."""


class KconfigError(ReproError):
    """Raised on malformed Kconfig input or unsatisfiable constraints."""


class KbuildError(ReproError):
    """Raised by the build orchestrator (missing Makefile, bad target)."""


class MakefileNotFoundError(KbuildError):
    """Raised when no Kbuild Makefile governs a source file."""


class FaultPlanError(ReproError):
    """Raised on malformed fault-injection plans (``--fault-plan``)."""


class WorkloadError(ReproError):
    """Raised by the synthetic corpus generator on inconsistent specs."""


class EvaluationError(ReproError):
    """Raised by the evaluation harness on malformed experiment requests."""


class SchemaError(ReproError):
    """Raised on serialized records that cannot be migrated to the
    current ``schema_version`` (unknown or future versions)."""


class ServiceError(ReproError):
    """Base class for check-service failures."""


class ServiceOverloadedError(ServiceError):
    """Raised when admission control rejects a request (queue full).

    Carries structured context so callers can distinguish overload from
    other submit failures and log something actionable: the admission
    ``queue_depth`` at rejection time, the configured ``limit``, and the
    ``shard_id`` of the deepest shard queue (None before the pool
    starts).
    """

    def __init__(self, message: str, *,
                 queue_depth: int = 0,
                 limit: int = 0,
                 shard_id: "int | None" = None) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit
        self.shard_id = shard_id


class ServiceDrainingError(ServiceError):
    """Raised when a request arrives after shutdown/drain began."""


class WorkerCrashError(ServiceError):
    """Raised inside a shard worker when an injected ``worker_crash``
    fault kills it; the supervisor treats the dead task as a crashed
    worker process."""


class TransportError(ServiceError):
    """Base class for shard-transport failures (worker processes,
    sockets, framing above the journal layer)."""


class WorkerLostError(TransportError):
    """Raised when a remote shard worker dies or its connection drops
    while work is in flight. Carries the worker index and how many
    assignments were requeued so supervision tests can assert on the
    recovery path.
    """

    def __init__(self, message: str, *, worker_id: int = -1,
                 requeued: int = 0) -> None:
        super().__init__(message)
        self.worker_id = worker_id
        self.requeued = requeued


class AuthError(TransportError):
    """Raised when the shared-key HMAC challenge/response handshake
    fails: the coordinator rejects the HELLO with a typed error frame
    and the worker surfaces it as this class (never retried — a wrong
    key cannot become right by reconnecting)."""


class CorpusMismatchError(TransportError):
    """Raised when a connecting worker's rebuilt corpus does not match
    the coordinator's fingerprint (head commit id). Checking commits
    against a different corpus would silently break byte-identity, so
    the session is refused instead.
    """

    def __init__(self, message: str, *, expected: str = "",
                 actual: str = "") -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class WireError(TransportError):
    """Base class for wire-codec failures (framing + message schema)."""


class FrameTruncatedError(WireError):
    """Raised when a byte buffer ends inside a frame (header or
    payload cut short). The streaming decoder treats this as "wait for
    more bytes"; the one-shot decoder surfaces it as corruption of a
    supposedly complete message.
    """

    def __init__(self, message: str, *, needed: int = 0,
                 have: int = 0) -> None:
        super().__init__(message)
        self.needed = needed
        self.have = have


class FrameCorruptError(WireError):
    """Raised on a structurally damaged frame: bad magic, unknown wire
    version, CRC32 mismatch, or an undecodable payload. ``offset`` is
    the byte offset of the bad frame within the buffer fed so far."""

    def __init__(self, message: str, *, offset: int = 0) -> None:
        super().__init__(message)
        self.offset = offset


class FrameTooLargeError(WireError):
    """Raised when a frame header declares a payload larger than
    ``repro.service.transport.wire.MAX_FRAME_BYTES`` — a corrupt length
    field would otherwise stall the stream waiting for gigabytes."""

    def __init__(self, message: str, *, declared: int = 0,
                 limit: int = 0) -> None:
        super().__init__(message)
        self.declared = declared
        self.limit = limit


class WireSchemaError(WireError):
    """Raised when a well-framed payload fails message validation:
    unknown message type, missing fields, or a record whose
    ``schema_version`` the codec does not speak."""


class SimulatedCrashError(ReproError):
    """Raised by the chaos harness to model sudden process death
    (power loss, OOM kill) at a deterministic point. Production code
    never catches it — that is the point: whatever was not yet durable
    when it fires is what a real crash would lose."""


class StoreError(ReproError):
    """Raised by the persistent verdict store (fleet mode): unusable
    database files, identity mismatches between a store and the journal
    feeding it, or malformed query filters."""


class JournalError(ReproError):
    """Base class for write-ahead journal failures."""


class JournalCorruptError(JournalError):
    """Raised when journal replay meets a corrupted *interior* record
    (CRC mismatch with valid data after it). A torn *final* record is
    the expected crash signature and is truncated instead.

    ``offset`` is the byte offset of the bad frame; ``path`` the
    journal file.
    """

    def __init__(self, message: str, *, path: str = "",
                 offset: int = 0) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset
