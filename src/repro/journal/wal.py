"""The append-only, fsync-disciplined write-ahead journal.

On-disk format: a flat sequence of frames, each

    +----------------+----------------+------------------+
    | length (4B BE) | CRC32 (4B BE)  | payload (length) |
    +----------------+----------------+------------------+

where the payload is one record serialized as canonical JSON (sorted
keys, compact separators, ``allow_nan=False``). Appends write the
whole frame, flush, and fsync before returning (``fsync=False`` drops
the fsync for benchmarks/tests), so a record that :meth:`Journal.append`
returned for is durable.

Replay walks the frames and classifies damage by *where* it sits:

- a frame that runs past end-of-file (partial header, short payload,
  or a CRC mismatch on the physically last frame) is the signature of
  a torn final write — the expected way a crash looks — and is
  truncated away, after which appends continue from the clean tail;
- a CRC mismatch on an *interior* frame (valid data follows it) means
  the file was corrupted at rest, which replay must never paper over:
  it raises :class:`~repro.errors.JournalCorruptError`.

The ``torn_journal_write`` fault kind (site ``journal_append``) cuts a
frame short mid-write and raises
:class:`~repro.errors.SimulatedCrashError`, producing exactly the torn
tail the replay path recovers from.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import (
    JournalCorruptError,
    JournalError,
    SimulatedCrashError,
)
from repro.faults.inject import NULL_INJECTOR
from repro.faults.plan import (
    KIND_TORN_JOURNAL_WRITE,
    SITE_JOURNAL_APPEND,
    unit_draw,
)
from repro.obs.logcfg import get_logger

_logger = get_logger("journal")

#: frame header: payload length, payload CRC32 (both big-endian u32)
_HEADER = struct.Struct(">II")

#: refuse absurd frame lengths outright (a corrupt length field would
#: otherwise make replay try to read gigabytes before failing the CRC)
MAX_RECORD_BYTES = 64 * 1024 * 1024


def encode_record(record: dict) -> bytes:
    """Canonical JSON payload bytes for one record."""
    try:
        text = json.dumps(record, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise JournalError(
            f"record is not journal-serializable: {error}") from error
    return text.encode("utf-8")


def frame_record(record: dict) -> bytes:
    """A full on-disk frame (header + payload) for one record."""
    payload = encode_record(record)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class ReplayResult:
    """What :meth:`Journal.replay` recovered."""

    #: the intact records, in append order
    records: list = field(default_factory=list)
    #: bytes cut off the tail (0 on a clean journal)
    truncated_bytes: int = 0
    #: human-readable reason the tail was truncated ("" when clean)
    truncated_reason: str = ""


def scan_frames(data: bytes, *, path: str = "<journal>") -> ReplayResult:
    """Parse a journal byte string into records + torn-tail verdict."""
    result = ReplayResult()
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            result.truncated_bytes = size - offset
            result.truncated_reason = (
                f"partial frame header at offset {offset}")
            break
        length, crc = _HEADER.unpack_from(data, offset)
        payload_start = offset + _HEADER.size
        payload_end = payload_start + length
        if length > MAX_RECORD_BYTES:
            # a trashed length field; only tolerable on the last frame
            if _looks_like_tail(data, size, payload_start):
                result.truncated_bytes = size - offset
                result.truncated_reason = (
                    f"implausible frame length {length} at offset "
                    f"{offset}")
                break
            raise JournalCorruptError(
                f"{path}: implausible interior frame length {length} "
                f"at offset {offset}", path=path, offset=offset)
        if payload_end > size:
            result.truncated_bytes = size - offset
            result.truncated_reason = (
                f"short payload at offset {offset} "
                f"(need {length}, have {size - payload_start})")
            break
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            if payload_end == size:
                # physically last frame: a torn in-place write
                result.truncated_bytes = size - offset
                result.truncated_reason = (
                    f"CRC mismatch on final frame at offset {offset}")
                break
            raise JournalCorruptError(
                f"{path}: CRC mismatch on interior frame at offset "
                f"{offset} ({size - payload_end} valid bytes follow)",
                path=path, offset=offset)
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            # CRC passed but the payload is not a record: corruption
            # that happened before framing; never silently skipped
            raise JournalCorruptError(
                f"{path}: undecodable record at offset {offset}: "
                f"{error}", path=path, offset=offset) from error
        result.records.append(record)
        offset = payload_end
    return result


def _looks_like_tail(data: bytes, size: int, payload_start: int) -> bool:
    """True when no plausible frame follows ``payload_start``."""
    return size - payload_start < _HEADER.size


class Journal:
    """One append-only journal file.

    ``fsync=True`` (the default) makes every append durable before it
    returns; ``fsync=False`` trades durability for speed (still
    append-ordered; :meth:`sync` makes it durable). ``injector`` wires
    the chaos plan in: ``torn_journal_write`` faults cut the frame
    short and raise :class:`SimulatedCrashError`.
    """

    def __init__(self, path: str, *, fsync: bool = True,
                 injector=None) -> None:
        self.path = path
        self.fsync = fsync
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._handle = None
        #: frames appended by this process
        self.appended = 0

    # -- replay ----------------------------------------------------------------

    def replay(self) -> ReplayResult:
        """Read every intact record; repair a torn tail in place.

        Missing file → empty result (the normal first-run case).
        A torn final frame is logged, truncated off the file (so later
        appends extend a clean tail), and reported in the result; a
        corrupt interior frame raises
        :class:`~repro.errors.JournalCorruptError`.
        """
        self.close()
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return ReplayResult()
        result = scan_frames(data, path=self.path)
        if result.truncated_bytes:
            keep = len(data) - result.truncated_bytes
            _logger.warning(
                "journal %s: truncating torn tail (%d byte(s): %s); "
                "%d record(s) recovered", self.path,
                result.truncated_bytes, result.truncated_reason,
                len(result.records))
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
        return result

    # -- append ----------------------------------------------------------------

    def _open_for_append(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: dict) -> int:
        """Durably append one record; returns this process's 1-based
        append count."""
        frame = frame_record(record)
        handle = self._open_for_append()
        spec = self.injector.fire(SITE_JOURNAL_APPEND, path=self.path)
        if spec is not None and spec.kind == KIND_TORN_JOURNAL_WRITE:
            # model the write being cut short by process death: a
            # deterministic prefix of the frame reaches the disk, then
            # the "process" dies
            draw = unit_draw(self.injector.plan.seed, "torn-cut",
                             self.path, self.appended, len(frame))
            cut = 1 + int(draw * (len(frame) - 1))
            handle.write(frame[:cut])
            handle.flush()
            os.fsync(handle.fileno())
            raise SimulatedCrashError(
                f"torn journal write: {cut}/{len(frame)} bytes of "
                f"frame {self.appended + 1} reached {self.path}")
        handle.write(frame)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.appended += 1
        return self.appended

    # -- maintenance -----------------------------------------------------------

    def sync(self) -> None:
        """Flush and fsync the append handle (nothing when none is open)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def size_bytes(self) -> int:
        """Current on-disk size (0 when absent)."""
        if self._handle is not None:
            self._handle.flush()
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        """Close the append handle (reopened lazily on next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
