"""WAL framing, replay, torn-tail truncation, interior corruption."""

import struct
import zlib

import pytest

from repro.errors import (
    JournalCorruptError,
    JournalError,
    SimulatedCrashError,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.journal.wal import Journal, frame_record, scan_frames

HEADER = struct.Struct(">II")


def records(count):
    return [{"k": f"commit-{index}", "r": {"verdict": "CERTIFIED",
                                           "elapsed": 0.1 * index}}
            for index in range(count)]


def write_journal(path, entries):
    journal = Journal(str(path))
    for entry in entries:
        journal.append(entry)
    journal.close()
    return journal


class TestFraming:
    def test_frame_is_header_plus_canonical_json(self):
        record = {"b": 2, "a": 1}
        frame = frame_record(record)
        length, crc = HEADER.unpack_from(frame, 0)
        payload = frame[HEADER.size:]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        # canonical: sorted keys, compact separators
        assert payload == b'{"a":1,"b":2}'

    def test_unserializable_record_is_a_typed_error(self):
        with pytest.raises(JournalError):
            frame_record({"bad": object()})

    def test_nan_is_refused(self):
        with pytest.raises(JournalError):
            frame_record({"elapsed": float("nan")})

    def test_scan_empty_is_clean(self):
        result = scan_frames(b"")
        assert result.records == []
        assert result.truncated_bytes == 0


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.jnl"
        entries = records(7)
        write_journal(path, entries)
        replay = Journal(str(path)).replay()
        assert replay.records == entries
        assert replay.truncated_bytes == 0

    def test_missing_file_replays_empty(self, tmp_path):
        replay = Journal(str(tmp_path / "absent.jnl")).replay()
        assert replay.records == []

    def test_append_returns_running_count(self, tmp_path):
        journal = Journal(str(tmp_path / "wal.jnl"))
        assert journal.append({"n": 1}) == 1
        assert journal.append({"n": 2}) == 2
        journal.close()

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "wal.jnl"
        value = 0.1 + 0.2  # 0.30000000000000004
        write_journal(path, [{"f": value}])
        replay = Journal(str(path)).replay()
        assert repr(replay.records[0]["f"]) == repr(value)


class TestTornTail:
    @pytest.mark.parametrize("cut", [1, 3, 7, 30])
    def test_torn_final_frame_is_truncated(self, tmp_path, cut):
        path = tmp_path / "wal.jnl"
        entries = records(5)
        write_journal(path, entries)
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        replay = Journal(str(path)).replay()
        assert replay.records == entries[:4]
        assert replay.truncated_bytes > 0
        assert replay.truncated_reason

    def test_truncation_repairs_the_file_in_place(self, tmp_path):
        path = tmp_path / "wal.jnl"
        entries = records(5)
        write_journal(path, entries)
        path.write_bytes(path.read_bytes()[:-3])
        Journal(str(path)).replay()
        # second replay sees a clean journal
        replay = Journal(str(path)).replay()
        assert replay.truncated_bytes == 0
        assert replay.records == entries[:4]

    def test_appends_continue_after_repair(self, tmp_path):
        path = tmp_path / "wal.jnl"
        entries = records(3)
        write_journal(path, entries)
        path.write_bytes(path.read_bytes()[:-2])
        journal = Journal(str(path))
        journal.replay()
        journal.append({"k": "fresh", "r": {}})
        journal.close()
        replay = Journal(str(path)).replay()
        assert replay.records == entries[:2] + [{"k": "fresh", "r": {}}]

    def test_partial_header_alone_is_torn(self, tmp_path):
        path = tmp_path / "wal.jnl"
        path.write_bytes(b"\x00\x00\x00")
        replay = Journal(str(path)).replay()
        assert replay.records == []
        assert "header" in replay.truncated_reason


class TestInteriorCorruption:
    def test_interior_crc_mismatch_is_typed(self, tmp_path):
        path = tmp_path / "wal.jnl"
        write_journal(path, records(5))
        data = bytearray(path.read_bytes())
        data[HEADER.size + 2] ^= 0xFF  # first frame's payload
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError) as excinfo:
            Journal(str(path)).replay()
        assert excinfo.value.offset == 0
        assert excinfo.value.path == str(path)

    def test_final_frame_crc_mismatch_is_torn_not_corrupt(self,
                                                          tmp_path):
        path = tmp_path / "wal.jnl"
        entries = records(3)
        write_journal(path, entries)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte of the physically last frame
        path.write_bytes(bytes(data))
        replay = Journal(str(path)).replay()
        assert replay.records == entries[:2]
        assert "CRC" in replay.truncated_reason

    def test_implausible_interior_length_is_typed(self, tmp_path):
        path = tmp_path / "wal.jnl"
        write_journal(path, records(4))
        data = bytearray(path.read_bytes())
        # trash the first frame's length field with an absurd value
        struct.pack_into(">I", data, 0, 0xFFFFFFF0)
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            Journal(str(path)).replay()

    def test_valid_crc_but_non_json_payload_is_typed(self, tmp_path):
        path = tmp_path / "wal.jnl"
        payload = b"not json at all"
        frame = HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        good = frame_record({"k": "x"})
        path.write_bytes(frame + good)
        with pytest.raises(JournalCorruptError):
            Journal(str(path)).replay()


class TestTornWriteFault:
    def plan(self):
        return FaultPlan(seed="torn", specs=[
            FaultSpec(kind="torn_journal_write", site="journal_append",
                      rate=1.0, times=1)])

    def test_injected_torn_write_crashes_with_a_strict_prefix(
            self, tmp_path):
        path = tmp_path / "wal.jnl"
        journal = Journal(str(path), injector=FaultInjector(self.plan()))
        with pytest.raises(SimulatedCrashError):
            journal.append({"k": "first", "r": {}})
        journal.close()
        frame = frame_record({"k": "first", "r": {}})
        written = path.read_bytes()
        # a deterministic strict prefix of the frame reached the disk
        assert 0 < len(written) < len(frame)
        assert frame.startswith(written)

    def test_replay_recovers_then_the_survivor_resumes(self, tmp_path):
        path = tmp_path / "wal.jnl"
        journal = Journal(str(path), injector=FaultInjector(self.plan()))
        with pytest.raises(SimulatedCrashError):
            journal.append({"k": "first", "r": {}})
        journal.close()
        # the restarted process replays (truncating the torn tail)
        # before it appends anything
        survivor = Journal(str(path))
        replay = survivor.replay()
        assert replay.records == []
        assert replay.truncated_bytes > 0
        survivor.append({"k": "first", "r": {}})
        survivor.close()
        assert Journal(str(path)).replay().records == \
            [{"k": "first", "r": {}}]

    def test_torn_cut_point_is_deterministic(self, tmp_path):
        path = tmp_path / "wal.jnl"
        sizes = []
        for _ in range(2):
            journal = Journal(str(path),
                              injector=FaultInjector(self.plan()))
            with pytest.raises(SimulatedCrashError):
                journal.append({"k": "only", "r": {"x": 1}})
            journal.close()
            sizes.append(path.stat().st_size)
            path.unlink()
        assert sizes[0] == sizes[1]
