"""Property suite for the shard-transport wire codec.

The codec's contract is total: every frame either decodes to exactly
the message that was encoded, or raises a *typed* wire error — there
is no input that silently yields a different message, a partial
message, or nothing. Hypothesis drives that claim through arbitrary
messages — batched WORK and VERDICT frames of 1-16 items included —
arbitrary chunkings, truncation at every byte boundary, and single-bit
flips at every position.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jmake import JMakeOptions
from repro.core.mutation import Mutation
from repro.core.report import (
    ArchAttempt,
    FileReport,
    FileStatus,
    PatchReport,
)
from repro.errors import (
    FrameCorruptError,
    FrameTooLargeError,
    FrameTruncatedError,
    WireError,
    WireSchemaError,
)
from repro.faults.inject import FaultReport
from repro.service.transport import wire

# -- strategies -------------------------------------------------------------

# canonical JSON restricts keys to text and forbids NaN/Inf; everything
# else round-trips exactly (json floats are repr-based)
_scalars = (st.none() | st.booleans() |
            st.integers(min_value=-2**53, max_value=2**53) |
            st.floats(allow_nan=False, allow_infinity=False,
                      width=64) |
            st.text(max_size=20))
_json = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=3) |
                      st.dictionaries(st.text(max_size=8), children,
                                      max_size=3)),
    max_leaves=10)

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1,
    max_size=16)
_archs = st.sampled_from(["x86_64", "arm64", "powerpc", "riscv",
                          "mips", "sparc"])


_options = (st.none() | st.just(JMakeOptions()) |
            st.builds(JMakeOptions, batch_limit=st.integers(1, 99),
                      use_configs=st.booleans(),
                      use_allmodconfig=st.booleans(),
                      selection_seed=_names))
_chaos = st.none() | st.sampled_from(
    ["worker_kill", "socket_drop", "worker_hang"])
#: serialized span trees are plain JSON objects
_span_trees = st.none() | st.dictionaries(_names, _json, max_size=4)


@st.composite
def work_batches(draw):
    """(type, payload) for a WORK frame of 1-16 commits, each with its
    own seq, ids and options."""
    first = draw(st.integers(min_value=1, max_value=2**31))
    items = [wire.work_item(first + offset, draw(_names), draw(_names),
                            options=draw(_options))
             for offset in range(draw(st.integers(min_value=1,
                                                  max_value=16)))]
    return wire.MSG_WORK, wire.work_message(
        items, chaos=draw(_chaos),
        lease=draw(st.integers(min_value=0, max_value=2**20)),
        trace=draw(st.booleans()))


@st.composite
def control_messages(draw):
    """(type, payload) for HELLO/WORK/ERROR/SHUTDOWN frames."""
    kind = draw(st.sampled_from(["hello", "work", "error", "shutdown"]))
    if kind == "hello":
        return wire.MSG_HELLO, wire.hello_message(
            draw(st.integers(min_value=0, max_value=64)),
            draw(st.integers(min_value=1, max_value=2**22)),
            draw(st.sampled_from(["fork", "spawn", "forkserver"])),
            tree_id=draw(_names))
    if kind == "work":
        return draw(work_batches())
    if kind == "error":
        return wire.MSG_ERROR, wire.error_message(
            draw(st.integers(min_value=1, max_value=2**31)),
            draw(st.text(max_size=40)), draw(_names))
    return wire.MSG_SHUTDOWN, wire.shutdown_message()


@st.composite
def patch_reports(draw):
    """Arbitrary full PatchReports, attempt detail included."""
    files = {}
    for path in draw(st.lists(_names, max_size=3, unique=True)):
        attempts = [
            ArchAttempt(
                arch=draw(_archs), config_target=draw(_names),
                i_ok=draw(st.booleans()),
                tokens_found=set(draw(st.lists(_names, max_size=3))),
                o_ok=draw(st.booleans()),
                error=draw(st.none() | st.text(max_size=20)))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))]
        mutations = [
            Mutation(token=draw(_names),
                     kind=draw(st.sampled_from(["define", "code"])),
                     path=path,
                     line=draw(st.integers(min_value=1, max_value=500)),
                     insert_at=draw(st.integers(min_value=1,
                                                max_value=500)))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))]
        files[path] = FileReport(
            path=path,
            status=draw(st.sampled_from(list(FileStatus))),
            mutations=mutations,
            missing_tokens=set(draw(st.lists(_names, max_size=2))),
            attempts=attempts,
            useful_archs=draw(st.lists(_archs, max_size=2)),
            comment_lines=draw(st.lists(
                st.integers(min_value=1, max_value=500), max_size=2)),
            macro_hints=draw(st.lists(_names, max_size=2)),
            advisories=draw(st.lists(st.text(max_size=20), max_size=2)),
            candidate_compilations=draw(
                st.integers(min_value=0, max_value=9)))
    report = PatchReport(
        commit_id=draw(_names),
        elapsed_seconds=draw(st.floats(min_value=0, max_value=1e6,
                                       allow_nan=False)),
        invocation_counts=draw(st.dictionaries(
            st.sampled_from(["config", "make_i", "make_o"]),
            st.integers(min_value=0, max_value=99), max_size=3)),
        invocation_durations=draw(st.dictionaries(
            st.sampled_from(["config", "make_i", "make_o"]),
            st.lists(st.floats(min_value=0, max_value=1e4,
                               allow_nan=False), max_size=3),
            max_size=3)),
        quarantined_archs=draw(st.lists(_archs, max_size=2,
                                        unique=True)),
        fault_reports=[
            FaultReport(kind=draw(_names), site=draw(_names),
                        arch=draw(_archs), path=draw(_names),
                        scope=draw(_names),
                        attempt=draw(st.integers(min_value=1,
                                                 max_value=5)))
            for _ in range(draw(st.integers(min_value=0,
                                            max_value=2)))])
    report.file_reports = files
    return report


@st.composite
def verdict_batches(draw):
    """(reports, VERDICT payload) for a batch of 1-16 commits: each a
    full report with an optional span tree, or a failed check."""
    first = draw(st.integers(min_value=1, max_value=2**31))
    reports, items = [], []
    for offset in range(draw(st.integers(min_value=1, max_value=16))):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            reports.append(None)
            items.append(wire.verdict_item(
                first + offset, draw(_names), draw(_names),
                error={"error": draw(st.text(max_size=20)),
                       "kind": draw(_names)}))
            continue
        report = draw(patch_reports())
        reports.append(report)
        items.append(wire.verdict_item(
            first + offset, draw(_names), report.commit_id,
            report=report,
            quarantine=draw(st.dictionaries(_archs, _names,
                                            max_size=2)),
            span_tree=draw(_span_trees)))
    payload = wire.verdict_message(
        first, items,
        metrics={"counters": draw(st.dictionaries(
            _names, st.integers(min_value=0, max_value=999),
            max_size=3))},
        cache=draw(st.none() | st.just({"counters": {
            "cache.preprocess.hits": 3}})),
        events=[], worker_id=draw(st.integers(min_value=0, max_value=8)),
        lease=draw(st.integers(min_value=0, max_value=2**20)))
    return reports, payload


# -- round-trip identity ----------------------------------------------------

class TestRoundTrip:
    @given(message=control_messages())
    @settings(max_examples=60, deadline=None)
    def test_control_frames(self, message):
        msg_type, payload = message
        frame = wire.encode_frame(msg_type, payload)
        got_type, got_payload, end = wire.decode_frame(frame)
        assert (got_type, got_payload) == (msg_type, payload)
        assert end == len(frame)

    @given(message=control_messages(),
           prefix=control_messages())
    @settings(max_examples=30, deadline=None)
    def test_decode_at_offset(self, message, prefix):
        """Frames decode mid-stream: offset arithmetic is exact."""
        first = wire.encode_frame(*prefix)
        second = wire.encode_frame(*message)
        data = first + second
        _, _, end = wire.decode_frame(data)
        assert end == len(first)
        got_type, got_payload, end = wire.decode_frame(data, end)
        assert (got_type, got_payload) == message
        assert end == len(data)

    @given(report=patch_reports())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_are_lossless(self, report):
        """The full report survives: canonical record AND the
        attempt-level detail ``to_dict`` drops."""
        payload = wire.report_to_wire(report)
        frame = wire.encode_frame(
            wire.MSG_VERDICT,
            wire.verdict_message(1, [wire.verdict_item(
                1, "req", report.commit_id, report=report)],
                metrics={}, cache=None, events=[], worker_id=0))
        _, decoded_payload, _ = wire.decode_frame(frame)
        rebuilt = wire.report_from_wire(
            decoded_payload["items"][0]["report"])
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.elapsed_seconds == report.elapsed_seconds
        assert rebuilt.invocation_durations == \
            report.invocation_durations
        assert rebuilt.fault_reports == report.fault_reports
        assert list(rebuilt.file_reports) == list(report.file_reports)
        for path, file_report in report.file_reports.items():
            assert rebuilt.file_reports[path] == file_report
        # and independently of framing:
        assert wire.report_from_wire(payload).to_dict() == \
            report.to_dict()

    @given(batch=verdict_batches())
    @settings(max_examples=25, deadline=None)
    def test_verdict_batches_round_trip(self, batch):
        """A VERDICT batch decodes to exactly what was sent, and every
        item's report rebuilds losslessly, in the WORK frame's order."""
        reports, payload = batch
        frame = wire.encode_frame(wire.MSG_VERDICT, payload)
        msg_type, decoded, end = wire.decode_frame(frame)
        assert (msg_type, decoded, end) == \
            (wire.MSG_VERDICT, payload, len(frame))
        assert decoded["seq"] == decoded["items"][0]["seq"]
        for report, item in zip(reports, decoded["items"]):
            if report is None:
                assert item["report"] is None
                assert item["error"] is not None
                continue
            assert item["error"] is None
            rebuilt = wire.report_from_wire(item["report"])
            assert rebuilt.to_dict() == report.to_dict()
            assert rebuilt.invocation_durations == \
                report.invocation_durations

    @given(message=work_batches())
    @settings(max_examples=40, deadline=None)
    def test_work_batches_keep_per_item_options(self, message):
        msg_type, payload = message
        _, decoded, _ = wire.decode_frame(
            wire.encode_frame(msg_type, payload))
        assert decoded["seq"] == decoded["items"][0]["seq"]
        for sent, got in zip(payload["items"], decoded["items"]):
            assert wire.options_from_wire(got["options"]) == \
                wire.options_from_wire(sent["options"])

    def test_options_round_trip(self):
        options = JMakeOptions()
        assert wire.options_from_wire(
            wire.options_to_wire(options)) == options
        assert wire.options_from_wire(None) is None


# -- typed rejection --------------------------------------------------------

class TestTruncation:
    @given(message=control_messages())
    @settings(max_examples=25, deadline=None)
    def test_every_cut_point_raises_truncated(self, message):
        frame = wire.encode_frame(*message)
        for cut in range(len(frame)):
            with pytest.raises(FrameTruncatedError) as excinfo:
                wire.decode_frame(frame[:cut])
            assert excinfo.value.have < excinfo.value.needed or \
                cut < wire.HEADER_BYTES


class TestBitFlips:
    @given(message=control_messages(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_single_bit_flip_is_a_typed_error(self, message, data):
        """The CRC covers version/type/length/payload, so no flipped
        bit anywhere can silently decode — not even one that lands in
        the message-type byte."""
        frame = bytearray(wire.encode_frame(*message))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(frame) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        frame[position] ^= 1 << bit
        with pytest.raises(WireError):
            wire.decode_frame(bytes(frame))

    def test_flipped_type_byte_cannot_alias(self):
        """Regression pin for the exact aliasing the seeded CRC
        prevents: HELLO(1) flipped to SHUTDOWN(5) would pass schema
        validation (SHUTDOWN requires no fields) if only the payload
        were checksummed."""
        frame = bytearray(wire.encode_frame(
            wire.MSG_HELLO, wire.hello_message(0, 1234, "fork")))
        assert frame[5] == wire.MSG_HELLO
        frame[5] ^= wire.MSG_HELLO ^ wire.MSG_SHUTDOWN
        with pytest.raises(FrameCorruptError):
            wire.decode_frame(bytes(frame))


class TestOversizedFrames:
    def test_decode_rejects_oversized_declared_length(self):
        header = struct.pack(">4sBBII", wire.MAGIC, wire.WIRE_VERSION,
                             wire.MSG_SHUTDOWN,
                             wire.MAX_FRAME_BYTES + 1, 0)
        with pytest.raises(FrameTooLargeError) as excinfo:
            wire.decode_frame(header)
        assert excinfo.value.declared == wire.MAX_FRAME_BYTES + 1
        assert excinfo.value.limit == wire.MAX_FRAME_BYTES

    def test_encode_refuses_oversized_payload(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameTooLargeError):
            wire.encode_frame(wire.MSG_ERROR, wire.error_message(
                1, "x" * 256, "TestError"))

    def test_oversized_does_not_stall_the_stream_decoder(self):
        """A corrupt length field must raise, not wait for gigabytes."""
        decoder = wire.FrameDecoder()
        decoder.feed(struct.pack(
            ">4sBBII", wire.MAGIC, wire.WIRE_VERSION, wire.MSG_SHUTDOWN,
            wire.MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(FrameTooLargeError):
            next(decoder)


class TestSchemaValidation:
    def test_unknown_message_type(self):
        body = wire.encode_payload({})
        crc = zlib.crc32(body, zlib.crc32(struct.pack(
            ">BBI", wire.WIRE_VERSION, 200, len(body))))
        frame = struct.pack(">4sBBII", wire.MAGIC, wire.WIRE_VERSION,
                            200, len(body), crc) + body
        with pytest.raises(WireSchemaError):
            wire.decode_frame(frame)

    @pytest.mark.parametrize("msg_type,payload", [
        (wire.MSG_HELLO, {"worker_id": 0}),
        (wire.MSG_WORK, {"seq": 1, "request_id": "r"}),
        (wire.MSG_VERDICT, {"seq": 1}),
        (wire.MSG_ERROR, {"error": "boom"}),
    ])
    def test_missing_required_fields(self, msg_type, payload):
        with pytest.raises(WireSchemaError):
            wire.encode_frame(msg_type, payload)

    def test_work_frame_without_items_rejected(self):
        payload = wire.work_message([])
        with pytest.raises(WireSchemaError):
            wire.encode_frame(wire.MSG_WORK, payload)
        payload["items"] = None
        with pytest.raises(WireSchemaError):
            wire.validate_message(wire.MSG_WORK, payload)

    def test_work_item_missing_commit_id_rejected(self):
        payload = wire.work_message([wire.work_item(1, "r-1", "c-1"),
                                   wire.work_item(2, "r-2", "c-2")])
        del payload["items"][1]["commit_id"]
        with pytest.raises(WireSchemaError, match="item 1"):
            wire.encode_frame(wire.MSG_WORK, payload)
        # the decode side validates too: a peer cannot smuggle it in
        body = wire.encode_payload(payload)
        header = struct.pack(">4sBBII", wire.MAGIC, wire.WIRE_VERSION,
                             wire.MSG_WORK, len(body),
                             wire._frame_crc(wire.MSG_WORK, len(body),
                                             body))
        with pytest.raises(WireSchemaError):
            wire.decode_frame(header + body)

    def test_version_2_frame_refused(self):
        """A well-formed frame of the previous (one-commit) wire
        version is refused, never misread as a batch."""
        assert wire.WIRE_VERSION == 3
        body = wire.encode_payload({
            "seq": 1, "request_id": "r", "commit_id": "c",
            "options": None, "chaos": None, "lease": 0})
        crc = zlib.crc32(body, zlib.crc32(struct.pack(
            ">BBI", 2, wire.MSG_WORK, len(body))))
        frame = struct.pack(">4sBBII", wire.MAGIC, 2, wire.MSG_WORK,
                            len(body), crc) + body
        with pytest.raises(FrameCorruptError, match="wire version 2"):
            wire.decode_frame(frame)

    def test_unknown_options_field_rejected(self):
        with pytest.raises(WireSchemaError):
            wire.options_from_wire({"no_such_option": True})

    def test_tampered_verdict_record_rejected(self):
        """The decode-side self-check: a canonical record that does not
        match the rebuilt report is a codec/tamper failure, never a
        silently different verdict."""
        report = PatchReport(commit_id="abc")
        report.file_reports["a.c"] = FileReport(path="a.c",
                                                status=FileStatus.OK)
        payload = wire.report_to_wire(report)
        payload["record"]["verdict"] = "ATTENTION REQUIRED"
        payload["record"]["certified"] = False
        with pytest.raises(WireSchemaError):
            wire.report_from_wire(payload)

    def test_wrong_schema_version_rejected(self):
        report = PatchReport(commit_id="abc")
        payload = wire.report_to_wire(report)
        payload["record"]["schema_version"] = 2
        with pytest.raises(WireSchemaError):
            wire.report_from_wire(payload)


# -- streaming decoder ------------------------------------------------------

class TestFrameDecoder:
    @given(messages=st.lists(control_messages(), min_size=1,
                             max_size=5),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunking_is_invisible(self, messages, data):
        """However the stream is split, the decoder yields exactly the
        sent messages in order — byte boundaries are transport noise."""
        stream = b"".join(wire.encode_frame(*message)
                          for message in messages)
        decoder = wire.FrameDecoder()
        received = []
        position = 0
        while position < len(stream):
            size = data.draw(st.integers(
                min_value=1, max_value=len(stream) - position))
            decoder.feed(stream[position:position + size])
            position += size
            received.extend(decoder)
        assert received == [(t, p) for t, p in messages]
        assert decoder.pending_bytes == 0

    def test_partial_frame_waits_instead_of_raising(self):
        frame = wire.encode_frame(wire.MSG_SHUTDOWN, {})
        decoder = wire.FrameDecoder()
        decoder.feed(frame[:5])
        assert list(decoder) == []
        decoder.feed(frame[5:])
        assert list(decoder) == [(wire.MSG_SHUTDOWN, {})]

    def test_corruption_offset_is_absolute(self):
        """Error offsets are rebased onto the whole stream, so a log
        line points at the actual damaged byte, not a buffer-relative
        position."""
        good = wire.encode_frame(wire.MSG_SHUTDOWN, {})
        bad = bytearray(wire.encode_frame(
            wire.MSG_ERROR, wire.error_message(1, "x", "E")))
        bad[0] ^= 0xFF  # destroy the magic
        decoder = wire.FrameDecoder()
        decoder.feed(bytes(good) + bytes(bad))
        assert next(decoder) == (wire.MSG_SHUTDOWN, {})
        with pytest.raises(FrameCorruptError) as excinfo:
            next(decoder)
        assert excinfo.value.offset == len(good)
