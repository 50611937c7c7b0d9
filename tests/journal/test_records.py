"""PatchRecord <-> journal payload codec round-trip fidelity."""

import json

import pytest

from repro.core.report import FileStatus
from repro.errors import SchemaError
from repro.evalsuite.runner import FileInstanceRecord, PatchRecord
from repro.faults.inject import FaultReport
from repro.journal.records import (
    RECORD_VERSION,
    patch_record_from_dict,
    patch_record_to_dict,
)
from repro.kernel.layout import HazardKind


def sample_record():
    return PatchRecord(
        commit_id="c0123456789ab",
        author_name="A Janitor",
        author_email="janitor@example.org",
        is_janitor=True,
        shape="both",
        certified=False,
        elapsed_seconds=12.300000000000001,
        invocation_counts={"config": 3, "make_i": 7},
        invocation_durations={"config": [1.5, 0.30000000000000004],
                              "make_i": [0.125]},
        verdict="PARTIAL:arm,mips",
        quarantined_archs=["arm", "mips"],
        fault_reports=[FaultReport(
            kind="compile_timeout", site="compile", arch="arm",
            path="drivers/net/foo.c", scope="c0123456789ab",
            attempt=2)],
        files=[FileInstanceRecord(
            commit_id="c0123456789ab",
            path="drivers/net/foo.c",
            status=FileStatus.LINES_NOT_COMPILED,
            mutation_count=4,
            useful_archs=["x86", "arm"],
            missing_lines=[17, 42],
            candidate_compilations=3,
            first_clean_covers_all=False,
            insidious_under_allyes=True,
            needed_non_host_arch=True,
            used_defconfig=True,
            hazard_kinds=[HazardKind.CHOICE_UNSET,
                          HazardKind.MODULE_ONLY],
        )],
    )


class TestRoundTrip:
    def test_identity(self):
        record = sample_record()
        assert patch_record_from_dict(
            patch_record_to_dict(record)) == record

    def test_survives_json_serialization(self):
        # the journal pushes the dict through canonical JSON; the
        # round trip through *text* must also be exact (floats, enums)
        record = sample_record()
        payload = json.loads(json.dumps(
            patch_record_to_dict(record), sort_keys=True,
            separators=(",", ":"), allow_nan=False))
        assert patch_record_from_dict(payload) == record

    def test_floats_are_repr_exact(self):
        payload = patch_record_to_dict(sample_record())
        text = json.dumps(payload)
        back = patch_record_from_dict(json.loads(text))
        assert back.elapsed_seconds == 12.300000000000001
        assert back.invocation_durations["config"][1] == \
            0.30000000000000004

    def test_enums_serialize_by_name(self):
        payload = patch_record_to_dict(sample_record())
        entry = payload["files"][0]
        assert entry["status"] == "LINES_NOT_COMPILED"
        assert entry["hazard_kinds"] == ["CHOICE_UNSET", "MODULE_ONLY"]

    def test_version_tag_is_present(self):
        assert patch_record_to_dict(sample_record())["v"] == \
            RECORD_VERSION

    def test_empty_collections_round_trip(self):
        record = PatchRecord(
            commit_id="c1", author_name="n", author_email="e",
            is_janitor=False, shape="c_only", certified=True,
            elapsed_seconds=0.0, verdict="CERTIFIED")
        assert patch_record_from_dict(
            patch_record_to_dict(record)) == record


class TestSchemaErrors:
    def test_non_dict_payload(self):
        with pytest.raises(SchemaError):
            patch_record_from_dict(["not", "a", "record"])

    def test_missing_version(self):
        payload = patch_record_to_dict(sample_record())
        del payload["v"]
        with pytest.raises(SchemaError) as excinfo:
            patch_record_from_dict(payload)
        assert "record version" in str(excinfo.value)

    def test_future_version(self):
        payload = patch_record_to_dict(sample_record())
        payload["v"] = RECORD_VERSION + 1
        with pytest.raises(SchemaError):
            patch_record_from_dict(payload)

    @pytest.mark.parametrize("missing", [
        "commit_id", "certified", "invocation_durations", "files"])
    def test_missing_field(self, missing):
        payload = patch_record_to_dict(sample_record())
        del payload[missing]
        with pytest.raises(SchemaError):
            patch_record_from_dict(payload)

    def test_unknown_enum_name(self):
        payload = patch_record_to_dict(sample_record())
        payload["files"][0]["status"] = "NOT_A_STATUS"
        with pytest.raises(SchemaError):
            patch_record_from_dict(payload)

    def test_missing_file_field(self):
        payload = patch_record_to_dict(sample_record())
        del payload["files"][0]["mutation_count"]
        with pytest.raises(SchemaError):
            patch_record_from_dict(payload)

    def test_malformed_fault_report(self):
        payload = patch_record_to_dict(sample_record())
        payload["fault_reports"][0]["surprise"] = 1
        with pytest.raises(SchemaError):
            patch_record_from_dict(payload)
