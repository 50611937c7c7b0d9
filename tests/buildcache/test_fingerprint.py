"""Tests for digests, environment fingerprints, and closure manifests."""

import hashlib

from repro.buildcache.fingerprint import (
    ABSENT,
    RecordingProvider,
    blob_digest,
    env_fingerprint,
    manifest_digest,
    manifest_for,
    manifest_valid,
)
from repro.cc.toolchain import ToolchainRegistry
from repro.kconfig.ast import Tristate
from repro.kconfig.configfile import Config


class TestBlobDigest:
    def test_deterministic(self):
        assert blob_digest("int x;\n") == blob_digest("int x;\n")

    def test_content_sensitive(self):
        assert blob_digest("int x;\n") != blob_digest("int y;\n")

    def test_empty_text_ok(self):
        assert blob_digest("")


class TestEnvFingerprint:
    def _config(self, **symbols):
        config = Config()
        for name, letter in symbols.items():
            config.set(name, Tristate.from_letter(letter))
        return config

    def test_same_inputs_same_fingerprint(self):
        registry = ToolchainRegistry()
        x86 = registry.get("x86_64")
        a = env_fingerprint(x86, self._config(PCI="y"), modular=False)
        b = env_fingerprint(x86, self._config(PCI="y"), modular=False)
        assert a == b

    def test_architecture_changes_fingerprint(self):
        registry = ToolchainRegistry()
        config = self._config(PCI="y")
        assert env_fingerprint(registry.get("x86_64"), config,
                               modular=False) != \
            env_fingerprint(registry.get("arm"), config, modular=False)

    def test_config_values_change_fingerprint(self):
        registry = ToolchainRegistry()
        x86 = registry.get("x86_64")
        assert env_fingerprint(x86, self._config(PCI="y"),
                               modular=False) != \
            env_fingerprint(x86, self._config(PCI="y", NET="y"),
                            modular=False)

    def test_modular_flag_changes_fingerprint(self):
        registry = ToolchainRegistry()
        x86 = registry.get("x86_64")
        config = self._config(PCI="y")
        assert env_fingerprint(x86, config, modular=False) != \
            env_fingerprint(x86, config, modular=True)

    def test_config_name_does_not_matter(self):
        registry = ToolchainRegistry()
        x86 = registry.get("x86_64")
        a = self._config(PCI="y")
        b = self._config(PCI="y")
        b.name = "some_defconfig"
        assert env_fingerprint(x86, a, modular=False) == \
            env_fingerprint(x86, b, modular=False)


class TestDigestMemo:
    def test_memo_stays_at_its_bound_and_digests_hold(self):
        from repro.buildcache import fingerprint
        texts = [f"int v{index};\n" for index in
                 range(fingerprint._DIGEST_MEMO_SIZE + 500)]
        expected = [hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                    for text in texts]
        fingerprint.clear_digest_memo()
        assert [blob_digest(text) for text in texts] == expected
        info = blob_digest.cache_info()
        assert info.currsize == fingerprint._DIGEST_MEMO_SIZE
        assert [blob_digest(text) for text in texts] == expected
        assert blob_digest.cache_info().currsize == \
            fingerprint._DIGEST_MEMO_SIZE


class TestManifest:
    def test_valid_while_unchanged(self):
        files = {"a.h": "#define A 1\n", "b.h": "#define B 2\n"}
        manifest = manifest_for(["a.h", "b.h"], files.get)
        assert manifest_valid(manifest, files.get)

    def test_edit_invalidates(self):
        files = {"a.h": "#define A 1\n"}
        manifest = manifest_for(["a.h"], files.get)
        files["a.h"] = "#define A 2\n"
        assert not manifest_valid(manifest, files.get)

    def test_deletion_invalidates(self):
        files = {"a.h": "#define A 1\n"}
        manifest = manifest_for(["a.h"], files.get)
        del files["a.h"]
        assert not manifest_valid(manifest, files.get)

    def test_absent_probe_recorded_and_creation_invalidates(self):
        files = {"a.h": "#define A 1\n"}
        manifest = manifest_for(["a.h"], files.get, absent=["local/a.h"])
        assert ("local/a.h", ABSENT) in manifest
        assert manifest_valid(manifest, files.get)
        # creating the file that was probed-absent shadows the include
        files["local/a.h"] = "#define A 9\n"
        assert not manifest_valid(manifest, files.get)

    def test_duplicates_collapse(self):
        files = {"a.h": "x"}
        manifest = manifest_for(["a.h", "a.h"], files.get)
        assert len(manifest) == 1

    def test_manifest_digest_order_sensitive(self):
        a = (("x", "1"), ("y", "2"))
        b = (("y", "2"), ("x", "1"))
        assert manifest_digest(a) != manifest_digest(b)


class TestRecordingProvider:
    def test_records_reads_and_misses(self):
        files = {"a": "1", "b": "2"}
        recording = RecordingProvider(files.get)
        assert recording("a") == "1"
        assert recording("missing") is None
        assert recording("b") == "2"
        assert recording.read_paths == ["a", "b"]
        assert recording.missing_paths == ["missing"]

    def test_manifest_covers_absent(self):
        files = {"a": "1"}
        recording = RecordingProvider(files.get)
        recording("a")
        recording("gone")
        manifest = recording.manifest()
        assert dict(manifest)["gone"] == ABSENT
        assert manifest_valid(manifest, files.get)
        files["gone"] = "now here"
        assert not manifest_valid(manifest, files.get)
