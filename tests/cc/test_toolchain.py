"""Tests for the toolchain registry and the make.cross matrix."""

import pickle

import pytest

from repro.cc.toolchain import (
    Architecture,
    BROKEN_ARCHITECTURES,
    ToolchainRegistry,
    WORKING_ARCHITECTURES,
    _default_architecture,
    arch_directory,
)
from repro.errors import ToolchainError


class TestMatrix:
    def test_counts_match_paper(self):
        """§II-A: 34 architectures listed, 24 work, 10 fail."""
        assert len(WORKING_ARCHITECTURES) == 24
        assert len(BROKEN_ARCHITECTURES) == 10
        assert len(set(WORKING_ARCHITECTURES) | set(BROKEN_ARCHITECTURES)) == 34

    def test_paper_named_architectures_present(self):
        for name in ("x86_64", "arm", "powerpc", "mips", "blackfin",
                     "parisc"):
            assert name in WORKING_ARCHITECTURES
        for name in ("arm64", "hexagon", "unicore32"):
            assert name in BROKEN_ARCHITECTURES


class TestDirectoryMapping:
    def test_x86_variants_share_directory(self):
        assert arch_directory("i386") == "x86"
        assert arch_directory("x86_64") == "x86"

    def test_sparc64_maps_to_sparc(self):
        assert arch_directory("sparc64") == "sparc"

    def test_default_is_identity(self):
        assert arch_directory("arm") == "arm"


class TestRegistry:
    def test_default_registry_has_all(self):
        registry = ToolchainRegistry()
        assert len(registry.names()) == 34
        assert len(registry.working_names()) == 24

    def test_host_defaults_to_x86_64(self):
        registry = ToolchainRegistry()
        assert registry.host.name == "x86_64"
        assert registry.host.bits == 64

    def test_unknown_host_rejected(self):
        with pytest.raises(ToolchainError):
            ToolchainRegistry(host="vax")

    def test_get_working(self):
        registry = ToolchainRegistry()
        arm = registry.get("arm")
        assert arm.name == "arm"
        assert "arch/arm/include" in arm.include_roots

    def test_get_broken_raises(self):
        registry = ToolchainRegistry()
        with pytest.raises(ToolchainError) as excinfo:
            registry.get("arm64")
        assert "make.cross" in str(excinfo.value)

    def test_get_unknown_raises(self):
        with pytest.raises(ToolchainError):
            ToolchainRegistry().get("pdp11")

    def test_for_directory_x86(self):
        registry = ToolchainRegistry()
        names = {arch.name for arch in registry.for_directory("x86")}
        assert names == {"i386", "x86_64"}

    def test_for_directory_excludes_broken(self):
        registry = ToolchainRegistry()
        names = {arch.name for arch in registry.for_directory("sh")}
        assert names == {"sh"}  # sh64 is broken

    def test_custom_registry(self):
        custom = Architecture(name="toy", bits=32,
                              include_roots=("arch/toy/include", "include"))
        registry = ToolchainRegistry(host="toy", architectures=[custom])
        assert registry.names() == ["toy"]
        assert registry.host.name == "toy"


class TestDirectoryIndex:
    """``for_directory`` answers from an index kept by ``register``."""

    @staticmethod
    def scan(registry, directory):
        return [arch for arch in registry._architectures.values()
                if arch.works and arch.directory == directory]

    def test_order_equals_the_scan_for_every_default(self):
        registry = ToolchainRegistry()
        for name in WORKING_ARCHITECTURES + BROKEN_ARCHITECTURES:
            directory = arch_directory(name)
            assert registry.for_directory(directory) \
                == self.scan(registry, directory)
        assert [arch.name for arch in registry.for_directory("x86")] \
            == ["i386", "x86_64"]
        assert registry.for_directory("nonexistent") == []

    def test_replacing_with_a_broken_toolchain_drops_it(self):
        registry = ToolchainRegistry()
        registry.register(Architecture(name="i386", bits=32, works=False))
        assert [arch.name for arch in registry.for_directory("x86")] \
            == ["x86_64"]
        registry.register(Architecture(name="i386", bits=32))
        assert [arch.name for arch in registry.for_directory("x86")] \
            == ["i386", "x86_64"]
        assert registry.for_directory("x86") == self.scan(registry, "x86")

    def test_register_is_not_seen_by_another_registry(self):
        first, second = ToolchainRegistry(), ToolchainRegistry()
        first.register(Architecture(name="toy", bits=32))
        first.register(Architecture(name="arm", works=False))
        assert [arch.name for arch in first.for_directory("toy")] == ["toy"]
        assert first.for_directory("arm") == []
        assert second.for_directory("toy") == []
        assert [arch.name for arch in second.for_directory("arm")] \
            == ["arm"]


class TestPredefines:
    def test_arch_macro(self):
        registry = ToolchainRegistry()
        assert registry.get("arm").predefines()["__arm__"] == "1"

    def test_kernel_macro_always_present(self):
        registry = ToolchainRegistry()
        assert registry.get("mips").predefines()["__KERNEL__"] == "1"

    def test_word_size(self):
        registry = ToolchainRegistry()
        assert registry.get("x86_64").predefines()["BITS_PER_LONG"] == "64"
        assert registry.get("arm").predefines()["BITS_PER_LONG"] == "32"
        assert "__LP64__" in registry.get("x86_64").predefines()
        assert "__LP64__" not in registry.get("arm").predefines()


class TestSharedArchitectures:
    """Default registries share one immutable set of architectures."""

    def test_shared_defaults_equal_fresh_ones(self):
        registry = ToolchainRegistry()
        for name in WORKING_ARCHITECTURES + BROKEN_ARCHITECTURES:
            fresh = _default_architecture(
                name, works=name in WORKING_ARCHITECTURES)
            shared = registry._architectures[name]
            assert shared == fresh
            assert shared.predefines() == fresh.predefines()
            assert shared.directory == fresh.directory

    def test_registries_share_the_default_objects(self):
        first, second = ToolchainRegistry(), ToolchainRegistry()
        assert first.get("arm") is second.get("arm")

    def test_register_is_per_registry(self):
        first, second = ToolchainRegistry(), ToolchainRegistry()
        first.register(Architecture(name="toy", bits=32))
        first.register(Architecture(name="arm", bits=64, works=False))
        assert "toy" in first.names()
        assert "toy" not in second.names()
        assert second.get("arm").bits == 32
        assert ToolchainRegistry().get("arm").bits == 32

    def test_builtin_macros_refuse_writes(self):
        arm = ToolchainRegistry().get("arm")
        with pytest.raises(TypeError):
            arm.builtin_macros["__evil__"] = "1"
        assert "__evil__" not in ToolchainRegistry().get("arm").predefines()

    def test_builtin_macros_are_copied_in(self):
        macros = {"__toy__": "1"}
        toy = Architecture(name="toy", builtin_macros=macros)
        macros["__late__"] = "1"
        assert dict(toy.builtin_macros) == {"__toy__": "1"}
        with pytest.raises(TypeError):
            toy.builtin_macros["__late__"] = "1"

    def test_architecture_pickles(self):
        toy = Architecture(name="toy", bits=32,
                           builtin_macros={"__toy__": "1"},
                           include_roots=("include",), works=False)
        loaded = pickle.loads(pickle.dumps(toy))
        assert loaded == toy
        with pytest.raises(TypeError):
            loaded.builtin_macros["x"] = "1"
