"""Tests for the BuildCache through the BuildSystem integration."""

import pytest

from repro.buildcache.cache import BuildCache, CachePolicy
from repro.cpp.preprocessor import PreprocessResult
from repro.kbuild.build import BuildError

from tests.buildcache.conftest import make_build_system


class TestPreprocessCaching:
    def test_second_build_system_hits(self, tree, cache):
        first = make_build_system(tree, cache)
        config = first.make_config("x86_64", "allyesconfig")
        results_cold = first.make_i(["drivers/net/e1000.c"], "x86_64",
                                    config)
        assert not results_cold[0].cached

        second = make_build_system(tree, cache)
        config2 = second.make_config("x86_64", "allyesconfig")
        results_warm = second.make_i(["drivers/net/e1000.c"], "x86_64",
                                     config2)
        assert results_warm[0].cached
        assert results_warm[0].i_text == results_cold[0].i_text
        assert cache.stats.kind("preprocess").hits == 1

    def test_replay_clock_charges_full_cost(self, tree, cache):
        """Simulated timings must be byte-identical to an uncached run."""
        cold = make_build_system(tree, cache)
        config = cold.make_config("x86_64", "allyesconfig")
        cold.make_i(["drivers/net/e1000.c"], "x86_64", config)
        cold_total = cold.clock.total("make_i")

        warm = make_build_system(tree, cache)
        config = warm.make_config("x86_64", "allyesconfig")
        warm.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert warm.clock.total("make_i") == cold_total

        uncached = make_build_system(tree, None)
        config = uncached.make_config("x86_64", "allyesconfig")
        uncached.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert uncached.clock.total("make_i") == cold_total

    def test_probe_clock_charges_less_on_hits(self, tree):
        shared = BuildCache(CachePolicy(clock="probe"))
        cold = make_build_system(tree, shared)
        config = cold.make_config("x86_64", "allyesconfig")
        cold.make_i(["drivers/net/e1000.c"], "x86_64", config)
        cold_total = cold.clock.total("make_i")

        warm = make_build_system(tree, shared)
        config = warm.make_config("x86_64", "allyesconfig")
        warm.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert warm.clock.total("make_i") < cold_total
        assert shared.stats.kind("preprocess").sim_seconds_saved > 0

    def test_header_edit_misses_then_revives(self, tree, cache):
        first = make_build_system(tree, cache)
        config = first.make_config("x86_64", "allyesconfig")
        first.make_i(["drivers/net/e1000.c"], "x86_64", config)
        original = tree["include/linux/kernel.h"]

        tree["include/linux/kernel.h"] = "#define KERN_INFO \"7\"\n"
        edited = make_build_system(tree, cache)
        config = edited.make_config("x86_64", "allyesconfig")
        results = edited.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert not results[0].cached  # closure manifest no longer matches

        tree["include/linux/kernel.h"] = original
        reverted = make_build_system(tree, cache)
        config = reverted.make_config("x86_64", "allyesconfig")
        results = reverted.make_i(["drivers/net/e1000.c"], "x86_64",
                                  config)
        assert results[0].cached  # the old entry revived verbatim

    def test_env_differences_do_not_cross_pollute(self, tree, cache):
        build = make_build_system(tree, cache)
        yes = build.make_config("x86_64", "allyesconfig")
        small = build.make_config("x86_64", "small_defconfig")
        result = build.make_i(["arch/x86/kernel/setup.c"], "x86_64",
                              yes)[0]
        assert result.ok
        other = build.make_i(["arch/x86/kernel/setup.c"], "x86_64",
                             small)[0]
        # different autoconf macro sets -> separate entries, no hit
        assert not other.cached


class TestObjectCaching:
    def test_object_hit_returns_equal_artifact(self, tree, cache):
        first = make_build_system(tree, cache)
        config = first.make_config("x86_64", "allyesconfig")
        cold = first.make_o("drivers/net/e1000.c", "x86_64", config)

        second = make_build_system(tree, cache)
        config = second.make_config("x86_64", "allyesconfig")
        warm = second.make_o("drivers/net/e1000.c", "x86_64", config)
        assert cache.stats.kind("object").hits == 1
        assert warm.symbols == cold.symbols
        assert warm.token_count == cold.token_count
        assert warm.strings == cold.strings

    def test_object_replay_clock_identical(self, tree, cache):
        first = make_build_system(tree, cache)
        config = first.make_config("x86_64", "allyesconfig")
        first.make_o("drivers/net/e1000.c", "x86_64", config)
        cold_total = first.clock.total("make_o")

        second = make_build_system(tree, cache)
        config = second.make_config("x86_64", "allyesconfig")
        second.make_o("drivers/net/e1000.c", "x86_64", config)
        assert second.clock.total("make_o") == cold_total

    def test_compile_failure_cached_with_same_message(self, tree, cache):
        tree["drivers/net/wifi.c"] = "int wifi_init(void) { return 0` ; }\n"
        first = make_build_system(tree, cache)
        config = first.make_config("x86_64", "allyesconfig")
        with pytest.raises(BuildError) as cold:
            first.make_o("drivers/net/wifi.c", "x86_64", config)
        assert cold.value.kind == "compile_failed"

        second = make_build_system(tree, cache)
        config = second.make_config("x86_64", "allyesconfig")
        with pytest.raises(BuildError) as warm:
            second.make_o("drivers/net/wifi.c", "x86_64", config)
        assert warm.value.kind == "compile_failed"
        assert str(warm.value) == str(cold.value)
        assert cache.stats.kind("object").hits == 1

    def test_check_failures_not_polluted_by_cache(self, tree, cache):
        build = make_build_system(tree, cache)
        small = build.make_config("x86_64", "small_defconfig")
        with pytest.raises(BuildError) as error:
            build.make_o("drivers/net/e1000.c", "x86_64", small)
        assert error.value.kind == "no_rule"


class TestConfigAndModelCaching:
    def test_config_shared_across_build_systems(self, tree, cache):
        first = make_build_system(tree, cache)
        config_a = first.make_config("x86_64", "allyesconfig")
        second = make_build_system(tree, cache)
        config_b = second.make_config("x86_64", "allyesconfig")
        assert cache.stats.kind("config").hits == 1
        assert config_b.values == config_a.values
        # replay clock: charge identical to an uncached solve
        assert second.clock.total("config") == first.clock.total("config")

    def test_architectures_never_conflated(self, tree, cache):
        build = make_build_system(tree, cache)
        x86 = build.make_config("x86_64", "allyesconfig")
        arm = build.make_config("arm", "allyesconfig")
        assert x86.builtin("X86") and not x86.enabled("ARM_AMBA")
        assert arm.builtin("ARM_AMBA") and not arm.enabled("X86")

        fresh = make_build_system(tree, cache)
        assert fresh.make_config("x86_64",
                                 "allyesconfig").builtin("X86")
        assert fresh.make_config("arm",
                                 "allyesconfig").builtin("ARM_AMBA")

    def test_kconfig_edit_invalidates_model(self, tree, cache):
        first = make_build_system(tree, cache)
        first.make_config("x86_64", "allyesconfig")

        tree["Kconfig"] += "config NEW_SYM\n\tbool\n\tdefault y\n"
        second = make_build_system(tree, cache)
        config = second.make_config("x86_64", "allyesconfig")
        assert config.builtin("NEW_SYM")

    def test_defconfig_seed_keyed(self, tree, cache):
        first = make_build_system(tree, cache)
        small = first.make_config("x86_64", "small_defconfig")
        assert not small.enabled("NET")

        tree["arch/x86/configs/small_defconfig"] = \
            "CONFIG_PCI=y\nCONFIG_NET=y\n"
        second = make_build_system(tree, cache)
        edited = second.make_config("x86_64", "small_defconfig")
        assert edited.enabled("NET")


class TestPolicyBounds:
    def test_max_variants_evicts_oldest(self, tree):
        cache = BuildCache(CachePolicy(max_variants=1))
        original = tree["include/linux/kernel.h"]
        for text in ("#define KERN_INFO \"7\"\n", original):
            tree["include/linux/kernel.h"] = text
            build = make_build_system(tree, cache)
            config = build.make_config("x86_64", "allyesconfig")
            build.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert cache.stats.kind("preprocess").evictions >= 1

    def test_max_entries_lru(self):
        cache = BuildCache(CachePolicy(max_entries=1))
        cache.put_makefile("a/Makefile", "obj-y += a.o\n", "parsed-a")
        cache.put_makefile("b/Makefile", "obj-y += b.o\n", "parsed-b")
        assert len(cache) == 1
        assert cache.stats.kind("makefile").evictions == 1
        assert cache.get_makefile("a/Makefile", "obj-y += a.o\n") is None
        assert cache.get_makefile("b/Makefile",
                                  "obj-y += b.o\n") == "parsed-b"


class TestOnCommit:
    def test_counts_invalidations_without_dropping(self, tree, cache):
        build = make_build_system(tree, cache)
        config = build.make_config("x86_64", "allyesconfig")
        build.make_i(["drivers/net/e1000.c"], "x86_64", config)
        size_before = len(cache)
        perturbed = cache.on_commit(["include/linux/kernel.h"])
        assert "drivers/net/e1000.c" in perturbed
        assert cache.stats.kind("preprocess").invalidations >= 1
        assert len(cache) == size_before  # entries stay for revival


class TestPersistence:
    def test_save_load_roundtrip(self, tree, cache, tmp_path):
        build = make_build_system(tree, cache)
        config = build.make_config("x86_64", "allyesconfig")
        build.make_i(["drivers/net/e1000.c"], "x86_64", config)
        path = tmp_path / "cache.pickle"
        cache.save(str(path))

        loaded = BuildCache.load(str(path))
        assert len(loaded) == len(cache)
        warm = make_build_system(tree, loaded)
        config = warm.make_config("x86_64", "allyesconfig")
        results = warm.make_i(["drivers/net/e1000.c"], "x86_64", config)
        assert results[0].cached

    def test_preprocess_payloads_hold_four_fields(self, tree, cache,
                                                  tmp_path):
        build = make_build_system(tree, cache)
        config = build.make_config("x86_64", "allyesconfig")
        build.make_i(["drivers/net/e1000.c"], "x86_64", config)
        build.make_o("drivers/net/e1000.c", "x86_64", config)
        path = tmp_path / "cache.pickle"
        cache.save(str(path))

        loaded = BuildCache.load(str(path))
        payloads = [entry.payload
                    for key, slot in loaded._slots.items()
                    if key[0] == "preprocess" for entry in slot.variants]
        assert payloads
        for payload in payloads:
            assert type(payload) is PreprocessResult
            assert set(vars(payload)) == {"main_file", "text",
                                          "included_files",
                                          "missing_includes"}

    def test_load_missing_file_gives_fresh_cache(self, tmp_path):
        loaded = BuildCache.load(str(tmp_path / "absent.pickle"))
        assert len(loaded) == 0

    def test_load_garbage_gives_fresh_cache(self, tmp_path):
        # different leading bytes decode as different pickle opcodes and
        # raise different exception types; all must fall back cleanly
        for i, garbage in enumerate((b"not a pickle at all",
                                     b"garbage not a pickle\n",
                                     b"\x80\x05broken")):
            path = tmp_path / f"garbage-{i}.pickle"
            path.write_bytes(garbage)
            assert len(BuildCache.load(str(path))) == 0
