"""Tests for architecture-selection heuristics over the generated tree."""

from collections import Counter

import pytest

from repro.core.archselect import ArchSelector, Candidate
from repro.kbuild.build import BuildSystem
from repro.util.rng import DeterministicRng


@pytest.fixture
def selector(tree):
    build = BuildSystem(tree.provider(),
                        path_lister=lambda: sorted(tree.files))
    return ArchSelector(build, lambda: sorted(tree.files), tree.provider(),
                        rng=DeterministicRng(7))


class TestArchFiles:
    def test_arch_file_maps_to_owning_toolchains(self, selector):
        selection = selector.select("arch/arm/kernel/arm_setup0.c")
        assert [c.arch for c in selection.candidates] == ["arm"]

    def test_x86_file_offers_both_variants(self, selector):
        selection = selector.select("arch/x86/kernel/x86_setup0.c")
        assert {c.arch for c in selection.candidates} == {"i386", "x86_64"}

    def test_unsupported_arch_dir_reported(self, tree):
        files = dict(tree.files)
        files["arch/hexagon/kernel/h.c"] = "int x;\n"
        build = BuildSystem(files.get, path_lister=lambda: sorted(files))
        selector = ArchSelector(build, lambda: sorted(files), files.get)
        selection = selector.select("arch/hexagon/kernel/h.c")
        assert selection.candidates == []
        assert "hexagon" in selection.unsupported


class TestDriverFiles:
    def test_host_tried_first(self, selector, tree):
        driver = tree.driver_files()[0]
        selection = selector.select(driver)
        assert selection.candidates[0] == Candidate("x86_64")

    def test_arch_gated_driver_adds_owner_arch(self, selector, tree):
        gated = [info for info in tree.info.values()
                 if info.arch_gate is not None]
        assert gated
        info = gated[0]
        selection = selector.select(info.path)
        arch_prefix = info.arch_gate.split("_SPECIAL_BUS")[0].lower()
        archs = {c.arch for c in selection.candidates}
        assert any(arch.startswith(arch_prefix) for arch in archs), \
            (info.arch_gate, archs)

    def test_defconfig_candidates_when_variable_in_configs(self, selector,
                                                           tree):
        # find a driver whose symbol appears in some defconfig
        for info in tree.info.values():
            if info.kind != "driver_c" or not info.config_symbol:
                continue
            needle = f"CONFIG_{info.config_symbol}="
            in_configs = any(
                needle in text
                for path, text in tree.files.items()
                if "/configs/" in path)
            if in_configs:
                selection = selector.select(info.path)
                targets = {c.config_target for c in selection.candidates}
                assert targets != {"allyesconfig"}, info.path
                return
        pytest.fail("no driver symbol found in any defconfig")

    def test_use_configs_false_suppresses_defconfigs(self, tree):
        build = BuildSystem(tree.provider(),
                            path_lister=lambda: sorted(tree.files))
        selector = ArchSelector(build, lambda: sorted(tree.files),
                                tree.provider(), use_configs=False)
        for info in tree.info.values():
            if info.kind == "driver_c":
                selection = selector.select(info.path)
                assert all(c.config_target == "allyesconfig"
                           for c in selection.candidates)
                return

    def test_no_makefile_flag(self, tree):
        files = dict(tree.files)
        files["orphan/widget.c"] = "int x;\n"
        build = BuildSystem(files.get, path_lister=lambda: sorted(files))
        selector = ArchSelector(build, lambda: sorted(files), files.get)
        selection = selector.select("orphan/widget.c")
        assert selection.no_makefile

    def test_candidates_deduplicated(self, selector, tree):
        driver = tree.driver_files()[0]
        selection = selector.select(driver)
        assert len(selection.candidates) == len(set(selection.candidates))

    def test_deterministic_selection(self, tree):
        def fresh():
            build = BuildSystem(tree.provider(),
                                path_lister=lambda: sorted(tree.files))
            return ArchSelector(build, lambda: sorted(tree.files),
                                tree.provider(),
                                rng=DeterministicRng(7))
        driver = tree.driver_files()[3]
        assert fresh().select(driver).candidates == \
            fresh().select(driver).candidates


class TestMentionIndex:
    def test_each_arch_file_read_once_per_check(self, tree):
        provider = tree.provider()
        reads: Counter[str] = Counter()

        def counting_provider(path):
            if path.startswith("arch/"):
                reads[path] += 1
            return provider(path)

        build = BuildSystem(provider, path_lister=lambda: sorted(tree.files))
        selector = ArchSelector(build, lambda: sorted(tree.files),
                                counting_provider, rng=DeterministicRng(7))
        variables: set[str] = set()
        for path in tree.driver_files()[:6]:
            makefile = build.governing_makefile(path)
            variables.update(makefile.config_vars_for_object(
                path.rsplit("/", 1)[-1]))
            selector.select(path)
        assert len(variables) >= 3
        assert reads, "no arch/ file was consulted"
        assert max(reads.values()) == 1, reads.most_common(3)

    def test_overlay_mention_is_seen(self, tree, worktree):
        build = BuildSystem(worktree.as_file_provider(),
                            path_lister=worktree.paths)

        def arches(source):
            selector = ArchSelector(build, worktree.paths,
                                    worktree.as_file_provider(),
                                    rng=DeterministicRng(7))
            return {c.arch for c in selector.select(source).candidates}

        driver = tree.driver_files()[0]
        variable = build.governing_makefile(driver).config_vars_for_object(
            driver.rsplit("/", 1)[-1])[0]
        before = arches(driver)
        assert "arm" not in before

        arch_file = next(path for path in worktree.paths()
                         if path.startswith("arch/arm/")
                         and path.endswith(".c"))
        worktree.write(arch_file, worktree.read(arch_file)
                       + f"\n/* CONFIG_{variable} */\n")
        assert arches(driver) == before | {"arm"}
        worktree.reset_hard()
        assert arches(driver) == before
