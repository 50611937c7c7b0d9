"""Tests for the synthetic tree generator, including end-to-end builds."""

import pytest

from repro.kbuild.build import BuildSystem
from repro.kernel.generator import KernelTreeGenerator, generate_tree
from repro.kernel.layout import HazardKind, default_tree_spec


@pytest.fixture(scope="module")
def tree():
    return generate_tree()


@pytest.fixture(scope="module")
def build_system(tree):
    return BuildSystem(
        tree.provider(),
        bootstrap_paths=tree.bootstrap_paths,
        rebuild_trigger_paths=tree.rebuild_triggers,
        path_lister=lambda: sorted(tree.files),
    )


class TestDeterminism:
    def test_same_spec_same_tree(self):
        a = KernelTreeGenerator(default_tree_spec()).generate()
        b = KernelTreeGenerator(default_tree_spec()).generate()
        assert a.files == b.files

    def test_different_seed_differs(self):
        a = generate_tree()
        b = KernelTreeGenerator(
            default_tree_spec(seed="other-seed")).generate()
        assert a.files != b.files


class TestStructure:
    def test_core_files_present(self, tree):
        for path in ("Makefile", "Kconfig", "MAINTAINERS",
                     "kernel/bounds.c", "include/linux/kernel.h"):
            assert path in tree.files

    def test_arches_emitted(self, tree):
        for directory in ("x86", "arm", "powerpc", "mips", "blackfin",
                          "parisc", "s390", "sparc"):
            assert f"arch/{directory}/Kconfig" in tree.files
            assert f"arch/{directory}/Makefile" in tree.files

    def test_defconfigs_emitted(self, tree):
        assert "arch/x86/configs/x86_64_defconfig" in tree.files
        assert "arch/arm/configs/multi_v7_defconfig" in tree.files

    def test_subsystems_emitted(self, tree):
        assert "drivers/net/Makefile" in tree.files
        assert "drivers/net/Kconfig" in tree.files
        assert "drivers/staging/comedi/Makefile" in tree.files

    def test_driver_counts(self, tree):
        net_drivers = [path for path in tree.driver_files()
                       if path.startswith("drivers/net/")]
        # 10 drivers + 2 composite parts
        assert len(net_drivers) == 12

    def test_ignored_dirs_present(self, tree):
        assert any(path.startswith("Documentation/") for path in tree.files)
        assert any(path.startswith("scripts/") for path in tree.files)
        assert any(path.startswith("tools/") for path in tree.files)

    def test_prom_init_analogue(self, tree):
        assert "arch/powerpc/kernel/prom_init.c" in tree.files
        assert "arch/powerpc/kernel/prom_init.c" in tree.rebuild_triggers

    def test_maintainers_cover_subsystems(self, tree):
        assert tree.maintainers.entries_for_path("drivers/net/netdrv0.c")
        assert tree.maintainers.entries_for_path(
            "arch/arm/kernel/arm_setup0.c")

    def test_hazards_injected(self, tree):
        seen = {kind for info in tree.info.values()
                for kind in info.hazards}
        # All Table IV categories must exist somewhere in the tree.
        assert HazardKind.CHOICE_UNSET in seen
        assert HazardKind.NEVER_SET in seen
        assert HazardKind.MODULE_ONLY in seen
        assert HazardKind.UNUSED_MACRO in seen

    def test_affine_drivers_exist(self, tree):
        affine = [info for info in tree.info.values()
                  if info.affine_arch or info.arch_gate]
        assert affine, "expected some arch-affine drivers"


class TestEndToEndBuild:
    def test_allyesconfig_builds(self, build_system):
        config = build_system.make_config("x86_64", "allyesconfig")
        assert config.enabled("NETDRV")
        assert config.enabled("MODULES")

    def test_choice_hazard_symbols_off_under_allyes(self, build_system,
                                                    tree):
        config = build_system.make_config("x86_64", "allyesconfig")
        for symbol in tree.hazard_symbols[HazardKind.CHOICE_UNSET]:
            if symbol in build_system.config_model("x86_64").names():
                assert not config.enabled(symbol), symbol

    def test_never_set_symbols_not_in_model(self, build_system, tree):
        model = build_system.config_model("x86_64")
        for symbol in tree.hazard_symbols[HazardKind.NEVER_SET]:
            assert symbol not in model

    def test_most_drivers_compile_on_x86(self, build_system, tree):
        config = build_system.make_config("x86_64", "allyesconfig")
        total = ok = 0
        for path in tree.driver_files():
            total += 1
            if not build_system.is_buildable(path, "x86_64", config):
                continue
            result = build_system.make_i([path], "x86_64", config)[0]
            if result.ok:
                ok += 1
        assert total > 50
        assert ok / total > 0.75

    def test_affine_driver_fails_x86_compiles_elsewhere(self, build_system,
                                                        tree):
        affine = [info for info in tree.info.values()
                  if info.affine_arch == "arm"]
        assert affine
        info = affine[0]
        x86 = build_system.make_config("x86_64", "allyesconfig")
        arm = build_system.make_config("arm", "allyesconfig")
        x86_result = build_system.make_i([info.path], "x86_64", x86)[0]
        assert not x86_result.ok
        arm_result = build_system.make_i([info.path], "arm", arm)[0]
        assert arm_result.ok

    def test_arch_gated_driver(self, build_system, tree):
        gated = [info for info in tree.info.values() if info.arch_gate]
        if not gated:
            pytest.skip("no Makefile-gated drivers in this seed")
        info = gated[0]
        arch = info.arch_gate.split("_")[0].lower()
        arch_name = {"x86": "x86_64"}.get(arch, arch)
        x86 = build_system.make_config("x86_64", "allyesconfig")
        if arch_name != "x86_64":
            assert not build_system.is_buildable(info.path, "x86_64", x86)

    def test_full_object_compile(self, build_system, tree):
        config = build_system.make_config("x86_64", "allyesconfig")
        drivers = [path for path in tree.driver_files()
                   if path.startswith("fs/ext4/")]
        obj = build_system.make_o(drivers[0], "x86_64", config)
        assert obj.symbols

    def test_arch_kernel_file_compiles_natively(self, build_system):
        config = build_system.make_config("arm", "allyesconfig")
        obj = build_system.make_o("arch/arm/kernel/arm_setup0.c",
                                  "arm", config)
        assert obj.symbols == ["arm_setup0_init"]

    def test_defconfig_usable(self, build_system):
        config = build_system.make_config("x86_64", "x86_64_defconfig")
        assert config.enabled("NETDRV")

    def test_negative_dep_driver_rescued_by_defconfig(self, build_system,
                                                      tree):
        """The §V-B allyesconfig (84%) vs +configs (85%) mechanism."""
        model = build_system.config_model("x86_64")
        allyes = build_system.make_config("x86_64", "allyesconfig")
        negative = []
        for name in model.names():
            symbol = model.get(name)
            if symbol.depends_on is not None and \
                    any("!" in str(symbol.depends_on) for _ in [0]):
                if "!" in str(symbol.depends_on) and \
                        not allyes.enabled(name):
                    negative.append(name)
        assert negative, "expected negative-dependency drivers"
        defcfg = build_system.make_config("x86_64", "x86_64_defconfig")
        rescued = [name for name in negative if defcfg.enabled(name)]
        assert rescued, "defconfig should rescue some negative-dep drivers"
