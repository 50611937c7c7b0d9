"""Tests for covering-configuration generation and the JMake extension."""

import pytest

from repro.analysis.covergen import covering_configs
from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileStatus
from repro.kconfig.ast import Tristate
from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import targeted_config
from repro.kernel.generator import generate_tree
from repro.kernel.layout import HazardKind
from repro.vcs.diff import Patch, diff_texts

KCONFIG = """\
config PCI
	bool "PCI"
config NET
	bool "Networking"
config EXTRA
	bool
	default y
choice
config CPU_LE
	bool "le"
config CPU_BE
	bool "be"
endchoice
config DRIVER
	tristate "drv"
	depends on PCI
"""


@pytest.fixture
def model():
    return ConfigModel.from_kconfig(KCONFIG)


class TestTargetedConfig:
    def test_simple_on(self, model):
        config = targeted_config(model, {"PCI"}, set())
        assert config.tristate("PCI") == Tristate.Y

    def test_dependency_pulled_in(self, model):
        config = targeted_config(model, {"DRIVER"}, set())
        assert config.tristate("DRIVER") == Tristate.Y
        assert config.tristate("PCI") == Tristate.Y

    def test_off_request_respected(self, model):
        config = targeted_config(model, {"NET"}, {"EXTRA"})
        assert config.tristate("NET") == Tristate.Y
        assert config.tristate("EXTRA") == Tristate.N

    def test_conflicting_request_unsat(self, model):
        assert targeted_config(model, {"DRIVER"}, {"PCI"}) is None

    def test_undefined_symbol_unsat(self, model):
        assert targeted_config(model, {"GHOST"}, set()) is None

    def test_choice_member_enabled_exclusively(self, model):
        config = targeted_config(model, {"CPU_BE"}, set())
        assert config.tristate("CPU_BE") == Tristate.Y
        assert config.tristate("CPU_LE") == Tristate.N

    def test_both_choice_members_unsat(self, model):
        assert targeted_config(model, {"CPU_LE", "CPU_BE"}, set()) is None

    def test_select_conflict_unsat(self):
        model = ConfigModel.from_kconfig(
            "config A\n\tbool\n\tselect B\nconfig B\n\tbool\n")
        assert targeted_config(model, {"A"}, {"B"}) is None


class TestCoveringConfigs:
    SOURCE = ("#ifdef CONFIG_CPU_BE\nint be;\n#endif\n"
              "#ifndef CONFIG_EXTRA\nint lean;\n#endif\n"
              "#ifdef CONFIG_GHOST\nint ghost;\n#endif\n"
              "#ifdef CONFIG_PCI\nint pci;\n#endif\n")

    def test_plan_reaches_reachable_blocks(self, model):
        plan = covering_configs(model, "f.c", self.SOURCE)
        # the PCI block is covered by allyesconfig (-1); CPU_BE and the
        # #ifndef EXTRA block each need a generated configuration
        assert plan.block_assignments[10] == -1            # CONFIG_PCI
        assert plan.block_assignments[1] >= 0              # CPU_BE
        assert plan.block_assignments[4] >= 0              # !EXTRA
        assert 7 in plan.unreachable                       # GHOST: dead

    def test_generated_configs_actually_include_blocks(self, model):
        from repro.analysis.blocks import extract_blocks
        plan = covering_configs(model, "f.c", self.SOURCE)
        blocks = {block.start: block
                  for block in extract_blocks("f.c", self.SOURCE)}
        for start, index in plan.block_assignments.items():
            if index < 0:
                continue
            config = plan.configs[index]
            presence = blocks[start].presence
            assert presence.evaluate(config.values) != Tristate.N

    def test_configs_shared_when_compatible(self, model):
        source = ("#ifdef CONFIG_CPU_BE\nint a;\n#endif\n"
                  "#ifdef CONFIG_CPU_BE\nint b;\n#endif\n")
        plan = covering_configs(model, "f.c", source)
        assert len(plan.configs) == 1

    def test_max_configs_cap(self, model):
        plan = covering_configs(model, "f.c", self.SOURCE, max_configs=0)
        assert plan.configs == []


class TestJMakeExtension:
    """E-A5: the §VII configuration-generation extension end to end."""

    @pytest.fixture(scope="class")
    def tree(self):
        return generate_tree()

    def run_check(self, tree, path, old, new, **options):
        original = tree.files[path]
        edited = original.replace(old, new)
        assert edited != original
        files = dict(tree.files)
        files[path] = edited
        worktree = CheckSession.worktree_for_files(files)
        patch = Patch(files=[diff_texts(path, original, edited)])
        jmake = CheckSession.from_generated_tree(
            tree, options=JMakeOptions(**options))
        return jmake.check_patch(worktree, patch)

    def first_with(self, tree, kind):
        return next(path for path, info in sorted(tree.info.items())
                    if kind in info.hazards and info.kind == "driver_c")

    def test_choice_unset_rescued(self, tree):
        path = self.first_with(tree, HazardKind.CHOICE_UNSET)
        baseline = self.run_check(tree, path, "\treturn dev->id + 2;",
                                  "\treturn dev->id + 3;")
        assert baseline.file_reports[path].status is \
            FileStatus.LINES_NOT_COMPILED
        extended = self.run_check(tree, path, "\treturn dev->id + 2;",
                                  "\treturn dev->id + 3;",
                                  use_targeted_configs=True)
        assert extended.file_reports[path].status is FileStatus.OK

    def test_ifndef_rescued(self, tree):
        path = self.first_with(tree, HazardKind.IFNDEF)
        extended = self.run_check(tree, path, "_fallback(void)",
                                  "_fallback_v2(void)",
                                  use_targeted_configs=True)
        assert extended.file_reports[path].status is FileStatus.OK

    def test_never_set_still_fails(self, tree):
        """No configuration can rescue a dead block: the extension must
        not fabricate one."""
        path = self.first_with(tree, HazardKind.NEVER_SET)
        extended = self.run_check(tree, path, "\treturn dev->id - 1;",
                                  "\treturn dev->id - 9;",
                                  use_targeted_configs=True)
        assert extended.file_reports[path].status is \
            FileStatus.LINES_NOT_COMPILED

    def test_if_zero_still_fails(self, tree):
        path = self.first_with(tree, HazardKind.IF_ZERO)
        extended = self.run_check(tree, path, "\treturn 1;",
                                  "\treturn 2;",
                                  use_targeted_configs=True)
        assert extended.file_reports[path].status is \
            FileStatus.LINES_NOT_COMPILED
