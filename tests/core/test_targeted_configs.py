"""Targeted configurations: the solver and the §VII extension (E-A5).

:func:`repro.kconfig.solver.targeted_config` solves for a configuration
that turns given symbols on and others off;
``JMakeOptions(use_targeted_configs=True)`` makes
``CFileProcessor._iter_targeted`` try one for each changed line that
every standard configuration leaves out.
"""

import pytest

from repro.core.jmake import CheckSession, JMakeOptions
from repro.core.report import FileStatus
from repro.kconfig.ast import Tristate
from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import allyesconfig, targeted_config
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

    def test_negated_dependency_rescued(self):
        """A symbol allyesconfig leaves off because it depends on
        ``!EXTRA`` comes on once EXTRA is requested off."""
        model = ConfigModel.from_kconfig(
            "config EXTRA\n\tbool\n\tdefault y\n"
            "config LEAN\n\tbool\n\tdepends on !EXTRA\n")
        allyes = allyesconfig(model)
        assert allyes.tristate("EXTRA") == Tristate.Y
        assert allyes.tristate("LEAN") == Tristate.N
        targeted = targeted_config(model, {"LEAN"}, {"EXTRA"})
        assert targeted.tristate("EXTRA") == Tristate.N
        assert targeted.tristate("LEAN") == Tristate.Y

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


class TestJMakeExtension:
    """E-A5: the §VII configuration-generation extension end to end."""

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
