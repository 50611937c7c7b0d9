"""Tests for allyesconfig / allmodconfig / defconfig solvers."""

from hypothesis import given, strategies as st

from repro.kconfig.ast import Tristate
from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import allmodconfig, allyesconfig, defconfig


def model_from(text, files=None):
    return ConfigModel.from_kconfig(text, provider=(files or {}).get)


BASIC = """\
config PCI
	bool "PCI"
config NET
	bool "Networking"
config E1000
	tristate "Intel NIC"
	depends on PCI && NET
config IMPOSSIBLE
	bool
	depends on PCI && !PCI
"""


class TestAllyesconfig:
    def test_independent_symbols_all_y(self):
        config = allyesconfig(model_from(BASIC))
        assert config.tristate("PCI") == Tristate.Y
        assert config.tristate("NET") == Tristate.Y

    def test_dependent_symbol_enabled_after_deps(self):
        config = allyesconfig(model_from(BASIC))
        assert config.tristate("E1000") == Tristate.Y

    def test_contradictory_dependency_stays_n(self):
        """Undertaker-style dead symbol: depends on X && !X."""
        config = allyesconfig(model_from(BASIC))
        assert config.tristate("IMPOSSIBLE") == Tristate.N

    def test_dependency_chain(self):
        text = ("config A\n\tbool\n"
                "config B\n\tbool\n\tdepends on A\n"
                "config C\n\tbool\n\tdepends on B\n")
        config = allyesconfig(model_from(text))
        assert config.tristate("C") == Tristate.Y

    def test_negative_dependency_blocked_by_allyes(self):
        """The paper's #ifndef pathology (§VII): allyesconfig sets
        variables to yes, so `depends on !X` symbols stay off."""
        text = ("config X\n\tbool\n"
                "config ONLY_WITHOUT_X\n\tbool\n\tdepends on !X\n")
        config = allyesconfig(model_from(text))
        assert config.tristate("X") == Tristate.Y
        assert config.tristate("ONLY_WITHOUT_X") == Tristate.N

    def test_choice_picks_exactly_one(self):
        """Table IV: choice groups are why allyesconfig can't set all."""
        text = ("choice\nconfig CPU_LE\n\tbool\nconfig CPU_BE\n\tbool\n"
                "endchoice\n")
        config = allyesconfig(model_from(text))
        values = [config.tristate("CPU_LE"), config.tristate("CPU_BE")]
        assert values.count(Tristate.Y) == 1
        assert values.count(Tristate.N) == 1

    def test_choice_first_eligible_member_wins(self):
        text = ("config GATE\n\tbool\n\tdepends on NOPE\n"
                "choice\n"
                "config FIRST\n\tbool\n\tdepends on GATE\n"
                "config SECOND\n\tbool\nendchoice\n")
        config = allyesconfig(model_from(text))
        assert config.tristate("FIRST") == Tristate.N
        assert config.tristate("SECOND") == Tristate.Y

    def test_select_forces_target(self):
        text = ("config USB\n\tbool\n\tselect CRC32\n"
                "config CRC32\n\tbool\n\tdepends on NEVER\n")
        config = allyesconfig(model_from(text))
        # select ignores the target's own dependencies, as in Kconfig.
        assert config.tristate("CRC32") == Tristate.Y

    def test_scalar_defaults_kept(self):
        text = "config LOG_SHIFT\n\tint\n\tdefault 17\n"
        config = allyesconfig(model_from(text))
        assert config.scalar_values["LOG_SHIFT"] == "17"

    def test_tristates_become_y(self):
        config = allyesconfig(model_from(BASIC))
        assert config.tristate("E1000") == Tristate.Y  # not M

    def test_autoconf_macros(self):
        config = allyesconfig(model_from(BASIC))
        macros = config.autoconf_macros()
        assert macros["CONFIG_PCI"] == "1"
        assert "CONFIG_IMPOSSIBLE" not in macros


class TestAllmodconfig:
    def test_tristates_become_m(self):
        config = allmodconfig(model_from(BASIC))
        assert config.tristate("E1000") == Tristate.M
        assert config.tristate("PCI") == Tristate.Y  # bools stay y

    def test_module_autoconf_macro(self):
        config = allmodconfig(model_from(BASIC))
        macros = config.autoconf_macros()
        assert macros.get("CONFIG_E1000_MODULE") == "1"
        assert "CONFIG_E1000" not in macros

    def test_tristate_dependency_on_module_satisfied(self):
        text = ("config CORE\n\ttristate\n"
                "config DRV\n\ttristate\n\tdepends on CORE\n")
        config = allmodconfig(model_from(text))
        assert config.tristate("DRV") == Tristate.M


class TestDefconfig:
    DEF_TEXT = "CONFIG_PCI=y\n# CONFIG_NET is not set\n"

    def test_seed_respected(self):
        config = defconfig(model_from(BASIC), self.DEF_TEXT)
        assert config.tristate("PCI") == Tristate.Y
        assert config.tristate("NET") == Tristate.N

    def test_unseeded_defaults_apply(self):
        text = ("config A\n\tbool\n\tdefault y\n"
                "config B\n\tbool\n")
        config = defconfig(model_from(text), "")
        assert config.tristate("A") == Tristate.Y
        assert config.tristate("B") == Tristate.N

    def test_explicit_not_set_beats_default(self):
        text = "config A\n\tbool\n\tdefault y\n"
        config = defconfig(model_from(text), "# CONFIG_A is not set\n")
        assert config.tristate("A") == Tristate.N

    def test_seed_symbol_unknown_to_model_ignored(self):
        config = defconfig(model_from(BASIC), "CONFIG_GHOST=y\n")
        assert config.tristate("GHOST") == Tristate.N

    def test_select_applied_from_seed(self):
        text = ("config USB\n\tbool\n\tselect CRC32\n"
                "config CRC32\n\tbool\n")
        config = defconfig(model_from(text), "CONFIG_USB=y\n")
        assert config.tristate("CRC32") == Tristate.Y

    def test_conditional_default(self):
        text = ("config BASE\n\tbool\n\tdefault y\n"
                "config DEP\n\tbool\n\tdefault y if BASE\n")
        config = defconfig(model_from(text), "")
        assert config.tristate("DEP") == Tristate.Y


class TestPropertyBased:
    @given(st.integers(min_value=1, max_value=12), st.integers(0, 2**30))
    def test_fixpoint_monotone_chain(self, length, seed):
        """Any pure dependency chain fully enables under allyesconfig."""
        lines = ["config S0\n\tbool\n"]
        for index in range(1, length):
            lines.append(
                f"config S{index}\n\tbool\n\tdepends on S{index - 1}\n")
        config = allyesconfig(model_from("".join(lines)))
        for index in range(length):
            assert config.tristate(f"S{index}") == Tristate.Y

    @given(st.integers(min_value=2, max_value=8))
    def test_choice_invariant_one_y(self, members):
        body = "".join(f"config M{i}\n\tbool\n" for i in range(members))
        text = f"choice\n{body}endchoice\n"
        config = allyesconfig(model_from(text))
        values = [config.tristate(f"M{i}") for i in range(members)]
        assert values.count(Tristate.Y) == 1
