"""Property-based tests on the configuration solvers.

Random dependency forests are generated (acyclic by construction:
symbol i may only depend on symbols j < i), then solver invariants are
checked: every assignment respects the model, allyesconfig dominates
allnoconfig, and targeted configurations are sound.
"""

from hypothesis import given, settings, strategies as st

from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import (
    allmodconfig,
    allnoconfig,
    allyesconfig,
    targeted_config,
)


@st.composite
def random_model(draw):
    """An acyclic Kconfig model with mixed deps, selects, and a choice."""
    count = draw(st.integers(min_value=2, max_value=10))
    lines = []
    for index in range(count):
        name = f"S{index}"
        kind = draw(st.sampled_from(["bool", "tristate"]))
        lines.append(f"config {name}")
        lines.append(f"\t{kind} \"{name.lower()}\"")
        if index > 0 and draw(st.booleans()):
            dep_index = draw(st.integers(min_value=0, max_value=index - 1))
            negate = draw(st.booleans())
            dep = f"!S{dep_index}" if negate else f"S{dep_index}"
            lines.append(f"\tdepends on {dep}")
        if index > 0 and draw(st.booleans()):
            target = draw(st.integers(min_value=0, max_value=index - 1))
            lines.append(f"\tselect S{target}")
    return ConfigModel.from_kconfig("\n".join(lines) + "\n")


class TestSolverInvariants:
    @given(random_model())
    @settings(max_examples=60, deadline=4000)
    def test_allyes_respects_positive_dependencies(self, model):
        """Every enabled, unselected symbol with *positive* dependencies
        has them satisfied at the fixpoint.

        Negative dependencies are excluded deliberately: a symbol can be
        enabled while ``!X`` holds and have X switched on later by a
        ``select`` — the same dependency-violating behaviour real
        Kconfig's select mechanism is notorious for (its docs warn that
        select forces a symbol regardless of dependencies)."""
        config = allyesconfig(model)
        selected = set()
        for symbol in model.symbols():
            if config.enabled(symbol.name):
                selected.update(symbol.selects)
        for symbol in model.symbols():
            if not config.enabled(symbol.name) or \
                    symbol.name in selected:
                continue
            if symbol.depends_on is None or \
                    "!" in str(symbol.depends_on):
                continue
            assert symbol.dependencies_met(config.values), symbol.name

    @given(random_model())
    @settings(max_examples=60, deadline=4000)
    def test_allno_subset_of_allyes_modulo_negation(self, model):
        """allnoconfig never enables a visible symbol allyesconfig
        leaves off, unless negative dependencies make the models
        genuinely non-monotone."""
        ayes = allyesconfig(model)
        anno = allnoconfig(model)
        assert anno.enabled_count() <= ayes.enabled_count() or any(
            symbol.depends_on is not None and
            "!" in str(symbol.depends_on)
            for symbol in model.symbols())

    @given(random_model())
    @settings(max_examples=60, deadline=4000)
    def test_allmod_matches_allyes_on_monotone_models(self, model):
        """Without negative dependencies the enabled *sets* of
        allmodconfig and allyesconfig coincide (only y flips to m).

        With negations all bets are off, faithfully to real Kconfig:
        ``!m == m`` makes ``depends on !X`` satisfiable when X is
        modular but not when built-in, and the order the fixpoint
        visits symbols decides which side of a negation wins — the
        enabled sets become incomparable. (Both directions of
        divergence were exhibited by Hypothesis against an exact-match
        and a superset version of this property.)"""
        has_negation = any(
            symbol.depends_on is not None and "!" in str(symbol.depends_on)
            for symbol in model.symbols())
        if has_negation:
            return
        ayes = {name for name in model.names()
                if allyesconfig(model).enabled(name)}
        amod_config = allmodconfig(model)
        amod = {name for name in model.names()
                if amod_config.enabled(name)}
        assert amod == ayes

    @given(random_model(), st.data())
    @settings(max_examples=60, deadline=4000)
    def test_targeted_config_sound(self, model, data):
        """When targeted_config succeeds, every want-on symbol is
        enabled with its dependencies satisfied (or selected), and
        every want-off symbol is off."""
        names = model.names()
        want_on = set(data.draw(st.lists(st.sampled_from(names),
                                         max_size=3, unique=True)))
        remaining = [n for n in names if n not in want_on]
        want_off = set(data.draw(st.lists(
            st.sampled_from(remaining), max_size=2, unique=True))) \
            if remaining else set()
        config = targeted_config(model, want_on, want_off)
        if config is None:
            return  # greedy solver declined; nothing to verify
        for name in want_on:
            assert config.enabled(name), name
        for name in want_off:
            assert not config.enabled(name), name
        selected = set()
        for symbol in model.symbols():
            if config.enabled(symbol.name):
                selected.update(symbol.selects)
        for symbol in model.symbols():
            if config.enabled(symbol.name) and \
                    symbol.name not in selected:
                assert symbol.dependencies_met(config.values), symbol.name

    @given(random_model())
    @settings(max_examples=40, deadline=4000)
    def test_solvers_deterministic(self, model):
        assert allyesconfig(model).values == allyesconfig(model).values
        assert allnoconfig(model).values == allnoconfig(model).values
