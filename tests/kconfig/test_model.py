"""Tests for the config model."""

import pytest

from repro.errors import KconfigError
from repro.kconfig.model import ConfigModel


def model_from(text, files=None):
    return ConfigModel.from_kconfig(text, provider=(files or {}).get)


class TestLookup:
    def test_contains_and_get(self):
        model = model_from("config A\n\tbool\nconfig B\n\ttristate\n")
        assert "A" in model
        assert model.get("B").name == "B"
        assert len(model) == 2

    def test_get_unknown_raises(self):
        with pytest.raises(KconfigError):
            model_from("config A\n\tbool\n").get("NOPE")

    def test_names_sorted(self):
        model = model_from("config Z\n\tbool\nconfig A\n\tbool\n")
        assert model.names() == ["A", "Z"]

    def test_boolean_vs_scalar(self):
        model = model_from(
            "config A\n\tbool\nconfig B\n\ttristate\nconfig C\n\tint\n"
            "\tdefault 4\n")
        assert [s.name for s in model.boolean_symbols()] == ["A", "B"]
        assert [s.name for s in model.tristate_symbols()] == ["B"]


class TestRedeclaration:
    def test_merge_selects(self):
        text = ("config A\n\tbool\n\tselect X\n"
                "config A\n\tbool\n\tselect Y\n")
        model = model_from(text)
        assert model.get("A").selects == ["X", "Y"]
        assert len(model) == 1


class TestChoiceGroups:
    def test_groups_enumerated(self):
        text = ("choice\nconfig LE\n\tbool\nconfig BE\n\tbool\nendchoice\n")
        model = model_from(text)
        groups = model.choice_groups()
        assert len(groups) == 1
        members = next(iter(groups.values()))
        assert [m.name for m in members] == ["LE", "BE"]


class TestReverseDeps:
    def test_selectors_of(self):
        text = ("config USB\n\tbool\n\tselect CRC32\n"
                "config CRC32\n\tbool\n")
        model = model_from(text)
        assert [s.name for s in model.selectors_of("CRC32")] == ["USB"]

    def test_undefined_references(self):
        text = ("config A\n\tbool\n\tdepends on GHOST\n"
                "config B\n\tbool\n\tselect PHANTOM\n")
        model = model_from(text)
        assert model.undefined_references() == {"GHOST", "PHANTOM"}
