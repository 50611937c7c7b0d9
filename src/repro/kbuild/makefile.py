"""Kbuild Makefile parsing.

Handles the declarative subset of the kernel's per-directory Makefiles::

    obj-y += always.o subdir/
    obj-m += module.o
    obj-$(CONFIG_FOO) += foo.o other/
    foo-objs := a.o b.o        # composite object
    foo-y    += c.o            # composite, kbuild style
    foo-$(CONFIG_BAR) += d.o   # conditional composite member

plus variable assignments that JMake's architecture heuristic scans for
``CONFIG_*`` mentions (§III-C). ``ccflags-y`` and similar flag lines are
recorded but otherwise ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.kconfig.configfile import Config

_RULE_RE = re.compile(
    r"^(?P<label>[A-Za-z0-9_\-]+)-"
    r"(?P<cond>y|m|objs|\$\(CONFIG_[A-Za-z0-9_]+\))"
    r"\s*(?P<op>\+?=|:=)\s*(?P<items>.*)$")
_CONFIG_VAR_RE = re.compile(r"CONFIG_([A-Za-z0-9_]+)")


@dataclass(frozen=True)
class ObjectRule:
    """One right-hand item of an ``obj-`` or composite line."""

    target: str               # "foo.o" or "subdir/"
    condition: str | None     # CONFIG symbol name, or None for -y
    modular_ok: bool = True   # False when the entry came from obj-y only

    @property
    def is_subdir(self) -> bool:
        """True for 'subdir/' entries."""
        return self.target.endswith("/")


@dataclass
class KbuildMakefile:
    """Parsed content of one directory's Makefile.

    Construction indexes the rules once; every query below is a dict
    lookup, and where a name has several rules the first one wins.
    """

    directory: str
    #: objects/subdirs attached directly to obj-…
    objects: list[ObjectRule] = field(default_factory=list)
    #: composite name (without .o) -> member rules
    composites: dict[str, list[ObjectRule]] = field(default_factory=dict)
    #: every CONFIG_* symbol textually mentioned anywhere in the file
    mentioned_config_vars: list[str] = field(default_factory=list)
    #: the rule governing each object or composite member, by name
    _source_rules: dict[str, ObjectRule] = field(
        init=False, repr=False, compare=False)
    #: the first obj- rule of each subdirectory, by "name/"
    _subdirs: dict[str, ObjectRule] = field(
        init=False, repr=False, compare=False)
    #: the config variables tied to each object or composite member
    _config_vars: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        objects: dict[str, ObjectRule] = {}
        subdirs: dict[str, ObjectRule] = {}
        conditions: dict[str, list[str]] = {}
        for rule in self.objects:
            if rule.is_subdir:
                subdirs.setdefault(rule.target, rule)
                continue
            objects.setdefault(rule.target, rule)
            named = conditions.setdefault(rule.target, [])
            if rule.condition:
                named.append(rule.condition)
        # a member is governed by the obj- rule of the first composite
        # holding it that has one (its own .o rule wins over both)
        composite_rules: dict[str, ObjectRule] = {}
        found: dict[str, list[str]] = {
            target: list(names) for target, names in conditions.items()}
        for label, members in self.composites.items():
            outer = objects.get(label + ".o")
            outer_conditions = conditions.get(label + ".o", ())
            held: dict[str, list[str]] = {}
            for member in members:
                if outer is not None:
                    composite_rules.setdefault(member.target, outer)
                named = held.setdefault(member.target, [])
                if member.condition:
                    named.append(member.condition)
            for target, names in held.items():
                found.setdefault(target, []).extend(
                    [*names, *outer_conditions])
        self._source_rules = {**composite_rules, **objects}
        self._subdirs = subdirs
        self._config_vars = {target: tuple(dict.fromkeys(names))
                             for target, names in found.items()}

    @classmethod
    def parse(cls, text: str, directory: str = "") -> "KbuildMakefile":
        """Parse one Makefile's Kbuild-relevant lines."""
        objects: list[ObjectRule] = []
        composites: dict[str, list[ObjectRule]] = {}
        mentioned: list[str] = []
        seen_vars: set[str] = set()
        for raw in text.split("\n"):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            for match in _CONFIG_VAR_RE.finditer(line):
                name = match.group(1)
                if name not in seen_vars:
                    seen_vars.add(name)
                    mentioned.append(name)
            match = _RULE_RE.match(line.strip())
            if not match:
                continue
            label = match.group("label")
            cond_text = match.group("cond")
            items = match.group("items").split()
            if cond_text == "objs":
                condition: str | None = None
                is_composite_def = True
            elif cond_text in ("y", "m"):
                condition = None
                is_composite_def = label != "obj"
            else:
                condition = cond_text[len("$(CONFIG_"):-1]
                is_composite_def = label != "obj"
            rules = [ObjectRule(target=item, condition=condition)
                     for item in items]
            if label == "obj":
                objects.extend(rules)
            elif is_composite_def and label not in (
                    "ccflags", "asflags", "ldflags", "subdir-ccflags",
                    "extra", "always", "targets", "clean"):
                composites.setdefault(label, []).extend(rules)
        return cls(directory=directory, objects=objects,
                   composites=composites, mentioned_config_vars=mentioned)

    # -- queries ------------------------------------------------------------

    def subdir_rules(self) -> list[ObjectRule]:
        """The obj- entries naming subdirectories."""
        return [rule for rule in self.objects if rule.is_subdir]

    def object_rules(self) -> list[ObjectRule]:
        """The obj- entries naming .o files."""
        return [rule for rule in self.objects if not rule.is_subdir]

    def subdir_rule(self, name: str) -> ObjectRule | None:
        """The first obj- entry naming subdirectory ``name`` ("sub/")."""
        return self._subdirs.get(name)

    def rule_for_source(self, c_basename: str) -> ObjectRule | None:
        """The rule governing ``name.c`` (via ``name.o`` or a composite).

        Returns the *outermost* condition: for a composite member, the
        condition on the composite's own ``obj-`` line wins, matching how
        kbuild actually gates compilation.
        """
        return self._source_rules.get(_object_name(c_basename))

    def config_vars_for_object(self, c_basename: str) -> list[str]:
        """The §III-C heuristic: config variables tied to one object.

        1. variables on lines mentioning the ``.o`` file;
        2. recursively, variables on the ``obj-`` lines of composite
           labels containing it;
        3. if nothing found, *all* config variables in the Makefile.
        """
        found = self._config_vars.get(_object_name(c_basename))
        return list(found or self.mentioned_config_vars)

    def source_is_enabled(self, c_basename: str, config: Config) -> bool:
        """Is ``name.c`` compiled in this directory under ``config``?"""
        rule = self.rule_for_source(c_basename)
        if rule is None:
            return False
        if rule.condition is None:
            return True
        return config.enabled(rule.condition)

    def source_is_modular(self, c_basename: str, config: Config) -> bool:
        """Compiled as a module (=m) rather than built-in (=y)?"""
        rule = self.rule_for_source(c_basename)
        if rule is None or rule.condition is None:
            return False
        return config.modular(rule.condition)


def _object_name(c_basename: str) -> str:
    """``name.o`` for ``name.c``; any other name as it is."""
    return c_basename[:-2] + ".o" if c_basename.endswith(".c") \
        else c_basename
