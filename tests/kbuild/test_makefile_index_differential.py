"""Differential tests: Makefile lookups against the rule scans.

``KbuildMakefile`` indexes its rules when it is made: the rule governing
each object or composite member, the first rule of each subdirectory
and the config variables tied to each name. ``BuildSystem`` answers
``is_buildable`` once per (path, architecture, configuration) and walks
the ancestor chain through the subdirectory lookup. The oracles are the
code before, copied verbatim: ``ParentKbuildMakefile`` rescans
``objects`` on every query, and ``ParentBuildSystem`` re-derives every
answer with ``next(...)`` over ``subdir_rules()``.

Inputs are generated Makefile trees that repeat targets with different
conditions (the first rule must win), nest composites with and without
their own ``obj-`` line, list a subdirectory twice and hide rules in
comments, checked under random configurations; and every Makefile of
every commit of both shared corpora, with every C file under both
allyesconfig and allnoconfig.
"""

import posixpath
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MakefileNotFoundError
from repro.kbuild.build import BuildSystem, _TOP_LEVEL_DIRS
from repro.kbuild.makefile import (
    KbuildMakefile,
    _CONFIG_VAR_RE,
    _RULE_RE,
    ObjectRule,
)
from repro.cc.toolchain import arch_directory
from repro.kconfig.ast import Tristate
from repro.kconfig.configfile import Config
from repro.vcs.repository import LogOptions

# -- the oracle: the Makefile and its build-system queries before ---------------


@dataclass
class ParentKbuildMakefile:
    """Parsed content of one directory's Makefile."""

    directory: str
    #: objects/subdirs attached directly to obj-…
    objects: list[ObjectRule] = field(default_factory=list)
    #: composite name (without .o) -> member rules
    composites: dict[str, list[ObjectRule]] = field(default_factory=dict)
    #: every CONFIG_* symbol textually mentioned anywhere in the file
    mentioned_config_vars: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str, directory: str = "") -> "ParentKbuildMakefile":
        """Parse one Makefile's Kbuild-relevant lines."""
        makefile = cls(directory=directory)
        seen_vars: set[str] = set()
        for raw in text.split("\n"):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            for match in _CONFIG_VAR_RE.finditer(line):
                name = match.group(1)
                if name not in seen_vars:
                    seen_vars.add(name)
                    makefile.mentioned_config_vars.append(name)
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
                makefile.objects.extend(rules)
            elif is_composite_def and label not in (
                    "ccflags", "asflags", "ldflags", "subdir-ccflags",
                    "extra", "always", "targets", "clean"):
                makefile.composites.setdefault(label, []).extend(rules)
        return makefile

    # -- queries ------------------------------------------------------------

    def subdir_rules(self) -> list[ObjectRule]:
        """The obj- entries naming subdirectories."""
        return [rule for rule in self.objects if rule.is_subdir]

    def object_rules(self) -> list[ObjectRule]:
        """The obj- entries naming .o files."""
        return [rule for rule in self.objects if not rule.is_subdir]

    def rule_for_source(self, c_basename: str) -> ObjectRule | None:
        """The rule governing ``name.c`` (via ``name.o`` or a composite).

        Returns the *outermost* condition: for a composite member, the
        condition on the composite's own ``obj-`` line wins, matching how
        kbuild actually gates compilation.
        """
        obj_name = c_basename[:-2] + ".o" if c_basename.endswith(".c") \
            else c_basename
        for rule in self.object_rules():
            if rule.target == obj_name:
                return rule
        stem = obj_name[:-2]
        for composite, members in self.composites.items():
            if not any(member.target == obj_name for member in members):
                continue
            for rule in self.object_rules():
                if rule.target == composite + ".o":
                    return rule
        return None

    def config_vars_for_object(self, c_basename: str) -> list[str]:
        """The §III-C heuristic: config variables tied to one object.

        1. variables on lines mentioning the ``.o`` file;
        2. recursively, variables on the ``obj-`` lines of composite
           labels containing it;
        3. if nothing found, *all* config variables in the Makefile.
        """
        obj_name = c_basename[:-2] + ".o" if c_basename.endswith(".c") \
            else c_basename
        found: list[str] = []

        direct = [rule for rule in self.object_rules()
                  if rule.target == obj_name and rule.condition]
        found.extend(rule.condition for rule in direct)

        for composite, members in self.composites.items():
            if any(member.target == obj_name for member in members):
                for member in members:
                    if member.target == obj_name and member.condition:
                        found.append(member.condition)
                for rule in self.object_rules():
                    if rule.target == composite + ".o" and rule.condition:
                        found.append(rule.condition)

        if not found:
            found = list(self.mentioned_config_vars)
        unique: list[str] = []
        for name in found:
            if name not in unique:
                unique.append(name)
        return unique

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


class ParentBuildSystem(BuildSystem):
    """The build system before: scans on every query, no answer memo."""

    def makefile_for_directory(self, directory: str):
        """The parsed Makefile of a directory, or None (cached)."""
        if directory in self._makefile_cache:
            return self._makefile_cache[directory]
        path = posixpath.join(directory, "Makefile") if directory \
            else "Makefile"
        text = self._provider(path)
        parsed = None if text is None else \
            ParentKbuildMakefile.parse(text, directory=directory)
        self._makefile_cache[directory] = parsed
        return parsed

    def gate_symbols(self, source_path: str) -> "set[str] | None":
        """Config symbols the kbuild chain requires to build the file.

        Returns None when no Makefile governs the path. Used by the
        targeted-configuration extension: a covering configuration must
        enable these on top of the block's own condition.
        """
        parts = source_path.split("/")
        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return None
        symbols: set[str] = set()
        rule = makefile.rule_for_source(parts[-1])
        if rule is not None and rule.condition is not None:
            symbols.add(rule.condition)
        if parts[0] == "arch":
            chain_root = f"arch/{parts[1]}" if len(parts) >= 3 else None
        else:
            chain_root = parts[0]
        directory = posixpath.dirname(source_path)
        while chain_root is not None and directory != chain_root:
            parent = posixpath.dirname(directory)
            parent_makefile = self.makefile_for_directory(parent)
            if parent_makefile is None:
                break
            subdir_name = posixpath.basename(directory) + "/"
            subdir_rule = next(
                (r for r in parent_makefile.subdir_rules()
                 if r.target == subdir_name), None)
            if subdir_rule is not None and \
                    subdir_rule.condition is not None:
                symbols.add(subdir_rule.condition)
            directory = parent
        return symbols

    def is_buildable(self, source_path: str, arch_name: str,
                     config: Config) -> bool:
        """Does ``make source.o`` have an enabled rule chain?"""
        parts = source_path.split("/")
        if parts[0] == "arch":
            if len(parts) < 3:
                return False
            if parts[1] != arch_directory(arch_name):
                return False
            chain_root = f"arch/{parts[1]}"
        elif parts[0] in _TOP_LEVEL_DIRS:
            chain_root = parts[0]
        else:
            return False

        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return False
        basename = parts[-1]
        if not makefile.source_is_enabled(basename, config):
            return False

        # Ancestor chain: every directory from the file's up to (but not
        # including) the chain root must be pulled in by its parent.
        directory = posixpath.dirname(source_path)
        while directory != chain_root:
            parent = posixpath.dirname(directory)
            parent_makefile = self.makefile_for_directory(parent)
            if parent_makefile is None:
                return False
            subdir_name = posixpath.basename(directory) + "/"
            rule = next((r for r in parent_makefile.subdir_rules()
                         if r.target == subdir_name), None)
            if rule is None:
                return False
            if rule.condition is not None and not config.enabled(rule.condition):
                return False
            directory = parent
        return True

    def is_modular(self, source_path: str, config: Config) -> bool:
        """True when the config builds the file as a module (=m)."""
        try:
            makefile = self.governing_makefile(source_path)
        except MakefileNotFoundError:
            return False
        return makefile.source_is_modular(
            posixpath.basename(source_path), config)


# -- the comparison ---------------------------------------------------------------


def _rule(rule):
    return None if rule is None else (rule.target, rule.condition,
                                      rule.modular_ok)


def _makefile_answers(makefile, names, configs) -> list:
    answers = [[_rule(rule) for rule in makefile.object_rules()],
               [_rule(rule) for rule in makefile.subdir_rules()]]
    for name in names:
        answers.append((name, _rule(makefile.rule_for_source(name)),
                        makefile.config_vars_for_object(name)))
        for config in configs:
            answers.append((makefile.source_is_enabled(name, config),
                            makefile.source_is_modular(name, config)))
    return answers


def assert_same_makefile(text: str, names, configs) -> None:
    old = ParentKbuildMakefile.parse(text, directory="d")
    new = KbuildMakefile.parse(text, directory="d")
    assert (new.objects, new.composites, new.mentioned_config_vars) == \
        (old.objects, old.composites, old.mentioned_config_vars)
    subdirs = {rule.target for rule in old.objects if rule.is_subdir}
    for subdir in sorted(subdirs) + ["ghost/"]:
        want = next((r for r in old.subdir_rules() if r.target == subdir),
                    None)
        assert _rule(new.subdir_rule(subdir)) == _rule(want), subdir
    assert _makefile_answers(new, names, configs) == \
        _makefile_answers(old, names, configs), text


def _build_answers(build, paths, arch_configs) -> list:
    answers = []
    for path in paths:
        answers.append((path, build.gate_symbols(path)))
        for arch, config in arch_configs:
            # asked twice: the second answer comes from the memo
            answers.append((build.is_buildable(path, arch, config),
                            build.is_buildable(path, arch, config),
                            build.is_modular(path, config)))
    return answers


def assert_same_build(files: dict, paths, arch_configs) -> None:
    new = BuildSystem(files.get)
    old = ParentBuildSystem(files.get)
    assert _build_answers(new, paths, arch_configs) == \
        _build_answers(old, paths, arch_configs)


# -- generated Makefile trees -----------------------------------------------------

SYMBOLS = ["A", "B", "C"]
LINES = [
    "obj-y += {o}.o", "obj-m += {o}.o", "obj-$(CONFIG_{s}) += {o}.o",
    "obj-$(CONFIG_{s}) += {o}.o {p}.o", "obj-y += sub/",
    "obj-$(CONFIG_{s}) += sub/", "obj-m += sub/ {o}.o",
    "{c}-objs := {o}.o {p}.o", "{c}-y += {o}.o", "{c}-$(CONFIG_{s}) += {p}.o",
    "{c}-y += sub/", "obj-$(CONFIG_{s}) += {c}.o", "obj-y += {c}.o",
    "# obj-y += {o}.o", "ccflags-y += -DCONFIG_{s}", "obj-y\t:= {o}.o",
    "obj-$(CONFIG_{s}) += {o}.o # trailing", "always-y += {o}.o", "",
]
OBJECTS = ["a", "b", "c"]
COMPOSITES = ["multi", "combo"]
NAMES = ["a.c", "b.c", "c.c", "multi.c", "combo.c", "ghost.c", "sub/",
         "a.o", "a.h", "multi"]


@st.composite
def makefile_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        lines.append(draw(st.sampled_from(LINES)).format(
            o=draw(st.sampled_from(OBJECTS)),
            p=draw(st.sampled_from(OBJECTS)),
            c=draw(st.sampled_from(COMPOSITES)),
            s=draw(st.sampled_from(SYMBOLS))))
    return "\n".join(lines) + "\n"


@st.composite
def configs(draw):
    values = {symbol: draw(st.sampled_from(
                  [Tristate.Y, Tristate.M, Tristate.N]))
              for symbol in SYMBOLS}
    return Config(name="random", values=values)


TREE_PATHS = ["drivers/dut/{n}" for n in ("a.c", "b.c", "c.c", "multi.c",
                                          "combo.c", "ghost.c")] + [
    "drivers/dut/sub/a.c", "drivers/dut/sub/multi.c", "drivers/a.c",
    "arch/x86/kernel/a.c", "arch/arm/kernel/a.c", "arch/x86/a.c",
    "Documentation/a.c", "drivers/none/a.c"]


class TestLookupsMatchScans:
    @given(makefile_texts(), st.lists(configs(), min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_makefile_queries(self, text, drawn):
        assert_same_makefile(text, NAMES, drawn)

    @given(st.dictionaries(
               st.sampled_from(["drivers/Makefile", "drivers/dut/Makefile",
                                "drivers/dut/sub/Makefile",
                                "arch/x86/Makefile",
                                "arch/x86/kernel/Makefile",
                                "arch/arm/kernel/Makefile"]),
               makefile_texts()),
           st.lists(configs(), min_size=1, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_build_system_queries(self, files, drawn):
        arch_configs = [(arch, config) for config in drawn
                        for arch in ("x86_64", "arm")]
        assert_same_build(files, TREE_PATHS, arch_configs)

    def test_first_duplicate_wins(self):
        text = ("obj-$(CONFIG_A) += a.o sub/\nobj-y += a.o\n"
                "obj-$(CONFIG_B) += sub/\nmulti-y += b.o\n"
                "combo-y += b.o\nobj-$(CONFIG_C) += combo.o\n"
                "obj-m += multi.o\nobj-y += combo.o\n")
        every = [Config(name="all", values={s: Tristate.Y for s in SYMBOLS})]
        assert_same_makefile(text, NAMES, every)
        makefile = KbuildMakefile.parse(text)
        assert makefile.rule_for_source("a.c").condition == "A"
        assert makefile.subdir_rule("sub/").condition == "A"
        # multi.o has an obj- rule (listed after combo's), and multi
        # comes first among the composites holding b.o
        assert makefile.rule_for_source("b.c").target == "multi.o"
        assert makefile.config_vars_for_object("b.c") == ["C"]


# -- both shared corpora ----------------------------------------------------------


def _c_names(paths, directory) -> list[str]:
    prefix = f"{directory}/" if directory else ""
    return sorted({path[len(prefix):] for path in paths
                   if path.startswith(prefix) and path.endswith(".c")
                   and "/" not in path[len(prefix):]})


@pytest.mark.parametrize("corpus_name", ["small_corpus", "midsize_corpus"])
def test_every_makefile_of_every_commit(corpus_name, request):
    corpus = request.getfixturevalue(corpus_name)
    everything = LogOptions(modifications_only=False, no_merges=False)
    commits = corpus.repository.log(options=everything)
    head = commits[-1].tree
    c_paths = [path for path in head.paths() if path.endswith(".c")]
    # one assignment per architecture, reused for every commit: the
    # answers are a function of the Makefiles and the assignment
    probe = BuildSystem(head.get, path_lister=head.paths)
    arch_configs = [(arch, probe.make_config(arch, target))
                    for arch in ("x86_64", "arm")
                    for target in ("allyesconfig", "allnoconfig")]
    configs = [config for _, config in arch_configs]
    seen_texts: set[tuple[str, str]] = set()
    seen_trees: set[tuple[str, ...]] = set()
    for commit in commits:
        tree = commit.tree
        makefiles = tuple(tree[path] for path in tree.paths()
                          if path.endswith("Makefile"))
        for path in tree.paths():
            if path.endswith("Makefile") and (path, tree[path]) \
                    not in seen_texts:
                seen_texts.add((path, tree[path]))
                directory = posixpath.dirname(path)
                names = _c_names(tree.paths(), directory) + ["ghost.c"]
                assert_same_makefile(tree[path], names, configs)
        if makefiles not in seen_trees:
            seen_trees.add(makefiles)
            paths = [path for path in tree.paths() if path.endswith(".c")]
            assert_same_build(dict(tree.items()), paths, arch_configs)
    assert len(seen_texts) > 20 and c_paths
