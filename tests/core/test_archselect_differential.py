"""Differential tests: the arch/ mention index against the regex scans.

``ArchSelector`` answers its two arch/ lookups from an index built once
per arch/ content. The oracle below is the per-variable scan it
replaced, copied verbatim: a ``\\bCONFIG_<v>\\b`` search (or a
``^config <v>$`` line in a Kconfig file) over every arch/ file, and a
``CONFIG_<v>=`` substring test over every defconfig. Generated arch/
trees mix the pieces where the two could disagree: word-boundary
neighbours, overlapping ``CONFIG_`` prefixes, ``\\r\\n`` line ends,
trailing spaces and non-ASCII word characters.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.core.archselect import ArchSelector
from repro.kbuild.build import BuildSystem
from repro.util.rng import DeterministicRng


class ScanArchSelector(ArchSelector):
    """The per-variable regex/substring scans, as the oracle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._arch_mention_cache: dict[str, set[str]] = {}
        self._configs_mention_cache: dict[str, list[str]] = {}

    def _arch_dirs_mentioning(self, variable: str) -> list[str]:
        """arch/ subdirectories whose files mention CONFIG_<variable>."""
        if variable not in self._arch_mention_cache:
            mentions: set[str] = set()
            config_re = re.compile(rf"\bCONFIG_{re.escape(variable)}\b")
            define_re = re.compile(rf"^config {re.escape(variable)}$",
                                   re.MULTILINE)
            for path in self._paths():
                if not path.startswith("arch/"):
                    continue
                parts = path.split("/")
                if len(parts) < 3:
                    continue
                text = self._provider(path)
                if text is None:
                    continue
                if config_re.search(text):
                    mentions.add(parts[1])
                elif path.endswith("Kconfig") and define_re.search(text):
                    mentions.add(parts[1])
            self._arch_mention_cache[variable] = mentions
        return sorted(self._arch_mention_cache[variable])

    def _config_files_mentioning(self, variable: str) -> list[str]:
        if variable not in self._configs_mention_cache:
            needle = f"CONFIG_{variable}="
            found: list[str] = []
            for path in self._paths():
                if "/configs/" not in path or not path.startswith("arch/"):
                    continue
                text = self._provider(path)
                if text and needle in text:
                    found.append(path)
            self._configs_mention_cache[variable] = found
        return self._configs_mention_cache[variable]


#: variable names as KbuildMakefile.parse yields them ([A-Za-z0-9_]+),
#: chosen to be prefixes, suffixes and CONFIG_-prefixed forms of each
#: other
NAMES = ["FOO", "FOO_BAR", "CONFIG_FOO", "BAR", "F", "FOO1", "_FOO",
         "foo", "ARM"]

PIECES = [
    "CONFIG_{n}", "XCONFIG_{n}", "CONFIG_{n}_BAR", "CONFIG_CONFIG_{n}=",
    "CONFIG_{n}=y", "CONFIG_{n} =y", "CONFIG_{n}=", "# CONFIG_{n} is not set",
    "config {n}", "config {n} ", "config {n}\r", "\tconfig {n}",
    "menuconfig {n}", "config  {n}", "CONFIG_{n}é", "éCONFIG_{n}",
    "CONFIG_{n}é=", "depends on {n}", "#ifdef CONFIG_{n}",
    "defined(CONFIG_{n})", "CONFIG_", "config", "=",
]
SEPARATORS = [" ", "", "\t", "é", "_", "="]
LINE_ENDS = ["\n", "\n", "\r\n", ""]

ARCH_PATHS = [
    "arch/arm/Kconfig", "arch/arm/Kconfig.debug",
    "arch/arm/configs/a_defconfig", "arch/arm/configs/b_defconfig",
    "arch/arm/kernel/setup.c", "arch/x86/Kconfig",
    "arch/x86/configs/x86_64_defconfig", "arch/x86/include/asm/io.h",
    "arch/mips/sub/Kconfig", "arch/mips/configs/sub/c_defconfig",
    "arch/hexagon/Kconfig", "arch/hexagon/configs/h_defconfig",
    "arch/arm/defconfigs/old_defconfig", "arch/configs/x", "arch/Kconfig",
    "arch/arm64",
]


@st.composite
def arch_texts(draw):
    """Lines of one or two pieces, each with its own line end."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        pieces = [draw(st.sampled_from(PIECES)).format(
                      n=draw(st.sampled_from(NAMES)))
                  for _ in range(draw(st.integers(1, 2)))]
        lines.append(draw(st.sampled_from(SEPARATORS)).join(pieces)
                     + draw(st.sampled_from(LINE_ENDS)))
    return "".join(lines)


@st.composite
def arch_trees(draw):
    paths = draw(st.lists(st.sampled_from(ARCH_PATHS), max_size=10,
                          unique=True))
    return {path: draw(arch_texts()) for path in paths}


def _base_files() -> dict[str, str]:
    """One Makefile tying each name to its own object, plus a stray .c
    file that falls back to every variable in the Makefile."""
    lines = [f"obj-$(CONFIG_{name}) += f{index}.o"
             for index, name in enumerate(NAMES)]
    files = {"drivers/dut/Makefile": "\n".join(lines) + "\n",
             "drivers/dut/stray.c": "int stray;\n"}
    for index in range(len(NAMES)):
        files[f"drivers/dut/f{index}.c"] = f"int f{index};\n"
    return files


def _selector(cls, files: dict[str, str]) -> ArchSelector:
    build = BuildSystem(files.get, path_lister=lambda: sorted(files))
    return cls(build, lambda: sorted(files), files.get,
               rng=DeterministicRng("archselect-differential"))


class TestIndexMatchesScan:
    @given(arch_trees())
    @settings(max_examples=300, deadline=None)
    def test_lookups_equal_scan(self, arch):
        files = {**_base_files(), **arch}
        indexed = _selector(ArchSelector, files)
        scanned = _selector(ScanArchSelector, files)
        for name in NAMES:
            assert indexed._arch_dirs_mentioning(name) == \
                scanned._arch_dirs_mentioning(name), name
            assert indexed._config_files_mentioning(name) == \
                scanned._config_files_mentioning(name), name

    @given(arch_trees())
    @settings(max_examples=150, deadline=None)
    def test_select_equals_scan(self, arch):
        files = {**_base_files(), **arch}
        indexed = _selector(ArchSelector, files)
        scanned = _selector(ScanArchSelector, files)
        sources = [f"drivers/dut/f{index}.c" for index in range(len(NAMES))]
        sources.append("drivers/dut/stray.c")
        for source in sources:
            got = indexed.select(source)
            want = scanned.select(source)
            assert got.candidates == want.candidates, source
            assert got.unsupported == want.unsupported, source
            assert got.no_makefile == want.no_makefile, source

    def test_named_adversarial_cases(self):
        files = {
            **_base_files(),
            "arch/arm/Kconfig": "config FOO \nconfig BAR\r\nconfig _FOO\n",
            "arch/x86/kernel/a.c": "XCONFIG_F CONFIG_FOO_BAR "
                                   "CONFIG_FOO1é\n",
            "arch/mips/configs/m_defconfig": "CONFIG_CONFIG_FOO=y\n"
                                             "CONFIG_BAR =y\n",
            "arch/configs/x": "CONFIG_FOO1=m\n",
            "arch/arm/configs/e_defconfig": "",
            "arch/x86/Kconfig.debug": "config F\n",
        }
        indexed = _selector(ArchSelector, files)
        scanned = _selector(ScanArchSelector, files)
        for name in NAMES:
            assert indexed._arch_dirs_mentioning(name) == \
                scanned._arch_dirs_mentioning(name), name
            assert indexed._config_files_mentioning(name) == \
                scanned._config_files_mentioning(name), name
        # the cases the docstring names, answered the same both ways
        assert indexed._arch_dirs_mentioning("_FOO") == ["arm"]
        assert indexed._arch_dirs_mentioning("FOO") == []
        assert indexed._arch_dirs_mentioning("CONFIG_FOO") == ["mips"]
        assert indexed._arch_dirs_mentioning("FOO1") == ["configs"]
        assert indexed._arch_dirs_mentioning("F") == []
        assert indexed._arch_dirs_mentioning("FOO_BAR") == ["x86"]
        assert indexed._config_files_mentioning("FOO") == \
            ["arch/mips/configs/m_defconfig"]
        assert indexed._config_files_mentioning("CONFIG_FOO") == \
            ["arch/mips/configs/m_defconfig"]
        assert indexed._config_files_mentioning("FOO1") == ["arch/configs/x"]
        assert indexed._config_files_mentioning("BAR") == []
