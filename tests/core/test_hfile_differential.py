"""Differential tests: the header candidate search against its regex scan.

``HFileProcessor.candidates_for`` runs a regex over a ``.c`` text only
when the regex's literal part occurs in it: the header basename for the
include regex, the hint for ``\\b<hint>\\b``. The oracle below is the
search without that test, copied verbatim. Generated texts mix the
pieces where the two could disagree: ``"...>`` and ``<..."`` closers,
include targets that span a newline, an ``#include`` inside another's
unterminated target, hints that are a prefix or suffix of a longer
identifier, non-ASCII letters beside a hint, and hints at the start or
end of the text.
"""

import posixpath
import re

from hypothesis import given, settings, strategies as st

from repro.core.hfile import (
    CandidateCFile,
    HFileProcessor,
    IGNORED_PREFIXES,
    _arch_of,
)
from repro.core.mutation import MutationPlan
from repro.evalsuite.runner import EvaluationSession


def regex_candidates_for(self, plan: MutationPlan) -> list[CandidateCFile]:
    """Includers and hint-referencing .c files, priority ordered."""
    header_path = plan.path
    basename = posixpath.basename(header_path)
    hints = plan.macro_hints
    hint_res = [re.compile(rf"\b{re.escape(hint)}\b")
                for hint in hints]
    include_re = re.compile(
        rf'#\s*include\s+["<](?:[^">]*/)?{re.escape(basename)}[">]')

    header_arch = _arch_of(header_path)
    found: list[CandidateCFile] = []
    for path in self._paths():
        if not path.endswith(".c") or path.startswith(IGNORED_PREFIXES):
            continue
        candidate_arch = _arch_of(path)
        if header_arch is not None and candidate_arch is not None \
                and candidate_arch != header_arch:
            continue
        text = self._provider(path)
        if text is None:
            continue
        includes = include_re.search(text) is not None
        hit_count = sum(1 for hint_re in hint_res
                        if hint_re.search(text))
        if includes or hit_count > 0:
            found.append(CandidateCFile(
                path=path, includes_header=includes,
                hint_count=hit_count, total_hints=len(hints)))
    found.sort(key=lambda c: (c.priority, c.path))
    return found


#: headers always sit in a directory, so the path is never the basename
HEADERS = ["include/linux/foo.h", "drivers/net/foo.h", "arch/arm/foo.h",
           "include/linux/foo_bar.h", "include/uapi/x.h"]
HINTS = ["FOO", "FOO_BAR", "BAR", "X", "foo", "_FOO"]
NAMES = HINTS + ["foo.h", "foo_bar.h", "x.h"]

PIECES = [
    '#include "{n}"', "#include <{n}>", '#include "{n}>', '#include <{n}"',
    "#include <linux/{n}>", '#include "../{n}"', "# include <a/b/{n}>",
    "#include <linux\n/{n}>", '#include "{n}', "#include <a #include \"{n}\"",
    "#include <{n}.h>", "#include <x{n}>", "#define {n} 1", "{n}",
    "{n}_BAR", "X{n}", "é{n}", "{n}é", "{n}1", "({n})", "{n}.h", "\n",
]
SEPARATORS = ["", " ", "\n", "_", "é", "/"]

C_PATHS = ["drivers/net/a.c", "drivers/net/b.c", "arch/arm/kernel/c.c",
           "arch/x86/kernel/d.c", "Documentation/e.c", "tools/f.c",
           "kernel/g.c", "include/linux/foo.h", "drivers/net/h.S"]


@st.composite
def c_texts(draw):
    pieces = [draw(st.sampled_from(PIECES)).format(
                  n=draw(st.sampled_from(NAMES)))
              for _ in range(draw(st.integers(0, 4)))]
    return draw(st.sampled_from(SEPARATORS)).join(pieces)


@st.composite
def trees(draw):
    paths = draw(st.lists(st.sampled_from(C_PATHS), max_size=6,
                          unique=True))
    return {path: draw(c_texts()) for path in paths}


def _processor(files: dict[str, str]) -> HFileProcessor:
    # the candidate search reads only the path lister and the provider
    return HFileProcessor(None, None, lambda: sorted(files), files.get)


def _plan(header: str, hints: list[str]) -> MutationPlan:
    return MutationPlan(path=header, original_text="", mutated_text="",
                        macro_hints=list(hints))


def _assert_same(files: dict[str, str], plan: MutationPlan) -> None:
    processor = _processor(files)
    assert processor.candidates_for(plan) == \
        regex_candidates_for(processor, plan)


class TestSearchMatchesRegexScan:
    @given(trees(), st.sampled_from(HEADERS),
           st.lists(st.sampled_from(HINTS), max_size=3, unique=True))
    @settings(max_examples=500, deadline=None)
    def test_generated_trees(self, files, header, hints):
        _assert_same(files, _plan(header, hints))

    def test_named_adversarial_cases(self):
        files = {
            "drivers/net/a.c": '#include "foo.h>\nint FOO_BAR;\n',
            "drivers/net/b.c": "#include <linux\n/foo.h>",
            "kernel/c.c": '#include <a #include "foo.h"',
            "kernel/d.c": "#include <linux/foo.h",
            "kernel/e.c": "FOO",
            "kernel/f.c": "x = éFOO + FOOé + XFOO;",
            "kernel/g.c": "#include <linux/foo.h>\nint y = BAR;",
        }
        plan = _plan("include/linux/foo.h", ["FOO", "BAR"])
        _assert_same(files, plan)
        # the cases the docstring names, answered the same both ways
        found = {candidate.path: (candidate.includes_header,
                                  candidate.hint_count)
                 for candidate in _processor(files).candidates_for(plan)}
        assert found == {
            "drivers/net/a.c": (True, 0),   # "...> closer
            "drivers/net/b.c": (True, 0),   # target spans a newline
            "kernel/c.c": (True, 0),        # include inside a target
            "kernel/e.c": (False, 1),       # hint is the whole text
            "kernel/g.c": (True, 1),        # hint at the end
        }


class TestEverySessionCall:
    def test_every_candidate_search_of_a_run(self, monkeypatch,
                                             small_corpus, midsize_corpus):
        calls = []
        search = HFileProcessor.candidates_for

        def checked(self, plan):
            got = search(self, plan)
            assert got == regex_candidates_for(self, plan), plan.path
            calls.append(plan.path)
            return got

        monkeypatch.setattr(HFileProcessor, "candidates_for", checked)
        for corpus in (small_corpus, midsize_corpus):
            before = len(calls)
            EvaluationSession(corpus).run()
            assert len(calls) > before
