"""Differential tests: compiled MAINTAINERS globs against per-call regexes.

``_glob_match`` compiles each ``F:`` pattern once. The oracle is the
function it replaced, copied verbatim: it rebuilds and re-matches the
regex string on every call. Patterns are generated from characters that
are regex metacharacters when left unescaped.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.kernel.generator import generate_tree
from repro.kernel.maintainers import _glob_match


def parent_glob_match(pattern: str, path: str) -> bool:
    """Glob where ``*`` does not cross ``/`` (get_maintainer.pl style)."""
    regex = "".join("[^/]*" if ch == "*" else
                    "[^/]" if ch == "?" else re.escape(ch)
                    for ch in pattern)
    return re.fullmatch(regex, path) is not None


ALPHABET = "ab/*?.+[(\\$"
patterns = st.text(alphabet=ALPHABET, max_size=12)
fillers = st.text(alphabet="ab/.+[(\\$", max_size=4)


@st.composite
def pattern_and_path(draw):
    """A pattern plus a path that often matches it: each ``*`` becomes a
    random run and each ``?`` one random character."""
    pattern = draw(patterns)
    if draw(st.booleans()):
        return pattern, draw(st.text(alphabet=ALPHABET, max_size=12))
    path = "".join(draw(fillers) if ch == "*" else
                   draw(st.sampled_from("ab/.$")) if ch == "?" else ch
                   for ch in pattern)
    return pattern, path


class TestGlobMatchesParent:
    @given(pattern_and_path())
    @settings(max_examples=500, deadline=None)
    def test_generated_patterns(self, case):
        pattern, path = case
        assert _glob_match(pattern, path) == parent_glob_match(pattern, path)

    def test_repeated_calls_agree(self):
        # the second call answers from the compiled-pattern cache
        for _ in range(2):
            assert _glob_match("include/linux/*.h", "include/linux/a.h")
            assert not _glob_match("include/linux/*.h",
                                   "include/linux/sub/a.h")
            assert _glob_match("a.c", "a.c")
            assert not _glob_match("a.c", "abc")
            assert _glob_match("x?[", "xy[")

    def test_generated_tree(self):
        tree = generate_tree()
        patterns = {pattern for entry in tree.maintainers.entries
                    for pattern in entry.file_patterns}
        assert patterns
        for pattern in sorted(patterns):
            for path in sorted(tree.files):
                assert _glob_match(pattern, path) == \
                    parent_glob_match(pattern, path), (pattern, path)
