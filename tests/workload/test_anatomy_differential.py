"""Differential tests: ``SourceAnatomy.scan`` against its earlier form.

The scanner now runs the hazard-opener regexes only on ``#if`` lines,
skips lines without a ``#`` outside every block, reads each line's
class once, and bumps numbers through the text-level ``bump_number``.
The oracle is the scanner as it was before, copied verbatim: the opener
regexes on every line, ``raw.strip()`` on every code line, and the
number bump as a method body.

Inputs are generated texts built from the lines that matter: hazard
openers written flush, indented (spaces, tabs, a no-break space) and
with spaces after the ``#``; ``#if 0``; ``#ifdef CONFIG_*_EXTRA`` with
and without an ``#else``; look-alike directives (``#iffy``,
``#ifdef MODULES``); unterminated and stray ``#else``/``#endif``;
comments and continued macros; non-ASCII text, and free text over a
small alphabet. Every commit of a generated history is scanned too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sourcemap import LineClass, SourceMap
from repro.kernel.layout import HazardKind
from repro.workload.anatomy import (
    HazardBlock,
    SourceAnatomy,
    _HAZARD_OPENERS,
    _INT_RE,
    _find_hazard_blocks,
    bump_number,
)

# -- the oracle: the scanner before this change --------------------------------


def parent_find_hazard_blocks(text: str) -> list[HazardBlock]:
    """Pair hazard openers with their #endif, collecting body lines."""
    blocks: list[HazardBlock] = []
    stack: list[tuple[HazardBlock | None, bool]] = []  # (block, in_else)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        opener_kind = None
        for regex, kind in _HAZARD_OPENERS:
            if regex.match(stripped):
                opener_kind = kind
                break
        if stripped.startswith(("#if", "#ifdef", "#ifndef")):
            block = None
            if opener_kind is not None:
                block = HazardBlock(kind=opener_kind, start=lineno,
                                    end=lineno)
                blocks.append(block)
            stack.append((block, False))
            continue
        if stripped.startswith("#else"):
            if stack:
                block, _ = stack[-1]
                stack[-1] = (block, True)
            continue
        if stripped.startswith("#endif"):
            if stack:
                block, _ = stack.pop()
                if block is not None:
                    block.end = lineno
            continue
        if stack:
            block, in_else = stack[-1]
            if block is not None and stripped:
                if in_else:
                    block.else_lines.append(lineno)
                else:
                    block.body_lines.append(lineno)
    return blocks


def parent_scan(path: str, text: str) -> SourceAnatomy:
    """Analyze a file into editable line populations."""
    anatomy = SourceAnatomy(path=path, text=text)
    source_map = SourceMap(path, text)
    hazard_line_set: set[int] = set()
    anatomy.hazard_blocks = parent_find_hazard_blocks(text)
    for block in anatomy.hazard_blocks:
        hazard_line_set.update(block.body_lines)
        hazard_line_set.update(block.else_lines)
        hazard_line_set.add(block.start)
        hazard_line_set.add(block.end)

    lines = text.split("\n")
    for info in source_map.lines:
        lineno = info.lineno
        raw = lines[lineno - 1] if lineno <= len(lines) else ""
        if info.line_class is LineClass.COMMENT:
            anatomy.comment_lines.append(lineno)
            continue
        if lineno in hazard_line_set:
            continue  # classified separately
        if info.line_class is LineClass.MACRO_DEF:
            anatomy.macro_lines.append(lineno)
            region = info.macro
            if region is not None and "_UNUSED_" in region.name:
                anatomy.unused_macro_lines.append(lineno)
            continue
        if info.line_class is LineClass.CODE and raw.strip() \
                and raw.rstrip().endswith(";") and _INT_RE.search(raw):
            anatomy.code_lines.append(lineno)
    return anatomy


def parent_bump_number(text: str, lineno: int) -> "str | None":
    """New file text with an integer literal on the line incremented."""
    lines = text.split("\n")
    if not 1 <= lineno <= len(lines):
        return None
    raw = lines[lineno - 1]
    match = _INT_RE.search(raw)
    if not match:
        return None
    literal = match.group(1)
    value = int(literal, 16) if literal.startswith("0x") else int(literal)
    replacement = hex(value + 1) if literal.startswith("0x") \
        else str(value + 1)
    lines[lineno - 1] = raw[:match.start()] + replacement \
        + raw[match.end():]
    return "\n".join(lines)


# -- generated inputs --------------------------------------------------------------

DIRECTIVES = [
    "#if 0", "#if 0 /* dead */", "#if 00", "#if 1", "#if defined(X)",
    "#ifdef MODULE", "#ifdef MODULES", "#ifndef CONFIG_FOO",
    "#ifndef MODULE", "#ifdef CONFIG_IOSCHED_DEADLINE",
    "#ifdef CONFIG_PREEMPT_FULL", "#ifdef CONFIG_SMP_CPU_HOTPLUG",
    "#ifdef CONFIG_LEGACY_FEATURE_12", "#ifdef CONFIG_LEGACY_FEATURE_",
    "#ifdef CONFIG_NET_EXTRA", "#ifdef CONFIG_NET_EXTRA_MORE",
    "#ifdef CONFIG_ÄÖ_EXTRA", "#ifdef CONFIG_PCI_SPECIAL_BUS",
    "#ifdef CONFIG_FOO", "#iffy", "#elif X", "#else", "#else /* y */",
    "#endif", "#endif // z", "#endiff", "#include <linux/x.h>",
    "#define DEMO_BASE 0x0100", "#define DEMO_UNUSED_SHIFT(x) ((x) << 2)",
    "#define LONG_MACRO(a) \\", "\t((a) + 3)", "# if 0", "#  ifdef MODULE",
]
CODE = [
    "", " ", "\t", "\tint value = 3;", "\treturn value + 0x1f;",
    "\tstatus = status + 2;", "\tx;", "int f(void)", "{", "}",
    "/* comment 1 */", "/* open 2", " * middle 3", " */", "// line 4",
    "\tconst char *s = \"héllo 5\";", "/* ünïcode 6 */", "\tα = β + 7;",
    "\tint y = 1; /* trailing 8 */", "\tint z = 9;\r", " \tint w = 4;",
]
INDENTS = ["", " ", "\t", "  \t", "\u00a0", "\u3000"]

directive_lines = st.builds(lambda indent, line: indent + line,
                            st.sampled_from(INDENTS),
                            st.sampled_from(DIRECTIVES))
structured_text = st.lists(
    st.one_of(directive_lines, st.sampled_from(CODE)),
    max_size=40).map("\n".join)
free_text = st.text(alphabet="#ifdnel0 \t\n;1x/*_CONFIG\\é", max_size=120)
texts = st.one_of(structured_text, free_text)


def populations(anatomy: SourceAnatomy) -> tuple:
    """Everything a scan reports, hazard methods included."""
    return (
        anatomy.path, anatomy.text, anatomy.code_lines, anatomy.macro_lines,
        anatomy.comment_lines, anatomy.unused_macro_lines,
        anatomy.hazard_blocks,
        {kind: anatomy.hazard_lines(kind) for kind in HazardKind},
        anatomy.ifdef_else_pairs(),
        sorted(kind.value for kind in anatomy.available_hazards()),
    )


def assert_same_scan(text: str, path: str = "drivers/demo/demo.c") -> None:
    assert _find_hazard_blocks(text) == parent_find_hazard_blocks(text)
    assert populations(SourceAnatomy.scan(path, text)) == \
        populations(parent_scan(path, text))
    for lineno in range(text.count("\n") + 3):
        assert bump_number(text, lineno) == \
            parent_bump_number(text, lineno)


@settings(max_examples=300, deadline=None)
@given(texts)
def test_scan_matches_the_parent_scanner(text):
    assert_same_scan(text)


@pytest.mark.parametrize("text", [
    "#if 0\n\tint a = 1;\n",                            # unterminated
    "#endif\n#else\n\tint a = 1;\n",                    # stray closers
    "  #ifdef CONFIG_NET_EXTRA\n\tint a = 1;\n#else\n\tint b = 2;\n#endif",
    "#ifdef CONFIG_X\n#if 0\n\tint a = 1;\n#endif\n\tint b = 2;\n#endif",
    " #if 0\n\tint a = 1;\n#endif\n",
    "# if 0\n\tint a = 1;\n#endif\n",
])
def test_named_shapes_match_the_parent_scanner(text):
    assert_same_scan(text)


def test_every_generated_text_matches_the_parent_scanner(small_corpus):
    """Each distinct file text of a generated history scans alike."""
    seen: set[tuple[str, str]] = set()
    for commit in small_corpus.repository.log():
        for path in small_corpus.repository.changed_paths(commit):
            text = commit.tree[path]
            if path.endswith((".c", ".h")) and (path, text) not in seen:
                seen.add((path, text))
                assert_same_scan(text, path)
    assert len(seen) > 100


def test_only_if_lines_can_open_a_block():
    """The regex skip rests on every opener matching ``#if`` first."""
    for regex, _ in _HAZARD_OPENERS:
        assert regex.pattern.startswith("^#if")
