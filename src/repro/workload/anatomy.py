"""Finding safely editable points in generated source text.

The commit generator must produce patches that (a) keep the file
compilable — real kernel patches overwhelmingly compile — and (b) can be
aimed at specific line populations: ordinary statements, macro bodies,
comments, or lines inside configurability-hazard blocks.

The anatomy scanner is text-based: it re-derives structure from the file
content (the same way JMake itself must), so it stays correct even after
files have been edited repeatedly across a commit stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.sourcemap import LineClass, SourceMap
from repro.kernel.layout import HazardKind

_INT_RE = re.compile(r"(?<![\w.])(0x[0-9a-fA-F]+|\d+)(?![\w.])")

#: hazard-block openers recognisable in text; #else handled via pairing
_HAZARD_OPENERS = [
    (re.compile(r"^#if 0\b"), HazardKind.IF_ZERO),
    (re.compile(r"^#ifdef MODULE\b"), HazardKind.MODULE_ONLY),
    (re.compile(r"^#ifndef CONFIG_\w+"), HazardKind.IFNDEF),
    (re.compile(r"^#ifdef CONFIG_(IOSCHED_|PREEMPT_|\w*CPU_)"),
     HazardKind.CHOICE_UNSET),
    (re.compile(r"^#ifdef CONFIG_LEGACY_FEATURE_\d+"),
     HazardKind.NEVER_SET),
    # #ifdef CONFIG_<X>_EXTRA ... #else ... #endif: the else branch is
    # dead under allyesconfig; editing both sides is IFDEF_AND_ELSE.
    (re.compile(r"^#ifdef CONFIG_\w+_EXTRA\b"), HazardKind.IFDEF_AND_ELSE),
    # arch-only bus blocks: hidden from the host but compiled elsewhere
    (re.compile(r"^#ifdef CONFIG_\w+_SPECIAL_BUS\b"),
     HazardKind.ARCH_CONDITIONAL),
]


@dataclass
class HazardBlock:
    """One recognized hazard region with its editable lines."""
    kind: HazardKind
    start: int        # line of the opening directive (1-based)
    end: int          # line of the matching #endif
    body_lines: list[int] = field(default_factory=list)
    #: lines in the #else part, when the block has one
    else_lines: list[int] = field(default_factory=list)


@dataclass
class SourceAnatomy:
    """Editable line populations of one file."""

    path: str
    text: str
    code_lines: list[int] = field(default_factory=list)
    macro_lines: list[int] = field(default_factory=list)
    comment_lines: list[int] = field(default_factory=list)
    hazard_blocks: list[HazardBlock] = field(default_factory=list)
    unused_macro_lines: list[int] = field(default_factory=list)

    @classmethod
    def scan(cls, path: str, text: str) -> "SourceAnatomy":
        """Analyze a file into editable line populations."""
        anatomy = cls(path=path, text=text)
        source_map = SourceMap(path, text)
        hazard_line_set: set[int] = set()
        anatomy.hazard_blocks = _find_hazard_blocks(text)
        for block in anatomy.hazard_blocks:
            hazard_line_set.update(block.body_lines)
            hazard_line_set.update(block.else_lines)
            hazard_line_set.add(block.start)
            hazard_line_set.add(block.end)

        lines = text.split("\n")
        for lineno, line_class in enumerate(source_map.classes, start=1):
            if line_class is LineClass.COMMENT:
                anatomy.comment_lines.append(lineno)
                continue
            if lineno in hazard_line_set:
                continue  # classified separately
            if line_class is LineClass.MACRO_DEF:
                anatomy.macro_lines.append(lineno)
                if "_UNUSED_" in source_map.macro_at(lineno).name:
                    anatomy.unused_macro_lines.append(lineno)
                continue
            if line_class is LineClass.CODE:
                raw = lines[lineno - 1]
                if raw.rstrip().endswith(";") and _INT_RE.search(raw):
                    anatomy.code_lines.append(lineno)
        return anatomy

    def hazard_lines(self, kind: HazardKind) -> list[int]:
        """Editable lines under hazard blocks of the given kind."""
        if kind is HazardKind.UNUSED_MACRO:
            return list(self.unused_macro_lines)
        selected: list[int] = []
        for block in self.hazard_blocks:
            if block.kind is kind:
                selected.extend(line for line in block.body_lines
                                if self._numeric(line) or
                                self._statement(line))
        return selected

    def ifdef_else_pairs(self) -> list[HazardBlock]:
        """Blocks with both a body and an #else part (IFDEF_AND_ELSE)."""
        return [block for block in self.hazard_blocks
                if block.kind is HazardKind.IFDEF_AND_ELSE
                and block.else_lines and block.body_lines]

    def available_hazards(self) -> set[HazardKind]:
        """Hazard kinds this file can express an edit against."""
        kinds = {block.kind for block in self.hazard_blocks
                 if self.hazard_lines(block.kind)}
        if self.unused_macro_lines:
            kinds.add(HazardKind.UNUSED_MACRO)
        if self.ifdef_else_pairs():
            kinds.add(HazardKind.IFDEF_AND_ELSE)
        return kinds

    # -- edit primitives (all preserve compilability) ---------------------

    def bump_number(self, lineno: int) -> "str | None":
        """New file text with an integer literal on the line incremented."""
        return bump_number(self.text, lineno)

    def edit_comment(self, lineno: int, tag: str) -> "str | None":
        """New text with a tag appended inside a comment line."""
        lines = self.text.split("\n")
        if not 1 <= lineno <= len(lines):
            return None
        raw = lines[lineno - 1]
        if "*/" in raw:
            lines[lineno - 1] = raw.replace("*/", f"({tag}) */", 1)
        else:
            lines[lineno - 1] = raw + f" {tag}"
        return "\n".join(lines)

    def insert_statement_after(self, lineno: int, statement: str
                               ) -> "str | None":
        """New text with a statement inserted below the line."""
        lines = self.text.split("\n")
        if not 1 <= lineno <= len(lines):
            return None
        indent = re.match(r"[ \t]*", lines[lineno - 1]).group(0)
        lines.insert(lineno, f"{indent}{statement}")
        return "\n".join(lines)

    def remove_line(self, lineno: int) -> "str | None":
        """Remove a full statement line (safe for the substrate compiler)."""
        lines = self.text.split("\n")
        if not 1 <= lineno <= len(lines):
            return None
        if not lines[lineno - 1].rstrip().endswith(";"):
            return None
        del lines[lineno - 1]
        return "\n".join(lines)

    # -- internals ------------------------------------------------------------

    def _numeric(self, lineno: int) -> bool:
        lines = self.text.split("\n")
        return 1 <= lineno <= len(lines) and \
            _INT_RE.search(lines[lineno - 1]) is not None

    def _statement(self, lineno: int) -> bool:
        lines = self.text.split("\n")
        return 1 <= lineno <= len(lines) and \
            lines[lineno - 1].rstrip().endswith(";")


def bump_number(text: str, lineno: int) -> "str | None":
    """New text with the first integer literal on the line incremented.

    It reads no scan, so an edit that bumps a text again needs none.
    """
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


def _find_hazard_blocks(text: str) -> list[HazardBlock]:
    """Pair hazard openers with their #endif, collecting body lines."""
    blocks: list[HazardBlock] = []
    stack: list[tuple[HazardBlock | None, bool]] = []  # (block, in_else)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not stack and "#" not in raw:
            continue  # outside every #if block only a directive counts
        stripped = raw.strip()
        # every opener matches "^#if", so only such a line can open a block
        if stripped.startswith("#if"):
            block = None
            for regex, kind in _HAZARD_OPENERS:
                if regex.match(stripped):
                    block = HazardBlock(kind=kind, start=lineno, end=lineno)
                    blocks.append(block)
                    break
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
