"""Classification of source lines for mutation placement.

For each physical line of a file, determine (§III-B):

- is it entirely inside a comment? (never processed by the compiler —
  not relevant to JMake);
- is it part of a macro definition (a ``#define`` logical line,
  including backslash continuations)? which macro?
- is it a conditional-compilation directive (``#if``/``#ifdef``/
  ``#ifndef``/``#elif``/``#else``)? — these are the boundaries between
  mutation groups for ordinary code;
- does it *begin* in the middle of a comment that ends on the line?
  (the mutation must then be placed after the comment's end).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.util.text import split_lines_keepends


class LineClass(Enum):
    """Mutation-relevant classification of a physical line."""
    COMMENT = "comment"          # entirely within a comment
    MACRO_DEF = "macro"          # part of a #define logical line
    DIRECTIVE = "directive"      # other preprocessor directive lines
    CONDITIONAL = "conditional"  # #if / #ifdef / #ifndef / #elif / #else
    CODE = "code"                # everything else (incl. blank lines)


@dataclass
class MacroRegion:
    """The physical extent of one #define logical line."""

    name: str
    start: int   # 1-based first physical line (the #define line)
    end: int     # 1-based last physical line (inclusive)


@dataclass
class LineInfo:
    """Classification record for one physical line."""
    lineno: int
    text: str
    line_class: LineClass
    macro: MacroRegion | None = None
    #: line starts inside a comment that terminates on this line
    starts_mid_comment: bool = False
    #: column just after the closing */ when starts_mid_comment
    comment_end_column: int = 0


_CONDITIONAL_KEYWORDS = ("if", "ifdef", "ifndef", "elif", "else")


def _directive_keyword(stripped: str) -> str | None:
    text = stripped.lstrip(" \t")
    if not text.startswith("#"):
        return None
    rest = text[1:].lstrip(" \t")
    keyword = ""
    for ch in rest:
        if ch.isalpha():
            keyword += ch
        else:
            break
    return keyword


class SourceMap:
    """Per-line classification of one file's text."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines: list[LineInfo] = []
        self.macros: list[MacroRegion] = []
        self._analyze()

    # -- queries -----------------------------------------------------------

    def info(self, lineno: int) -> LineInfo:
        """The LineInfo for a 1-based line number."""
        if not 1 <= lineno <= len(self.lines):
            raise IndexError(f"{self.path}: no line {lineno}")
        return self.lines[lineno - 1]

    def classify(self, lineno: int) -> LineClass:
        """The LineClass for a 1-based line number."""
        return self.info(lineno).line_class

    def macro_at(self, lineno: int) -> MacroRegion | None:
        """The macro region covering the line, or None."""
        return self.info(lineno).macro

    def last_conditional_before(self, lineno: int) -> int:
        """1-based line of the nearest conditional directive strictly
        before ``lineno``; 0 when none (i.e. since file start)."""
        for index in range(lineno - 2, -1, -1):
            if self.lines[index].line_class is LineClass.CONDITIONAL:
                return index + 1
        return 0

    def line_count(self) -> int:
        """Number of physical lines in the file."""
        return len(self.lines)

    # -- analysis -------------------------------------------------------------

    def _analyze(self) -> None:
        physical = [line.rstrip("\n")
                    for line in split_lines_keepends(self.text)]
        in_block_comment = False
        index = 0
        while index < len(physical):
            raw = physical[index]
            started_in_comment = in_block_comment
            visible, in_block_comment, end_column = _strip_comment_state(
                raw, in_block_comment)
            lineno = index + 1

            if started_in_comment and not visible.strip() \
                    and in_block_comment:
                # Entire line inside an unterminated block comment.
                self.lines.append(LineInfo(
                    lineno=lineno, text=raw, line_class=LineClass.COMMENT))
                index += 1
                continue
            if not visible.strip() and (started_in_comment or
                                        _is_pure_comment(raw)):
                self.lines.append(LineInfo(
                    lineno=lineno, text=raw, line_class=LineClass.COMMENT))
                index += 1
                continue

            keyword = _directive_keyword(visible)
            if keyword == "define":
                start = lineno
                # Extend through continuations.
                end_index = index
                while end_index < len(physical) - 1 and \
                        physical[end_index].rstrip(" \t").endswith("\\"):
                    end_index += 1
                name = _macro_name(visible)
                region = MacroRegion(name=name, start=start,
                                     end=end_index + 1)
                self.macros.append(region)
                for offset in range(index, end_index + 1):
                    self.lines.append(LineInfo(
                        lineno=offset + 1, text=physical[offset],
                        line_class=LineClass.MACRO_DEF, macro=region))
                    # Comment state may change inside the macro body.
                    if offset != index:
                        _, in_block_comment, _ = _strip_comment_state(
                            physical[offset], in_block_comment)
                index = end_index + 1
                continue
            if keyword in _CONDITIONAL_KEYWORDS:
                line_class = LineClass.CONDITIONAL
            elif keyword is not None and keyword != "":
                line_class = LineClass.DIRECTIVE
            else:
                line_class = LineClass.CODE
            self.lines.append(LineInfo(
                lineno=lineno, text=raw, line_class=line_class,
                starts_mid_comment=started_in_comment and not in_block_comment,
                comment_end_column=end_column if started_in_comment else 0))
            index += 1


def _strip_comment_state(line: str, in_block: bool
                         ) -> tuple[str, bool, int]:
    """Strip comments from one line given entry state.

    Returns (visible_text, exit_state, end_column) where ``end_column``
    is the index just past the last ``*/`` that closed an entry-state
    comment (0 if not applicable).
    """
    if not in_block and "/" not in line:
        # No comment can open, and quoted text is kept verbatim.
        return line, False, 0
    out: list[str] = []
    i = 0
    n = len(line)
    end_column = 0
    entered_in_block = in_block
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True, end_column
            in_block = False
            i = end + 2
            if entered_in_block:
                end_column = i
                entered_in_block = False
            out.append(" ")
            continue
        ch = line[i]
        if ch == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if ch in "\"'":
            j = i + 1
            while j < n:
                if line[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if line[j] == ch:
                    j += 1
                    break
                j += 1
            out.append(line[i:j])
            i = j
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block, end_column


def _is_pure_comment(line: str) -> bool:
    stripped = line.strip()
    return (stripped.startswith("/*") or stripped.startswith("//")
            or stripped.startswith("*")) and True


def _macro_name(visible_define_line: str) -> str:
    text = visible_define_line.lstrip(" \t")
    assert text.startswith("#")
    rest = text[1:].lstrip(" \t")
    assert rest.startswith("define")
    rest = rest[len("define"):].lstrip(" \t")
    name = ""
    for ch in rest:
        if ch.isalnum() or ch == "_":
            name += ch
        else:
            break
    return name
