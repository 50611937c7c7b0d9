"""Unified diffs: the patch format JMake reads and writes.

A :class:`Patch` is a list of :class:`FileDiff` objects, each a list of
:class:`Hunk` objects, each a list of :class:`HunkLine` records tagged
``" "`` (context), ``"-"`` (removed) or ``"+"`` (added). The format is
byte-compatible with ``diff -u`` / ``git show`` for the subset the paper
relies on (no binary diffs, no renames — the evaluation filters to
``--diff-filter=M``, i.e. pure modifications).

Line-number conventions follow unified diff: ``old_start``/``new_start``
are 1-based; a hunk with zero lines on one side reports the line *before*
the change on that side.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import PatchApplyError, PatchFormatError


class LineKind(str, Enum):
    """Unified-diff line markers."""
    CONTEXT = " "
    REMOVED = "-"
    ADDED = "+"


@dataclass(frozen=True)
class HunkLine:
    """One annotated line of a hunk.

    ``old_lineno``/``new_lineno`` are the 1-based positions in the old and
    new file; a removed line has ``new_lineno is None`` and vice versa.
    ``text`` excludes the leading marker and the trailing newline.
    """

    kind: LineKind
    text: str
    old_lineno: int | None
    new_lineno: int | None

    def render(self) -> str:
        """Marker + text, as diff prints it."""
        return f"{self.kind.value}{self.text}"


@dataclass
class Hunk:
    """A contiguous region of change with surrounding context."""

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: list[HunkLine] = field(default_factory=list)

    @property
    def header(self) -> str:
        """The @@ -a,b +c,d @@ line."""
        return (f"@@ -{self.old_start},{self.old_count} "
                f"+{self.new_start},{self.new_count} @@")

    def added_lines(self) -> list[HunkLine]:
        """The + lines of this hunk."""
        return [line for line in self.lines if line.kind is LineKind.ADDED]

    def removed_lines(self) -> list[HunkLine]:
        """The - lines of this hunk."""
        return [line for line in self.lines if line.kind is LineKind.REMOVED]

    def is_pure_addition(self) -> bool:
        """True when the hunk only adds lines."""
        return bool(self.added_lines()) and not self.removed_lines()

    def is_pure_removal(self) -> bool:
        """True when the hunk only removes lines."""
        return bool(self.removed_lines()) and not self.added_lines()

    def render(self) -> str:
        """Header plus annotated lines."""
        body = "\n".join(line.render() for line in self.lines)
        return f"{self.header}\n{body}\n"


@dataclass
class FileDiff:
    """All hunks affecting one file."""

    path: str
    hunks: list[Hunk] = field(default_factory=list)

    def render(self) -> str:
        """git-style file diff text."""
        header = (f"diff --git a/{self.path} b/{self.path}\n"
                  f"--- a/{self.path}\n"
                  f"+++ b/{self.path}\n")
        return header + "".join(hunk.render() for hunk in self.hunks)

    def changed_new_linenos(self) -> list[int]:
        """New-side line numbers of added lines, in order."""
        numbers: list[int] = []
        for hunk in self.hunks:
            for line in hunk.lines:
                if line.kind is LineKind.ADDED and line.new_lineno is not None:
                    numbers.append(line.new_lineno)
        return numbers


@dataclass
class Patch:
    """A complete patch: one or more file diffs, as produced by git show."""

    files: list[FileDiff] = field(default_factory=list)

    def paths(self) -> list[str]:
        """Paths of all file diffs, in order."""
        return [file_diff.path for file_diff in self.files]

    def file(self, path: str) -> FileDiff:
        """The FileDiff for a path; KeyError when absent."""
        for file_diff in self.files:
            if file_diff.path == path:
                return file_diff
        raise KeyError(path)

    def render(self) -> str:
        """Concatenated file diffs."""
        return "".join(file_diff.render() for file_diff in self.files)

    def stats(self) -> "PatchStats":
        """``git diff --stat``-style totals."""
        insertions = deletions = 0
        for file_diff in self.files:
            for hunk in file_diff.hunks:
                insertions += len(hunk.added_lines())
                deletions += len(hunk.removed_lines())
        return PatchStats(files_changed=len(self.files),
                          insertions=insertions, deletions=deletions)


@dataclass(frozen=True)
class PatchStats:
    """git diff --stat style totals."""
    files_changed: int
    insertions: int
    deletions: int

    def render(self) -> str:
        """The familiar one-line summary."""
        return (f"{self.files_changed} file(s) changed, "
                f"{self.insertions} insertion(s)(+), "
                f"{self.deletions} deletion(s)(-)")


_HUNK_RE = re.compile(
    r"^@@ -(?P<old_start>\d+)(?:,(?P<old_count>\d+))? "
    r"\+(?P<new_start>\d+)(?:,(?P<new_count>\d+))? @@")


def parse_patch(text: str) -> Patch:
    """Parse unified-diff text into a :class:`Patch`.

    Accepts both plain ``diff -u`` output and ``git show`` output (the
    commit-message preamble before the first ``diff --git`` is skipped).
    """
    patch = Patch()
    current_file: FileDiff | None = None
    current_hunk: Hunk | None = None
    old_lineno = new_lineno = 0

    for raw in text.split("\n"):
        if raw.startswith("diff --git "):
            current_file = None
            current_hunk = None
            continue
        if raw.startswith("--- "):
            current_hunk = None
            continue
        if raw.startswith("+++ "):
            path = raw[4:].strip()
            if path.startswith("b/"):
                path = path[2:]
            current_file = FileDiff(path=path)
            patch.files.append(current_file)
            continue
        match = _HUNK_RE.match(raw)
        if match:
            if current_file is None:
                raise PatchFormatError(f"hunk header outside a file diff: {raw!r}")
            current_hunk = Hunk(
                old_start=int(match.group("old_start")),
                old_count=int(match.group("old_count") or "1"),
                new_start=int(match.group("new_start")),
                new_count=int(match.group("new_count") or "1"),
            )
            current_file.hunks.append(current_hunk)
            old_lineno = current_hunk.old_start
            new_lineno = current_hunk.new_start
            # A zero-count side reports the line before the hunk.
            if current_hunk.old_count == 0:
                old_lineno += 1
            if current_hunk.new_count == 0:
                new_lineno += 1
            continue
        if current_hunk is not None and _hunk_complete(current_hunk):
            current_hunk = None
        if current_hunk is None:
            continue  # commit-message preamble or trailing noise
        if raw.startswith("+"):
            current_hunk.lines.append(HunkLine(
                LineKind.ADDED, raw[1:], old_lineno=None, new_lineno=new_lineno))
            new_lineno += 1
        elif raw.startswith("-"):
            current_hunk.lines.append(HunkLine(
                LineKind.REMOVED, raw[1:], old_lineno=old_lineno, new_lineno=None))
            old_lineno += 1
        elif raw.startswith(" ") or raw == "":
            # An empty raw line inside a hunk is a context line whose text
            # is empty (diff tools emit a bare space, but tolerate "").
            text_part = raw[1:] if raw.startswith(" ") else ""
            current_hunk.lines.append(HunkLine(
                LineKind.CONTEXT, text_part,
                old_lineno=old_lineno, new_lineno=new_lineno))
            old_lineno += 1
            new_lineno += 1
        elif raw.startswith("\\"):
            continue  # "\ No newline at end of file"
        else:
            current_hunk = None  # end of hunk block (e.g. next commit header)
    _validate(patch)
    return patch


def _hunk_complete(hunk: Hunk) -> bool:
    old_seen = sum(1 for line in hunk.lines
                   if line.kind in (LineKind.CONTEXT, LineKind.REMOVED))
    new_seen = sum(1 for line in hunk.lines
                   if line.kind in (LineKind.CONTEXT, LineKind.ADDED))
    return old_seen >= hunk.old_count and new_seen >= hunk.new_count


def _validate(patch: Patch) -> None:
    for file_diff in patch.files:
        for hunk in file_diff.hunks:
            old_seen = sum(1 for line in hunk.lines
                           if line.kind in (LineKind.CONTEXT, LineKind.REMOVED))
            new_seen = sum(1 for line in hunk.lines
                           if line.kind in (LineKind.CONTEXT, LineKind.ADDED))
            if old_seen != hunk.old_count or new_seen != hunk.new_count:
                raise PatchFormatError(
                    f"{file_diff.path}: hunk {hunk.header} declares "
                    f"({hunk.old_count},{hunk.new_count}) lines but carries "
                    f"({old_seen},{new_seen})")


def _lines(text: str) -> list[str]:
    """The text's lines without their ``\\n``: a final ``\\n`` ends
    the last line rather than starting an empty one."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


#: every code point but ``\n`` for which ``str.isspace()`` is true;
#: deleting them from a line is ``"".join(line.split())``
_SPACES = ("\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
           "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008"
           "\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_SQUEEZE = str.maketrans("", "", _SPACES)


def _squeezed(text: str) -> list[str]:
    """The lines :func:`_lines` splits the text into, each with all of
    its whitespace removed (``-w``), from one translate of the text."""
    lines = text.translate(_SQUEEZE).split("\n")
    # decided on the text, not its squeeze: "a\n  " ends in a line of
    # spaces, which squeezes to "" and is kept
    if not text or text.endswith("\n"):
        lines.pop()
    return lines


def texts_differ(old: str, new: str, *,
                 ignore_whitespace: bool = False) -> bool:
    """True exactly when :func:`diff_texts` would return a FileDiff.

    That is when the two line lists differ, compared with all
    whitespace removed from each line under ``ignore_whitespace``.
    """
    if old == new:
        return False
    if not ignore_whitespace:
        return _lines(old) != _lines(new)
    # A text stripped of all whitespace is its squeezed lines joined, so
    # texts that differ stripped differ line by line too. Equal stripped
    # texts can still split differently: a moved line break, a blank
    # line added or removed.
    if "".join(old.split()) != "".join(new.split()):
        return True
    return _squeezed(old) != _squeezed(new)


def diff_texts(path: str, old: str, new: str, *, context: int = 3,
               ignore_whitespace: bool = False) -> FileDiff | None:
    """Produce a :class:`FileDiff` between two file texts.

    Returns ``None`` when the texts are equal (or, with
    ``ignore_whitespace``, equal modulo whitespace — the ``-w`` behaviour
    the paper's git invocation uses).
    """
    old_lines = _lines(old)
    new_lines = _lines(new)
    if ignore_whitespace:
        matcher = difflib.SequenceMatcher(a=_squeezed(old),
                                          b=_squeezed(new),
                                          autojunk=False)
    else:
        matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines,
                                          autojunk=False)

    context_kind, removed, added = \
        LineKind.CONTEXT, LineKind.REMOVED, LineKind.ADDED
    hunks: list[Hunk] = []
    for group in matcher.get_grouped_opcodes(context):
        first, last = group[0], group[-1]
        old_count = last[2] - first[1]
        new_count = last[4] - first[3]
        # a side with no lines reports the line before the hunk
        hunk = Hunk(first[1] + 1 if old_count else first[1], old_count,
                    first[3] + 1 if new_count else first[3], new_count)
        append = hunk.lines.append
        for tag, i1, i2, j1, j2 in group:
            if tag == "equal":
                for old_no, new_no in zip(range(i1 + 1, i2 + 1),
                                          range(j1 + 1, j2 + 1)):
                    append(HunkLine(context_kind, old_lines[old_no - 1],
                                    old_no, new_no))
                continue
            if tag != "insert":
                for old_no in range(i1 + 1, i2 + 1):
                    append(HunkLine(removed, old_lines[old_no - 1],
                                    old_no, None))
            if tag != "delete":
                for new_no in range(j1 + 1, j2 + 1):
                    append(HunkLine(added, new_lines[new_no - 1],
                                    None, new_no))
        hunks.append(hunk)
    if not hunks:
        return None
    return FileDiff(path, hunks)


def apply_file_diff(old: str, file_diff: FileDiff) -> str:
    """Apply one file's hunks to its old text, returning the new text.

    Context and removed lines are verified against the old text; any
    mismatch raises :class:`PatchApplyError` (the substrate never fuzzes).
    """
    old_lines = _lines(old)
    out: list[str] = []
    cursor = 0  # 0-based index into old_lines
    for hunk in file_diff.hunks:
        anchor = hunk.old_start - 1 if hunk.old_count > 0 else hunk.old_start
        if anchor < cursor or anchor > len(old_lines):
            raise PatchApplyError(
                f"{file_diff.path}: hunk {hunk.header} out of order")
        out.extend(old_lines[cursor:anchor])
        cursor = anchor
        for line in hunk.lines:
            if line.kind is LineKind.ADDED:
                out.append(line.text)
                continue
            if cursor >= len(old_lines):
                raise PatchApplyError(
                    f"{file_diff.path}: hunk {hunk.header} runs past EOF")
            if old_lines[cursor] != line.text:
                raise PatchApplyError(
                    f"{file_diff.path}:{cursor + 1}: expected "
                    f"{line.text!r}, found {old_lines[cursor]!r}")
            if line.kind is LineKind.CONTEXT:
                out.append(line.text)
            cursor += 1
    out.extend(old_lines[cursor:])
    text = "\n".join(out)
    if old.endswith("\n") or not old:
        text += "\n" if out else ""
    return text
