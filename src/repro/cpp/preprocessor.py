"""The preprocessor driver: ``make file.i`` for the substrate.

Given a main file, a file provider (``path -> text | None``), include
search paths, and predefined macros (architecture builtins plus the
``CONFIG_*`` set derived from the active configuration), produce the
``.i`` text with gcc-style ``# <line> "<file>"`` markers.

Behaviour that JMake depends on (paper §III-A/D):

- directive lines (``#define`` and friends) are consumed, so a mutation
  token placed inside a macro *body* appears in the output only where the
  macro is *used*;
- untaken conditional branches emit nothing, so mutations under them
  vanish from the ``.i`` file;
- tokens inside string literals pass through expansion verbatim;
- characters that are not valid C (the mutation character) flow through
  untouched — the preprocessor does not reject them, only the compiler
  front end does.

Two equivalent pipelines live here (DESIGN.md §8). The fast path walks
the content-keyed :class:`~repro.cpp.prepared.PreparedFile` (stripping,
splicing, and directive classification done once per distinct content
and line, process-wide) and consults the header replay cache for leaf
files whose recorded macro reads still hold. The slow path is the
original per-visit loop, kept as the byte-identity reference the
differential suite compares against; both produce identical ``.i``
text, include lists, missing-include probes, and diagnostics.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from repro.cpp import prepared as _prepared
from repro.cpp.evaluator import evaluate_condition
from repro.cpp.lexer import CommentStripper, TokenKind, tokenize_shared
from repro.cpp.macro import Macro, MacroSeed, MacroTable, shared_define
from repro.errors import IncludeNotFoundError, PreprocessorError
from repro.util.text import split_lines_keepends

FileProvider = Callable[[str], "str | None"]

_MAX_INCLUDE_DEPTH = 40
#: bound on distinct (target, angled, includer, include roots) keys
#: whose candidate paths are memoized
_CANDIDATE_CACHE_SIZE = 16384


@dataclass
class PreprocessResult:
    """Output of one preprocessing run."""

    main_file: str
    text: str
    included_files: list[str]
    #: include candidates probed and found absent, in probe order; the
    #: build cache records these so that *creating* a file that would
    #: shadow an include search path invalidates dependent entries.
    missing_includes: list[str] = field(default_factory=list)


@dataclass
class _CondState:
    """State of one open conditional group."""

    parent_active: bool
    taken: bool          # some branch already taken
    active: bool         # current branch emitting
    seen_else: bool = False


class Preprocessor:
    """Preprocess translation units against a virtual filesystem."""

    def __init__(self, provider: FileProvider,
                 include_paths: "Sequence[str] | None" = None,
                 predefined: "dict[str, str] | MacroSeed | None" = None,
                 fastpath: bool | None = None) -> None:
        self._provider = provider
        self._include_paths = tuple(include_paths or ())
        self._predefined = predefined if isinstance(predefined, MacroSeed) \
            else MacroSeed(predefined or {})
        #: None = follow the global switch; True/False pins this instance
        self._fastpath = fastpath
        self._fast_active = False
        #: include candidates probed and absent during the current run
        self._missing_probes: list[str] = []

    def preprocess(self, main_file: str) -> PreprocessResult:
        """Produce the .i result for one translation unit."""
        text = self._provider(main_file)
        if text is None:
            raise IncludeNotFoundError("no such file", file=main_file)
        self._fast_active = _prepared.enabled() \
            if self._fastpath is None else self._fastpath
        macros = MacroTable(self._predefined)
        out: list[str] = []
        included: list[str] = []
        self._missing_probes = []
        self._process_file(main_file, text, macros, out, included, depth=0)
        return PreprocessResult(
            main_file=main_file,
            text="".join(out),
            included_files=included,
            missing_includes=list(self._missing_probes),
        )

    # -- file processing --------------------------------------------------

    def _process_file(self, path: str, text: str, macros: MacroTable,
                      out: list[str], included: list[str],
                      depth: int) -> None:
        if depth > _MAX_INCLUDE_DEPTH:
            raise PreprocessorError("include depth limit exceeded", file=path)
        if not self._fast_active:
            self._process_file_slow(path, text, macros, out, included,
                                    depth)
            return
        pfile = _prepared.prepared_file(text)
        recorder = None
        if pfile.leaf:
            replay = _prepared.header_cache().probe(path, text, macros)
            if replay is not None:
                out.append(replay.out_text)
                replay.apply(macros)
                return
            recorder = macros.begin_recording()
        mark = len(out)
        try:
            self._process_prepared(path, pfile, macros, out, included,
                                   depth)
        except BaseException:
            if recorder is not None:
                macros.end_recording()
            raise
        if recorder is not None:
            macros.end_recording()
            _prepared.header_cache().store(path, text, recorder,
                                           "".join(out[mark:]))

    def _process_prepared(self, path: str,
                          pfile: "_prepared.PreparedFile",
                          macros: MacroTable, out: list[str],
                          included: list[str], depth: int) -> None:
        """The fast loop over a prepared (pre-stripped) file.

        Records carry spans, not positions (one record serves every
        file that has the line), so the loop counts physical lines:
        ``start`` is the first physical line of the current record.
        """
        out.append(f'# 1 "{path}"\n')
        conditions: list[_CondState] = []
        pending_marker = False
        active = True
        expand_text = macros.expand_text
        out_append = out.append
        end = 0
        for pline in pfile.lines:
            start = end + 1
            end += pline.span
            directive = pline.directive
            if directive is not None:
                pending_marker = self._handle_directive(
                    directive, pline.rest, path, start, macros,
                    conditions, out, included, depth, pending_marker)
                active = not conditions or _all_active(conditions)
                continue
            if not active:
                pending_marker = True
                continue
            if pline.blank:
                out_append("\n")
                continue
            if pending_marker:
                out_append(f'# {start} "{path}"\n')
                pending_marker = False
            expanded = expand_text(pline.text)
            if "__LINE__" in expanded or "__FILE__" in expanded:
                # Positional builtins resolve at the use site, whether
                # written directly or produced by a macro expansion.
                expanded = _resolve_positional_builtins(
                    expanded, path, start)
            out_append(expanded + "\n")
        if conditions:
            raise PreprocessorError(
                "unterminated conditional (missing #endif)",
                file=path, line=pfile.line_count)

    def _process_file_slow(self, path: str, text: str, macros: MacroTable,
                           out: list[str], included: list[str],
                           depth: int) -> None:
        """The original per-visit loop (differential reference path)."""
        out.append(f'# 1 "{path}"\n')
        lines = split_lines_keepends(text)
        stripper = CommentStripper()
        conditions: list[_CondState] = []
        index = 0
        pending_marker = False
        while index < len(lines):
            start_line = index + 1
            logical, index = self._splice(lines, index)
            stripped = stripper.strip_line(logical)
            directive = _directive_name(stripped)
            if directive is not None:
                body = stripped.strip()[1:].strip()  # drop '#'
                rest = body[len(directive):].strip()
                pending_marker = self._handle_directive(
                    directive, rest, path, start_line, macros,
                    conditions, out, included, depth, pending_marker)
                continue
            if not _all_active(conditions):
                pending_marker = True
                continue
            if not stripped.strip():
                out.append("\n")
                continue
            if pending_marker:
                out.append(f'# {start_line} "{path}"\n')
                pending_marker = False
            text_line = stripped.rstrip("\n")
            expanded = macros.expand_text(text_line)
            if "__LINE__" in expanded or "__FILE__" in expanded:
                # Positional builtins resolve at the use site, whether
                # written directly or produced by a macro expansion.
                expanded = _resolve_positional_builtins(
                    expanded, path, start_line)
            out.append(expanded + "\n")
        if conditions:
            raise PreprocessorError(
                "unterminated conditional (missing #endif)",
                file=path, line=len(lines))

    @staticmethod
    def _splice(lines: list[str], index: int) -> tuple[str, int]:
        """Join backslash-continued physical lines into one logical line."""
        return _prepared.splice_logical_line(lines, index)

    # -- directives ---------------------------------------------------------

    def _handle_directive(self, keyword: str, rest: str, path: str,
                          line: int, macros: MacroTable,
                          conditions: list[_CondState], out: list[str],
                          included: list[str], depth: int,
                          pending_marker: bool) -> bool:
        active = _all_active(conditions)

        if keyword in ("ifdef", "ifndef"):
            symbol = rest.split()[0] if rest.split() else ""
            if not symbol:
                raise PreprocessorError(f"#{keyword} without symbol",
                                        file=path, line=line)
            value = macros.is_defined(symbol)
            if keyword == "ifndef":
                value = not value
            taken = active and value
            conditions.append(_CondState(
                parent_active=active, taken=taken, active=taken))
            return True
        if keyword == "if":
            value = active and evaluate_condition(rest, macros,
                                                  file=path, line=line)
            conditions.append(_CondState(
                parent_active=active, taken=value, active=value))
            return True
        if keyword == "elif":
            if not conditions:
                raise PreprocessorError("#elif without #if",
                                        file=path, line=line)
            state = conditions[-1]
            if state.seen_else:
                raise PreprocessorError("#elif after #else",
                                        file=path, line=line)
            if state.parent_active and not state.taken:
                value = evaluate_condition(rest, macros, file=path, line=line)
                state.active = value
                state.taken = value
            else:
                state.active = False
            return True
        if keyword == "else":
            if not conditions:
                raise PreprocessorError("#else without #if",
                                        file=path, line=line)
            state = conditions[-1]
            if state.seen_else:
                raise PreprocessorError("duplicate #else",
                                        file=path, line=line)
            state.seen_else = True
            state.active = state.parent_active and not state.taken
            state.taken = state.taken or state.active
            return True
        if keyword == "endif":
            if not conditions:
                raise PreprocessorError("#endif without #if",
                                        file=path, line=line)
            conditions.pop()
            return True

        if not active:
            return True

        if keyword == "define":
            if self._fast_active:
                macro = shared_define(rest, path, line)
            else:
                macro = Macro.parse_define(rest, file=path, line=line)
            macros.define(macro)
            return True
        if keyword == "undef":
            symbol = rest.split()[0] if rest.split() else ""
            macros.undef(symbol)
            return True
        if keyword == "include":
            target, angled = _parse_include_target(rest, macros,
                                                   file=path, line=line)
            resolved = self._resolve_include(target, angled, path)
            text = self._provider(resolved) if resolved is not None else None
            if text is None:
                raise IncludeNotFoundError(
                    f"cannot find include {'<' if angled else chr(34)}"
                    f"{target}{'>' if angled else chr(34)}",
                    file=path, line=line)
            included.append(resolved)
            self._process_file(resolved, text, macros, out, included,
                               depth + 1)
            out.append(f'# {line + 1} "{path}"\n')
            return False
        if keyword == "error":
            raise PreprocessorError(f"#error {rest}", file=path, line=line)
        if keyword in ("warning", "pragma", "line", ""):
            return pending_marker
        raise PreprocessorError(f"unknown directive #{keyword}",
                                file=path, line=line)

    def _resolve_include(self, target: str, angled: bool,
                         including_file: str) -> str | None:
        # the reference pipeline recomputes the candidates every time
        candidates = _include_candidates if self._fast_active \
            else _include_candidates.__wrapped__
        for candidate in candidates(target, angled, including_file,
                                    self._include_paths):
            if self._provider(candidate) is not None:
                return candidate
            self._missing_probes.append(candidate)
        return None


@lru_cache(maxsize=_CANDIDATE_CACHE_SIZE)
def _include_candidates(target: str, angled: bool, including_file: str,
                        include_paths: tuple[str, ...]) -> tuple[str, ...]:
    """The paths an include probes, in order: the including file's
    directory for a quoted include (the target as written when the
    includer sits at the tree root), then each include root."""
    candidates: list[str] = []
    if not angled:
        base = posixpath.dirname(including_file)
        candidates.append(posixpath.normpath(posixpath.join(base, target))
                          if base else target)
    for search in include_paths:
        candidates.append(posixpath.normpath(
            posixpath.join(search, target)))
    return tuple(candidates)


def _resolve_positional_builtins(line: str, path: str,
                                 lineno: int) -> str:
    """Substitute ``__LINE__``/``__FILE__`` as identifier tokens only
    (never inside string or character literals)."""
    if "__LINE__" not in line and "__FILE__" not in line:
        return line
    parts: list[str] = []
    for token in tokenize_shared(line):
        if token.kind is TokenKind.IDENT and token.text == "__LINE__":
            parts.append(str(lineno))
        elif token.kind is TokenKind.IDENT and token.text == "__FILE__":
            parts.append(f'"{path}"')
        else:
            parts.append(token.text)
    return "".join(parts)


def _all_active(conditions: list[_CondState]) -> bool:
    return all(state.active for state in conditions)


def _directive_name(stripped_line: str) -> str | None:
    """The directive keyword, or None for ordinary text lines."""
    return _prepared.directive_name(stripped_line)


def _parse_include_target(rest: str, macros: MacroTable, *,
                          file: str, line: int) -> tuple[str, bool]:
    text = rest.strip()
    if not (text.startswith('"') or text.startswith("<")):
        # Computed include: expand macros first (the kernel uses these
        # for asm-generic redirects).
        text = macros.expand_text(text).strip()
    if text.startswith('"'):
        closing = text.find('"', 1)
        if closing == -1:
            raise PreprocessorError("unterminated include filename",
                                    file=file, line=line)
        return text[1:closing], False
    if text.startswith("<"):
        closing = text.find(">", 1)
        if closing == -1:
            raise PreprocessorError("unterminated include filename",
                                    file=file, line=line)
        return text[1:closing], True
    raise PreprocessorError(f"bad include target {rest!r}",
                            file=file, line=line)
