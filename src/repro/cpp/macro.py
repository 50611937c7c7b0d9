"""Macro definition, storage, and expansion.

Expansion follows the ISO C model closely enough for kernel-style code:

- object-like and function-like macros, including zero-argument ones;
- argument substitution with prior expansion of arguments (except as
  operands of ``#`` and ``##``);
- ``#`` stringification and ``##`` token pasting;
- recursion is cut with the standard "blue paint": a macro name is not
  re-expanded while its own expansion is in progress;
- text inside string/char literals is never expanded — this is what lets
  JMake's mutation payload survive macro rewriting verbatim (§III-A);
- ``__VA_ARGS__`` variadic macros (the kernel uses them in logging
  helpers).

Perf notes (DESIGN.md §8): :meth:`MacroTable.expand_text` screens the
line with a raw identifier scan first and returns it unchanged when no
identifier names a live macro — the overwhelmingly common case in
kernel-style code — skipping tokenize→expand→untokenize entirely. The
screen is conservative: any identifier-shaped substring that matches a
macro name sends the line down the full expansion path, so it can never
change output. The table also supports *read recording*
(:meth:`MacroTable.begin_recording`): every name whose presence or
definition influenced processing is captured, which is what makes the
header-level replay cache in :mod:`repro.cpp.prepared` sound.

A line that does name a live macro goes through the *line expansion
memo*: each distinct line text keeps a few ``(reads, expansion)``
variants, where ``reads`` is every ``(name, definition)`` lookup the
expansion made, in order. A variant is reused only while each recorded
name still resolves to the identical :class:`Macro` object, and its
reads are replayed into an active recorder, so the replay cache sees
the same read sets as an uncached expansion. Identity holds across
translation units because the predefined macros come from a shared
:class:`MacroSeed` and every ``#define`` line is parsed once
(:func:`shared_define`).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from repro.cpp.lexer import (
    Token,
    TokenKind,
    tokenize,
    tokenize_shared,
    untokenize,
)
from repro.errors import MacroError

#: maximal identifier-shaped runs; a superset of the IDENT tokens the
#: tokenizer would produce, which is what makes the screen conservative
_IDENT_SCAN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: flipped by repro.cpp.prepared.configure for differential testing
_SCREEN_ENABLED = True

#: bound on distinct lines whose identifier scan is memoized
_IDENT_SCAN_CACHE_SIZE = 16384
#: bound on distinct ``#define`` lines whose Macro is shared
_DEFINE_CACHE_SIZE = 16384
#: bounds on the line expansion memo: distinct line texts, and
#: variants (one per read valuation) kept per text
_EXPANSION_CACHE_SIZE = 4096
_EXPANSION_MAX_VARIANTS = 16


def set_expand_screen_enabled(enabled: bool) -> None:
    """Enable/disable the expand_text identifier screen."""
    global _SCREEN_ENABLED
    _SCREEN_ENABLED = bool(enabled)


@lru_cache(maxsize=16384)
def _predefined_macro(name: str, body: str) -> "Macro":
    """Shared object-like Macro for a predefined (name, body) pair.

    The seeds of different environments share the Macro of every pair
    they have in common, so a line expansion recorded under one
    configuration is reused under another that defines its names the
    same way.
    """
    return Macro(name=name, body=body)


class _ReadRecorder:
    """Captures one file's macro reads and writes for replay caching.

    ``reads`` maps each externally-read name to the definition observed
    at first read (None = absent); names the file itself (re)defined
    first are internal and never recorded. ``delta`` is the ordered
    define/undef log to replay.
    """

    __slots__ = ("reads", "delta", "written")

    def __init__(self) -> None:
        self.reads: dict[str, "Macro | None"] = {}
        self.delta: list[tuple[str, object]] = []
        self.written: set[str] = set()

    def note(self, name: str, macro: "Macro | None") -> None:
        """Record one read (first observation wins; writes shadow)."""
        if name not in self.written and name not in self.reads:
            self.reads[name] = macro


class _ReadLog:
    """Every macro lookup of one line expansion, first observation per
    name in order; each lookup is also forwarded to the enclosing
    recorder, exactly as an unlogged expansion would note it."""

    __slots__ = ("reads", "outer")

    def __init__(self, outer: "_ReadRecorder | None") -> None:
        self.reads: dict[str, "Macro | None"] = {}
        self.outer = outer

    def note(self, name: str, macro: "Macro | None") -> None:
        """Log one lookup and pass it on."""
        if name not in self.reads:
            self.reads[name] = macro
        if self.outer is not None:
            self.outer.note(name, macro)


@dataclass(frozen=True)
class Macro:
    """One ``#define``.

    ``params`` is ``None`` for object-like macros; an empty tuple means a
    function-like macro with zero parameters, which is a distinct thing
    (``#define F() x`` vs ``#define F x``).
    """

    name: str
    body: str
    params: tuple[str, ...] | None = None
    variadic: bool = False
    file: str | None = None
    line: int | None = None

    @property
    def is_function_like(self) -> bool:
        """True when the macro takes parameters."""
        return self.params is not None

    @classmethod
    def parse_define(cls, text: str, *, file: str | None = None,
                     line: int | None = None) -> "Macro":
        """Parse the text after ``#define`` on a spliced logical line."""
        stripped = text.strip()
        if not stripped:
            raise MacroError("empty #define", file=file, line=line)
        tokens = tokenize_shared(stripped)
        if not tokens or tokens[0].kind is not TokenKind.IDENT:
            raise MacroError(f"macro name expected in {stripped!r}",
                             file=file, line=line)
        name = tokens[0].text
        rest = tokens[1:]
        # Function-like only when "(" immediately follows the name.
        if rest and rest[0].text == "(" and not rest[0].is_ws:
            params, body_tokens = cls._parse_params(rest[1:], name,
                                                    file=file, line=line)
            body = untokenize(body_tokens).strip()
            variadic = params and params[-1] == "..."
            if variadic:
                params = params[:-1]
            return cls(name=name, body=body, params=tuple(params),
                       variadic=bool(variadic), file=file, line=line)
        body = untokenize(rest).strip()
        return cls(name=name, body=body, params=None, file=file, line=line)

    @staticmethod
    def _parse_params(tokens, name: str, *,
                      file: str | None, line: int | None):
        params: list[str] = []
        i = 0
        expecting_name = True
        while i < len(tokens):
            token = tokens[i]
            if token.is_ws:
                i += 1
                continue
            if token.text == ")":
                return params, tokens[i + 1:]
            if expecting_name:
                if token.kind is TokenKind.IDENT or token.text == "...":
                    params.append(token.text)
                    expecting_name = False
                else:
                    raise MacroError(
                        f"bad parameter list for macro {name}",
                        file=file, line=line)
            else:
                if token.text != ",":
                    raise MacroError(
                        f"bad parameter list for macro {name}",
                        file=file, line=line)
                expecting_name = True
            i += 1
        raise MacroError(f"unterminated parameter list for macro {name}",
                         file=file, line=line)


@lru_cache(maxsize=_DEFINE_CACHE_SIZE)
def shared_define(text: str, file: str, line: int) -> Macro:
    """:meth:`Macro.parse_define`, memoized by ``(text, file, line)``.

    The same ``#define`` line yields the same Macro object in every
    translation unit, which is what lets the line expansion memo match
    definitions by identity. A parse error is raised again on every
    call (errors are never memoized).
    """
    return Macro.parse_define(text, file=file, line=line)


class MacroSeed:
    """An immutable predefined-macro set, built once per environment.

    Holds the shared :class:`Macro` object of each predefined
    ``(name, body)`` pair. Every :class:`MacroTable` built from a seed
    starts from its own copy, because ``#define`` and ``#undef`` mutate
    the table.
    """

    __slots__ = ("_macros",)

    def __init__(self, predefined: dict[str, str]) -> None:
        self._macros = {name: _predefined_macro(name, body)
                        for name, body in predefined.items()}

    def table(self) -> dict[str, Macro]:
        """A fresh name -> Macro dict the caller may mutate."""
        return self._macros.copy()


class MacroTable:
    """The set of live macro definitions during preprocessing."""

    def __init__(self,
                 predefined: "dict[str, str] | MacroSeed | None" = None
                 ) -> None:
        if not isinstance(predefined, MacroSeed):
            predefined = MacroSeed(predefined or {})
        self._macros: dict[str, Macro] = predefined.table()
        self._recorder: _ReadRecorder | _ReadLog | None = None

    # -- read recording (header replay support) --------------------------

    def begin_recording(self) -> _ReadRecorder:
        """Start capturing reads/writes; returns the live recorder."""
        recorder = _ReadRecorder()
        self._recorder = recorder
        return recorder

    def end_recording(self) -> None:
        """Stop capturing (the recorder keeps its collected state)."""
        self._recorder = None

    def definition(self, name: str) -> Macro | None:
        """The definition, or None — never recorded as a read."""
        return self._macros.get(name)

    def define(self, macro: Macro) -> None:
        """Install or replace a definition."""
        self._macros[macro.name] = macro
        recorder = self._recorder
        if recorder is not None:
            recorder.delta.append(("define", macro))
            recorder.written.add(macro.name)

    def undef(self, name: str) -> None:
        """Remove a definition (no-op when absent)."""
        self._macros.pop(name, None)
        recorder = self._recorder
        if recorder is not None:
            recorder.delta.append(("undef", name))
            recorder.written.add(name)

    def is_defined(self, name: str) -> bool:
        """True when the name has a live definition."""
        recorder = self._recorder
        if recorder is not None:
            recorder.note(name, self._macros.get(name))
        return name in self._macros

    def get(self, name: str) -> Macro | None:
        """The definition, or None."""
        macro = self._macros.get(name)
        recorder = self._recorder
        if recorder is not None:
            recorder.note(name, macro)
        return macro

    def names(self) -> list[str]:
        """Sorted names of all live definitions."""
        return sorted(self._macros)

    def snapshot(self) -> "MacroTable":
        """An independent copy of the current table."""
        clone = MacroTable()
        clone._macros = dict(self._macros)
        return clone

    # -- expansion -------------------------------------------------------

    def expand_text(self, text: str) -> str:
        """Fully macro-expand one logical line of non-directive text."""
        if not _SCREEN_ENABLED:
            return untokenize(self._expand_tokens(tokenize_shared(text),
                                                  frozenset()))
        if not self._mentions_macro(text):
            # No identifier in the line names a live macro: expansion is
            # the identity (tokenize/untokenize round-trips exactly).
            return text
        variants = _EXPANSIONS.get(text)
        if variants is not None:
            expansion = self._reuse(variants)
            if expansion is not None:
                _EXPANSIONS.move_to_end(text)
                return expansion
        log = _ReadLog(self._recorder)
        self._recorder = log
        try:
            expansion = untokenize(self._expand_tokens(
                tokenize_shared(text), frozenset()))
        finally:
            self._recorder = log.outer
        _remember_expansion(text, tuple(log.reads.items()), expansion)
        return expansion

    def _reuse(self, variants) -> str | None:
        """The expansion of the first variant whose reads all resolve to
        the identical definitions now, replaying its reads into the
        active recorder; None when no variant holds."""
        macros = self._macros
        for reads, expansion in variants:
            for name, macro in reads:
                if macros.get(name) is not macro:
                    break
            else:
                recorder = self._recorder
                if recorder is not None:
                    for name, macro in reads:
                        recorder.note(name, macro)
                return expansion
        return None

    def _mentions_macro(self, text: str) -> bool:
        """True when any identifier-shaped run names a live macro.

        The scan over raw text finds a superset of the IDENT tokens the
        tokenizer would produce (e.g. it also matches inside string
        literals), so a False is always safe while a True merely takes
        the full expansion path.
        """
        names = _line_identifiers(text)
        macros = self._macros
        recorder = self._recorder
        if recorder is None:
            return not macros.keys().isdisjoint(names)
        for name in names:
            macro = macros.get(name)
            recorder.note(name, macro)
            if macro is not None:
                return True
        return False

    def _expand_tokens(self, tokens,
                       hidden: frozenset[str]) -> list[Token]:
        out: list[Token] = []
        macros = self._macros
        recorder = self._recorder
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.kind is not TokenKind.IDENT:
                out.append(token)
                i += 1
                continue
            macro = macros.get(token.text)
            if recorder is not None:
                recorder.note(token.text, macro)
            if macro is None or token.text in hidden:
                out.append(token)
                i += 1
                continue
            if not macro.is_function_like:
                expansion = self._expand_tokens(
                    tokenize_shared(macro.body), hidden | {macro.name})
                out.extend(expansion)
                i += 1
                continue
            # Function-like: require "(" (skipping whitespace); otherwise
            # the name is ordinary text.
            j = i + 1
            while j < len(tokens) and tokens[j].is_ws:
                j += 1
            if j >= len(tokens) or tokens[j].text != "(":
                out.append(token)
                i += 1
                continue
            args, next_index = self._collect_args(tokens, j, macro)
            replaced = self._substitute(macro, args, hidden)
            out.extend(self._expand_tokens(replaced, hidden | {macro.name}))
            i = next_index
        return out

    def _collect_args(self, tokens, open_index: int,
                      macro: Macro) -> tuple[list[list[Token]], int]:
        """Collect comma-separated argument token lists at paren depth 1."""
        args: list[list[Token]] = [[]]
        depth = 0
        i = open_index
        while i < len(tokens):
            token = tokens[i]
            if token.text == "(":
                depth += 1
                if depth > 1:
                    args[-1].append(token)
            elif token.text == ")":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
                args[-1].append(token)
            elif token.text == "," and depth == 1:
                if macro.variadic and len(args) > len(macro.params):
                    args[-1].append(token)  # extra commas go to __VA_ARGS__
                else:
                    args.append([])
            else:
                args[-1].append(token)
            i += 1
        else:
            raise MacroError(
                f"unterminated invocation of macro {macro.name}",
                file=macro.file, line=macro.line)
        # Trim leading/trailing whitespace of each argument.
        trimmed = [_trim_ws(arg) for arg in args]
        if macro.params is not None:
            expected = len(macro.params) + (1 if macro.variadic else 0)
            if len(trimmed) == 1 and not trimmed[0] and expected == 0:
                trimmed = []
            if not macro.variadic and len(trimmed) != len(macro.params):
                raise MacroError(
                    f"macro {macro.name} expects {len(macro.params)} "
                    f"arguments, got {len(trimmed)}",
                    file=macro.file, line=macro.line)
        return trimmed, i

    def _substitute(self, macro: Macro, args: list[list[Token]],
                    hidden: frozenset[str]) -> list[Token]:
        assert macro.params is not None
        by_name: dict[str, list[Token]] = {}
        for index, param in enumerate(macro.params):
            by_name[param] = args[index] if index < len(args) else []
        if macro.variadic:
            extra = args[len(macro.params):]
            va: list[Token] = []
            for index, arg in enumerate(extra):
                if index:
                    va.append(Token(TokenKind.PUNCT, ","))
                    va.append(Token(TokenKind.WS, " "))
                va.extend(arg)
            by_name["__VA_ARGS__"] = va

        body = tokenize_shared(macro.body)
        out: list[Token] = []
        i = 0
        while i < len(body):
            token = body[i]
            # Stringification: # param
            if token.text == "#" and token.kind is TokenKind.PUNCT:
                j = i + 1
                while j < len(body) and body[j].is_ws:
                    j += 1
                if (j < len(body) and body[j].kind is TokenKind.IDENT
                        and body[j].text in by_name):
                    out.append(_stringify(by_name[body[j].text]))
                    i = j + 1
                    continue
            # Token pasting: A ## B
            if token.text == "##":
                while out and out[-1].is_ws:
                    out.pop()
                j = i + 1
                while j < len(body) and body[j].is_ws:
                    j += 1
                if not out or j >= len(body):
                    raise MacroError(
                        f"'##' at boundary of macro {macro.name} body",
                        file=macro.file, line=macro.line)
                left = out.pop()
                right = body[j]
                right_tokens = (by_name[right.text]
                                if right.kind is TokenKind.IDENT
                                and right.text in by_name
                                else [right])
                left_tokens = (by_name[left.text]
                               if left.kind is TokenKind.IDENT
                               and left.text in by_name
                               else [left])
                out.extend(_paste(left_tokens, right_tokens))
                i = j + 1
                continue
            if token.kind is TokenKind.IDENT and token.text in by_name:
                # Arguments are macro-expanded before substitution unless
                # adjacent to # or ## (handled above).
                next_meaningful = _next_non_ws(body, i + 1)
                if next_meaningful is not None and next_meaningful.text == "##":
                    out.extend(by_name[token.text])
                else:
                    out.extend(self._expand_tokens(
                        by_name[token.text], hidden))
                i += 1
                continue
            out.append(token)
            i += 1
        return out


@lru_cache(maxsize=_IDENT_SCAN_CACHE_SIZE)
def _line_identifiers(text: str) -> tuple[str, ...]:
    """The distinct identifier-shaped runs of a line, first-seen order."""
    return tuple(dict.fromkeys(_IDENT_SCAN_RE.findall(text)))


#: line text -> [(reads, expansion), ...] most recent first; LRU by text
_EXPANSIONS: "OrderedDict[str, list[tuple[tuple, str]]]" = OrderedDict()


def _remember_expansion(text: str, reads: tuple, expansion: str) -> None:
    variants = _EXPANSIONS.get(text)
    if variants is None:
        variants = _EXPANSIONS[text] = []
    variants.insert(0, (reads, expansion))
    del variants[_EXPANSION_MAX_VARIANTS:]
    _EXPANSIONS.move_to_end(text)
    while len(_EXPANSIONS) > _EXPANSION_CACHE_SIZE:
        _EXPANSIONS.popitem(last=False)


def clear_expansion_caches() -> None:
    """Drop the line expansion memo, the identifier-scan memo and the
    shared ``#define`` objects."""
    _EXPANSIONS.clear()
    _line_identifiers.cache_clear()
    shared_define.cache_clear()


def _trim_ws(tokens):
    start = 0
    end = len(tokens)
    while start < end and tokens[start].is_ws:
        start += 1
    while end > start and tokens[end - 1].is_ws:
        end -= 1
    return tokens[start:end]


def _next_non_ws(tokens, index: int) -> Token | None:
    while index < len(tokens):
        if not tokens[index].is_ws:
            return tokens[index]
        index += 1
    return None


def _stringify(tokens: list[Token]) -> Token:
    inner = untokenize(_trim_ws(tokens))
    escaped = inner.replace("\\", "\\\\").replace('"', '\\"')
    return Token(TokenKind.STRING, f'"{escaped}"')


def _paste(left: list[Token], right: list[Token]) -> list[Token]:
    if not left:
        return list(right)
    if not right:
        return list(left)
    glue = left[-1].text + right[0].text
    pasted = tokenize(glue)
    return list(left[:-1]) + pasted + list(right[1:])
