"""C token lexing over preprocessed text, with position tracking.

The input is ``.i`` text carrying gcc-style ``# <line> "<file>"``
markers. The lexer walks each line, resolves the original source position
from the markers, and classifies tokens with the shared preprocessing
lexer. Characters that form no valid C token (JMake's mutation character
among them) produce *stray-character* records the compiler turns into
hard errors — gcc's ``error: stray '`' in program``.

``.i`` units repeat the same lines massively (every unit of a tree
carries the same header text), so each distinct line is lexed once: a
bounded memo maps the line to its non-whitespace tokens. A unit keeps
one flat token list plus one ``(first token, file, line)`` span per
lexed line; positions are resolved only where a caller needs them (a
stray character, a reported syntax issue, the :attr:`LexResult.tokens`
view), never per token.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from repro.cpp.lexer import Token, TokenKind, tokenize_shared

_LINE_MARKER_RE = re.compile(r'^#\s+(\d+)\s+"([^"]*)"')

#: size bound of the per-line token memo
_LINE_MEMO_SIZE = 16384

_span_start = itemgetter(0)


@dataclass(frozen=True)
class LexedToken:
    """A token with its resolved original source position."""

    token: Token
    file: str
    line: int


@dataclass
class LexResult:
    """All tokens of a unit plus the stray-character records.

    ``flat`` holds every non-whitespace token in order; ``spans`` holds
    ``(index of the line's first token in flat, file, line)`` for each
    line that produced tokens.
    """
    flat: list[Token] = field(default_factory=list)
    spans: list[tuple[int, str, int]] = field(default_factory=list)
    stray_characters: list[LexedToken] = field(default_factory=list)

    @property
    def tokens(self) -> list[LexedToken]:
        """Every token with its position (built on demand)."""
        flat = self.flat
        ends = [start for start, _, _ in self.spans[1:]] + [len(flat)]
        return [LexedToken(token=token, file=file, line=line)
                for (start, file, line), end in zip(self.spans, ends)
                for token in flat[start:end]]

    def position(self, index: int) -> tuple[str, int]:
        """The ``(file, line)`` of the token at ``flat[index]``."""
        _, file, line = self.spans[
            bisect_right(self.spans, index, key=_span_start) - 1]
        return file, line

    def identifiers(self) -> list[str]:
        """The texts of all identifier tokens, in order."""
        ident = TokenKind.IDENT
        return [token.text for token in self.flat if token.kind is ident]


@lru_cache(maxsize=_LINE_MEMO_SIZE)
def _lex_line(raw: str) -> tuple[tuple[Token, ...], tuple[Token, ...]]:
    """(non-whitespace tokens, stray-character tokens) of one line."""
    tokens = tuple(token for token in tokenize_shared(raw)
                   if not token.is_ws)
    strays = tuple(token for token in tokens
                   if token.kind is TokenKind.OTHER
                   and not token.text.isspace())
    return tokens, strays


def lex_translation_unit(i_text: str, *,
                         main_file: str = "<unit>") -> LexResult:
    """Lex preprocessed text, honouring line markers."""
    result = LexResult()
    flat = result.flat
    spans = result.spans
    current_file = main_file
    current_line = 1
    for raw in i_text.split("\n"):
        if not raw:
            current_line += 1
            continue
        if raw[0] == "#":
            marker = _LINE_MARKER_RE.match(raw)
            if marker:
                current_line = int(marker.group(1))
                current_file = marker.group(2)
                continue
        tokens, strays = _lex_line(raw)
        if tokens:
            spans.append((len(flat), current_file, current_line))
            flat.extend(tokens)
            for token in strays:
                result.stray_characters.append(LexedToken(
                    token=token, file=current_file, line=current_line))
        current_line += 1
    return result
