"""Lightweight syntax validation of a lexed translation unit.

This stands in for the rest of the gcc front end. It checks the
properties that matter to the substrate:

- every ``(``/``[``/``{`` closes in order (kernel code that survives the
  preprocessor always balances; a truncated or corrupted unit does not);
- the unit is not empty (an empty ``.o`` would hide a preprocessing bug);
- top-level function definitions are recognised well enough to extract a
  symbol table for the fake object file.

It deliberately does *not* type-check: JMake never depends on type
errors, only on lexical validity and on whether lines reach the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.lexer import LexResult
from repro.cpp.lexer import Token, TokenKind

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_BRACKETS = frozenset(_OPENERS) | frozenset(_CLOSERS)

# Token kinds bound once: an Enum member lookup costs more than the
# per-token work of the loops below.
_IDENT = TokenKind.IDENT
_OTHER = TokenKind.OTHER

#: Keywords that can never be function names.
_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned",
    "void", "volatile", "while",
}


@dataclass(frozen=True)
class SyntaxIssue:
    """One front-end complaint with its source position."""
    message: str
    file: str
    line: int


@dataclass
class ParseOutcome:
    """Validation result: issues found plus extracted symbols."""
    issues: list[SyntaxIssue] = field(default_factory=list)
    symbols: list[str] = field(default_factory=list)
    #: function names called but not defined in this unit
    external_calls: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when validation produced no issues."""
        return not self.issues


def validate_unit(lexed: LexResult) -> ParseOutcome:
    """Balance-check the token stream and extract defined symbols.

    Walks ``lexed.flat`` directly; a token's ``(file, line)`` is resolved
    only for an issue that is reported.
    """
    outcome = ParseOutcome()
    flat = lexed.flat
    meaningful = [token for token in flat if token.kind is not _OTHER]
    if not meaningful:
        outcome.issues.append(SyntaxIssue(
            "empty translation unit", file="<unit>", line=0))
        return outcome

    # Brackets are always PUNCT tokens, so walking every token sees the
    # same bracket sequence as walking the meaningful ones.
    stack: list[int] = []  # flat indices of the open brackets
    for index, token in enumerate(flat):
        text = token.text
        if text not in _BRACKETS:
            continue
        if text in _OPENERS:
            stack.append(index)
            continue
        if not stack or flat[stack[-1]].text != _CLOSERS[text]:
            file, line = lexed.position(index)
            outcome.issues.append(SyntaxIssue(
                f"unbalanced {text!r}", file=file, line=line))
            return outcome
        stack.pop()
    for unclosed in stack:
        file, line = lexed.position(unclosed)
        outcome.issues.append(SyntaxIssue(
            f"unclosed {flat[unclosed].text!r}", file=file, line=line))
    if outcome.issues:
        return outcome

    outcome.symbols = _extract_symbols(meaningful)
    outcome.external_calls = _extract_external_calls(
        meaningful, set(outcome.symbols))
    return outcome


def _extract_external_calls(tokens: list[Token],
                            defined: set[str]) -> list[str]:
    """Call sites ``ident(...)`` inside function bodies whose target is
    not defined in this unit — a linker's undefined references."""
    calls: list[str] = []
    seen: set[str] = set()
    depth = 0
    for index, token in enumerate(tokens):
        text = token.text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif (depth > 0 and token.kind is _IDENT
                and text not in _KEYWORDS and text not in defined
                and index + 1 < len(tokens)
                and tokens[index + 1].text == "("
                and text not in seen):
            seen.add(text)
            calls.append(text)
    return calls


def _extract_symbols(tokens: list[Token]) -> list[str]:
    """Function definitions: ``ident ( ... ) {`` at brace depth 0."""
    symbols: list[str] = []
    depth = 0
    i = 0
    while i < len(tokens):
        text = tokens[i].text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif (depth == 0 and tokens[i].kind is _IDENT
                and text not in _KEYWORDS
                and i + 1 < len(tokens) and tokens[i + 1].text == "("):
            close = _matching_paren(tokens, i + 1)
            if close is not None and close + 1 < len(tokens) \
                    and tokens[close + 1].text == "{":
                symbols.append(text)
                i = close
        i += 1
    return symbols


def _matching_paren(tokens: list[Token], open_index: int) -> int | None:
    depth = 0
    for index in range(open_index, len(tokens)):
        text = tokens[index].text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return index
    return None
