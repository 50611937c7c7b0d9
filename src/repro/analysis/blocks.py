"""Conditional-block extraction with presence conditions.

Walks a source file's preprocessor structure and produces one
:class:`ConditionalBlock` per branch, carrying a *presence condition*:
what must hold, in terms of ``CONFIG_*`` symbols, for the branch's lines
to reach the compiler. Conditions nest (a block inside another inherits
its parent's condition) and ``#else`` branches negate their siblings.

Conditions outside the CONFIG vocabulary are kept honest rather than
guessed: ``#ifdef MODULE`` and arch builtins become *opaque atoms* that
the dead-block analyzer reports as environment-dependent instead of
mis-solving them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from repro.kconfig.ast import (
    AndExpr,
    ConstExpr,
    Expr,
    NotExpr,
    SymbolRef,
    Tristate,
)


class BlockCondition(Enum):
    """How solvable a block's own condition is."""

    CONFIG = "config"        # pure CONFIG_* expression
    CONSTANT = "constant"    # #if 0 / #if 1
    ENVIRONMENT = "environment"  # MODULE, __arch__, other non-config
    OPAQUE = "opaque"        # an #if expression we do not model


@dataclass
class ConditionalBlock:
    """One branch of a conditional group, with its presence condition."""
    path: str
    start: int                  # line of the opening directive
    end: int                    # line of the matching #endif (or #else)
    directive: str              # ifdef | ifndef | if | elif | else
    condition_kind: BlockCondition
    #: presence condition over CONFIG symbols (names without prefix);
    #: None when any enclosing condition is non-CONFIG
    presence: Expr | None
    #: opaque atoms involved (e.g. "MODULE", "__arm__")
    atoms: list[str] = field(default_factory=list)
    body_lines: list[int] = field(default_factory=list)


_IFDEF_RE = re.compile(r"^#\s*(ifdef|ifndef)\s+(\w+)\s*$")
_IF_RE = re.compile(r"^#\s*(if|elif)\s+(.+?)\s*$")
_DEFINED_RE = re.compile(r"defined\s*\(\s*CONFIG_(\w+)\s*\)")
_BARE_CONFIG_RE = re.compile(r"\bCONFIG_(\w+)\b")


def _translate_symbol(name: str) -> tuple[Expr | None, BlockCondition,
                                          list[str]]:
    if name.startswith("CONFIG_"):
        return SymbolRef(name[len("CONFIG_"):]), BlockCondition.CONFIG, []
    return None, BlockCondition.ENVIRONMENT, [name]


def _translate_if(expression: str) -> tuple[Expr | None, BlockCondition,
                                            list[str]]:
    text = expression.strip()
    if text == "0":
        return ConstExpr(Tristate.N), BlockCondition.CONSTANT, []
    if text == "1":
        return ConstExpr(Tristate.Y), BlockCondition.CONSTANT, []
    # Single defined(CONFIG_X) / bare CONFIG_X forms, possibly negated.
    negated = False
    inner = text
    while inner.startswith("!"):
        negated = not negated
        inner = inner[1:].strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1].strip()
    match = _DEFINED_RE.fullmatch(inner) or \
        re.fullmatch(r"CONFIG_(\w+)", inner)
    if match:
        expr: Expr = SymbolRef(match.group(1))
        if negated:
            expr = NotExpr(expr)
        return expr, BlockCondition.CONFIG, []
    # Conjunctions of defined(CONFIG_*) atoms.
    parts = [part.strip() for part in text.split("&&")]
    if len(parts) > 1:
        exprs = []
        for part in parts:
            sub, kind, _ = _translate_if(part)
            if kind is not BlockCondition.CONFIG or sub is None:
                break
            exprs.append(sub)
        else:
            combined = exprs[0]
            for sub in exprs[1:]:
                combined = AndExpr(combined, sub)
            return combined, BlockCondition.CONFIG, []
    atoms = _BARE_CONFIG_RE.findall(text)
    return None, BlockCondition.OPAQUE, atoms


def extract_blocks(path: str, text: str) -> list[ConditionalBlock]:
    """All conditional branches of a file, with presence conditions."""
    blocks: list[ConditionalBlock] = []
    # stack entries: (open_block, prior_branch_negations, parent_presence)
    stack: list[dict] = []

    def combined_presence(own: Expr | None,
                          frame: dict) -> Expr | None:
        """AND of parent presence, sibling negations, and own."""
        parts: list[Expr] = []
        parent = frame["parent_presence"]
        if parent is not None:
            parts.append(parent)
        elif frame["parent_opaque"]:
            return None
        for sibling in frame["negations"]:
            if sibling is None:
                return None
            parts.append(NotExpr(sibling))
        if own is None:
            return None
        parts.append(own)
        combined = parts[0]
        for part in parts[1:]:
            combined = AndExpr(combined, part)
        return combined

    def parent_state() -> tuple[Expr | None, bool]:
        if not stack:
            return None, False
        current = stack[-1]["current"]
        if current is None:
            return None, True
        return current.presence, current.presence is None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        match = _IFDEF_RE.match(stripped)
        if match:
            directive, name = match.groups()
            own, kind, atoms = _translate_symbol(name)
            if own is not None and directive == "ifndef":
                own = NotExpr(own)
            parent_presence, parent_opaque = parent_state()
            frame = {"negations": [], "parent_presence": parent_presence,
                     "parent_opaque": parent_opaque, "own": own,
                     "current": None}
            block = ConditionalBlock(
                path=path, start=lineno, end=lineno, directive=directive,
                condition_kind=kind,
                presence=combined_presence(own, frame),
                atoms=atoms)
            blocks.append(block)
            frame["current"] = block
            stack.append(frame)
            continue
        match = _IF_RE.match(stripped)
        if match:
            directive, expression = match.groups()
            own, kind, atoms = _translate_if(expression)
            if directive == "if":
                parent_presence, parent_opaque = parent_state()
                frame = {"negations": [], "parent_presence": parent_presence,
                         "parent_opaque": parent_opaque, "own": own,
                         "current": None}
                block = ConditionalBlock(
                    path=path, start=lineno, end=lineno,
                    directive=directive, condition_kind=kind,
                    presence=combined_presence(own, frame), atoms=atoms)
                blocks.append(block)
                frame["current"] = block
                stack.append(frame)
            else:  # elif
                if not stack:
                    continue
                frame = stack[-1]
                if frame["current"] is not None:
                    frame["current"].end = lineno
                frame["negations"].append(frame["own"])
                frame["own"] = own
                block = ConditionalBlock(
                    path=path, start=lineno, end=lineno,
                    directive="elif", condition_kind=kind,
                    presence=combined_presence(own, frame), atoms=atoms)
                blocks.append(block)
                frame["current"] = block
            continue
        if stripped.startswith("#else"):
            if not stack:
                continue
            frame = stack[-1]
            if frame["current"] is not None:
                frame["current"].end = lineno
            frame["negations"].append(frame["own"])
            frame["own"] = ConstExpr(Tristate.Y)
            kind = BlockCondition.CONFIG \
                if all(n is not None for n in frame["negations"]) \
                else BlockCondition.ENVIRONMENT
            block = ConditionalBlock(
                path=path, start=lineno, end=lineno, directive="else",
                condition_kind=kind,
                presence=combined_presence(ConstExpr(Tristate.Y), frame),
                atoms=[])
            blocks.append(block)
            frame["current"] = block
            continue
        if stripped.startswith("#endif"):
            if stack:
                frame = stack.pop()
                if frame["current"] is not None:
                    frame["current"].end = lineno
            continue
        if stack and stripped:
            current = stack[-1]["current"]
            if current is not None:
                current.body_lines.append(lineno)
    return blocks
