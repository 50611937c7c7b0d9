"""Kconfig AST: symbols, tristate values, and dependency expressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Mapping


class Tristate(IntEnum):
    """The three Kconfig truth values, ordered n < m < y."""

    N = 0
    M = 1
    Y = 2

    @property
    def letter(self) -> str:
        """The .config letter: n, m, or y."""
        return {Tristate.N: "n", Tristate.M: "m", Tristate.Y: "y"}[self]

    @classmethod
    def from_letter(cls, letter: str) -> "Tristate":
        """Parse a .config letter."""
        mapping = {"n": cls.N, "m": cls.M, "y": cls.Y}
        try:
            return mapping[letter.lower()]
        except KeyError:
            raise ValueError(f"not a tristate letter: {letter!r}") from None


class SymbolType(Enum):
    """Kconfig symbol types."""
    BOOL = "bool"
    TRISTATE = "tristate"
    INT = "int"
    STRING = "string"


Assignment = Mapping[str, Tristate]


class Expr:
    """A dependency expression over config symbols.

    Kconfig expressions evaluate to tristates: ``A && B`` is min,
    ``A || B`` is max, ``!A`` is ``y - A`` (2 - value). Undefined symbols
    evaluate to ``n``, matching Kconfig.
    """

    def evaluate(self, assignment: Assignment) -> Tristate:
        """The expression's tristate value under an assignment."""
        raise NotImplementedError

    def symbols(self) -> set[str]:
        """All symbol names the expression references."""
        raise NotImplementedError


@dataclass(frozen=True)
class SymbolRef(Expr):
    """A reference to a symbol; undefined names evaluate to n."""
    name: str

    def evaluate(self, assignment: Assignment) -> Tristate:
        return assignment.get(self.name, Tristate.N)

    def symbols(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstExpr(Expr):
    """A literal tristate constant."""
    value: Tristate

    def evaluate(self, assignment: Assignment) -> Tristate:
        return self.value

    def symbols(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return self.value.letter


@dataclass(frozen=True)
class NotExpr(Expr):
    """Kconfig negation: 2 - value."""
    operand: Expr

    def evaluate(self, assignment: Assignment) -> Tristate:
        return Tristate(2 - self.operand.evaluate(assignment))

    def symbols(self) -> set[str]:
        return self.operand.symbols()

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class AndExpr(Expr):
    """Kconfig conjunction: min of the sides."""
    left: Expr
    right: Expr

    def evaluate(self, assignment: Assignment) -> Tristate:
        return min(self.left.evaluate(assignment),
                   self.right.evaluate(assignment))

    def symbols(self) -> set[str]:
        return self.left.symbols() | self.right.symbols()

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class OrExpr(Expr):
    """Kconfig disjunction: max of the sides."""
    left: Expr
    right: Expr

    def evaluate(self, assignment: Assignment) -> Tristate:
        return max(self.left.evaluate(assignment),
                   self.right.evaluate(assignment))

    def symbols(self) -> set[str]:
        return self.left.symbols() | self.right.symbols()

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


@dataclass
class ConfigSymbol:
    """One ``config NAME`` entry."""

    name: str
    type: SymbolType = SymbolType.BOOL
    prompt: str | None = None
    depends_on: Expr | None = None
    selects: list[str] = field(default_factory=list)
    default: Expr | None = None
    default_value: str | None = None  # for int/string symbols
    help_text: str = ""
    choice_group: str | None = None   # name of the owning choice, if any
    source_file: str | None = None
    #: (low, high) bounds for int symbols, from a ``range`` attribute
    value_range: tuple[str, str] | None = None

    @property
    def is_boolean_like(self) -> bool:
        """True for bool and tristate symbols."""
        return self.type in (SymbolType.BOOL, SymbolType.TRISTATE)

    def dependencies_met(self, assignment: Assignment) -> bool:
        """True when depends-on evaluates non-n (or is absent)."""
        if self.depends_on is None:
            return True
        return self.depends_on.evaluate(assignment) != Tristate.N


ExprEvaluator = Callable[[Expr, Assignment], Tristate]
