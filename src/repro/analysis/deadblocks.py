"""Undertaker-style dead/undead block detection (§VI related work).

The Undertaker "analyzes the interdependencies between configuration
variables and identifies ... blocks of code that are undead or dead,
i.e., that depend on a composition of values of configuration variables
that represents a tautology or a contradiction". This analyzer does the
same against our Kconfig model:

- **DEAD**: no configuration the model admits can include the block —
  the condition references a symbol no Kconfig defines, is ``#if 0``,
  or is unsatisfiable under the dependency graph;
- **UNDEAD**: every configuration includes it (``#if 1``, or the
  negation of an undefined symbol);
- **CONFIGURABLE**: some configurations include it, some do not;
- **ENVIRONMENT**: depends on non-config facts (``MODULE``, arch
  builtins) that Kconfig cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.analysis.blocks import (
    BlockCondition,
    ConditionalBlock,
    extract_blocks,
)
from repro.kconfig.ast import (
    AndExpr,
    ConstExpr,
    Expr,
    NotExpr,
    OrExpr,
    SymbolRef,
    Tristate,
)
from repro.kconfig.model import ConfigModel
from repro.kconfig.solver import targeted_config


class BlockVerdict(Enum):
    """Reachability classification of one conditional branch."""
    DEAD = "dead"
    UNDEAD = "undead"
    CONFIGURABLE = "configurable"
    #: unreachable in the primary model but reachable under another
    #: architecture's Kconfig — the population JMake rescues with
    #: cross-compilation (§V-B)
    ARCH_DEPENDENT = "arch-dependent"
    ENVIRONMENT = "environment"


@dataclass
class AnalyzedBlock:
    """A block together with its verdict and a human-readable reason."""
    block: ConditionalBlock
    verdict: BlockVerdict
    reason: str


def literals(expr: Expr) -> "tuple[set[str], set[str]] | None":
    """Split a conjunction into (positive, negative) symbol sets.

    Returns None for disjunctions or other shapes (handled
    conservatively as CONFIGURABLE).
    """
    positive: set[str] = set()
    negative: set[str] = set()

    def walk(node: Expr) -> bool:
        if isinstance(node, AndExpr):
            return walk(node.left) and walk(node.right)
        if isinstance(node, SymbolRef):
            positive.add(node.name)
            return True
        if isinstance(node, NotExpr) and isinstance(node.operand,
                                                    SymbolRef):
            negative.add(node.operand.name)
            return True
        if isinstance(node, ConstExpr):
            return node.value != Tristate.N or False
        if isinstance(node, OrExpr):
            return False
        return False

    if not walk(expr):
        return None
    return positive, negative


class DeadBlockAnalyzer:
    """Dead/undead classification against one primary model.

    ``extra_models`` (name -> model) widens the search the way the real
    Undertaker unions all architectures' variability models: a block the
    primary model cannot reach but another architecture's Kconfig can is
    ARCH_DEPENDENT, not DEAD.
    """

    def __init__(self, model: ConfigModel,
                 extra_models: "dict[str, ConfigModel] | None" = None
                 ) -> None:
        self._model = model
        self._extra_models = dict(extra_models or {})

    def analyze_file(self, path: str, text: str) -> list[AnalyzedBlock]:
        """Classify every conditional branch of one file."""
        return [self.classify(block)
                for block in extract_blocks(path, text)]

    def _reachable_elsewhere(self, positive: "set[str]",
                             negative: "set[str]") -> str | None:
        for name, model in self._extra_models.items():
            if any(symbol not in model for symbol in positive):
                continue
            if targeted_config(model, positive, negative) is not None:
                return name
        return None

    def classify(self, block: ConditionalBlock) -> AnalyzedBlock:
        """Classify one extracted block against the model(s)."""
        if block.condition_kind is BlockCondition.ENVIRONMENT or \
                (block.presence is None and
                 block.condition_kind is not BlockCondition.CONSTANT):
            return AnalyzedBlock(block, BlockVerdict.ENVIRONMENT,
                                 f"depends on {', '.join(block.atoms) or 'non-config state'}")
        presence = block.presence
        if presence is None:
            return AnalyzedBlock(block, BlockVerdict.ENVIRONMENT,
                                 "nested under non-config condition")
        if isinstance(presence, ConstExpr):
            if presence.value == Tristate.N:
                return AnalyzedBlock(block, BlockVerdict.DEAD, "#if 0")
            return AnalyzedBlock(block, BlockVerdict.UNDEAD, "#if 1")

        split = literals(presence)
        if split is None:
            return AnalyzedBlock(block, BlockVerdict.CONFIGURABLE,
                                 "disjunctive condition (not analyzed)")
        positive, negative = split

        if positive & negative:
            clash = sorted(positive & negative)[0]
            return AnalyzedBlock(
                block, BlockVerdict.DEAD,
                f"contradiction: CONFIG_{clash} && !CONFIG_{clash}")
        undefined_positive = [name for name in sorted(positive)
                              if name not in self._model]
        if undefined_positive:
            elsewhere = self._reachable_elsewhere(positive, negative)
            if elsewhere is not None:
                return AnalyzedBlock(
                    block, BlockVerdict.ARCH_DEPENDENT,
                    f"reachable under the {elsewhere} model")
            return AnalyzedBlock(
                block, BlockVerdict.DEAD,
                f"CONFIG_{undefined_positive[0]} is never defined "
                f"by any Kconfig")
        config = targeted_config(self._model, positive, negative)
        if config is None:
            elsewhere = self._reachable_elsewhere(positive, negative)
            if elsewhere is not None:
                return AnalyzedBlock(
                    block, BlockVerdict.ARCH_DEPENDENT,
                    f"reachable under the {elsewhere} model")
            return AnalyzedBlock(
                block, BlockVerdict.DEAD,
                "dependencies make the condition unsatisfiable")
        # Satisfiable. Tautology check: can the block also be excluded?
        if not positive and negative and \
                all(name not in self._model for name in negative):
            return AnalyzedBlock(
                block, BlockVerdict.UNDEAD,
                "negation of symbols no Kconfig defines")
        return AnalyzedBlock(block, BlockVerdict.CONFIGURABLE,
                             "reachable under some configurations")
