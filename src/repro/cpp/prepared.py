"""Content-keyed prepared files and header-level replay (fast path L2/L3).

Three observations drive the substrate fast path (DESIGN.md §8):

1. Comment stripping, backslash splicing, and directive classification
   are *pure functions of file content* — they do not depend on the
   architecture, the configuration, or any macro state. Yet the
   preprocessor redoes them for every include of every translation
   unit. :class:`PreparedFile` performs that work once per distinct
   content and shares it process-wide: across the files of one TU,
   across the TUs of one ≤50-file ``make`` batch, and across requests
   in a warm service or worker process. Within that, each distinct
   logical line is prepared once: a mutated copy of a file shares every
   unchanged line's immutable :class:`PreparedLine` with its original,
   so a new content costs only its changed lines.

2. A *leaf* file — one whose prepared form contains no ``#include``
   directive — interacts with the rest of the build only through the
   macro table. If every macro name whose presence/definition it read
   still has the same definition, re-preprocessing it is guaranteed to
   produce byte-identical output and the same macro-table delta.
   :class:`HeaderReplayCache` memoizes exactly that: keyed by
   (path, content), validated by the recorded read set (which naturally
   captures the arch/config dependence via ``CONFIG_*`` and builtin
   reads), it replays the emitted text and the ordered define/undef
   delta without touching the lexer at all.
   Guard-protected headers are the canonical win: the second inclusion
   in a TU and every inclusion in later TUs of a warm process resolve
   here.

3. Both caches are content-addressed, so they need *no invalidation
   protocol*: changed content simply probes a different key, and the
   bounded LRU keeps long service runs from growing without limit.

The module also owns the global fast-path switch. All reuse levels —
the lexer's token caches, the macro screen and line expansion memo, the
evaluator fast paths, and the caches here — can be force-disabled
via :func:`configure`
(or, scoped, :func:`fastpath_disabled`), which is what the byte-identity
differential suite uses to compare both pipelines.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

from repro.cpp import evaluator as _evaluator
from repro.cpp import lexer as _lexer
from repro.cpp import macro as _macro
from repro.cpp.lexer import CommentStripper
from repro.obs.metrics import MetricsRegistry

#: bound on distinct file contents held prepared
_PREPARED_CACHE_SIZE = 4096
#: bound on distinct (logical line, span, entry comment state) records
_LINE_CACHE_SIZE = 16384
#: bounds on the header replay store
_REPLAY_CACHE_SIZE = 2048
_REPLAY_MAX_VARIANTS = 16


class PreparedLine(NamedTuple):
    """One logical line, pre-stripped, pre-spliced, pre-classified.

    ``span`` is the number of physical lines the logical line covers
    (more than 1 only for backslash continuations); the preprocessor
    counts positions from the spans as it walks a file, so a record
    holds nothing file-specific and one immutable record is shared by
    every file that has the line. For directive lines, ``directive`` is
    the keyword ("" for the null directive) and ``rest`` the
    pre-stripped text after it; for ordinary text lines both are None
    and ``blank`` says whether the line is whitespace-only after
    stripping.
    """

    text: str
    span: int
    directive: str | None
    rest: str | None
    blank: bool


class PreparedFile:
    """The prepared (content-only) form of one source file."""

    __slots__ = ("lines", "line_count", "leaf")

    def __init__(self, lines: tuple[PreparedLine, ...],
                 line_count: int) -> None:
        self.lines = lines
        self.line_count = line_count
        #: no #include directive anywhere -> replay-cache eligible
        self.leaf = all(line.directive != "include" for line in lines)


def splice_logical_line(lines: list[str], index: int) -> tuple[str, int]:
    """Join backslash-continued physical lines into one logical line.

    Returns ``(logical_text, next_index)``; the logical line spans
    physical lines ``index .. next_index - 1`` (0-based).
    """
    parts: list[str] = []
    while index < len(lines):
        raw = lines[index].rstrip("\n")
        trimmed = raw.rstrip(" \t")
        if trimmed.endswith("\\") and index + 1 < len(lines):
            parts.append(trimmed[:-1])
            index += 1
            continue
        parts.append(raw)
        index += 1
        break
    return "".join(parts), index


def directive_name(stripped_line: str) -> str | None:
    """The directive keyword, or None for ordinary text lines."""
    text = stripped_line.lstrip(" \t")
    if not text.startswith("#"):
        return None
    rest = text[1:].lstrip(" \t")
    name = ""
    for ch in rest:
        if ch.isalpha():
            name += ch
        else:
            break
    return name  # may be "" for a null directive "#"


@lru_cache(maxsize=_LINE_CACHE_SIZE)
def _prepared_line(logical: str, span: int,
                   in_comment: bool) -> tuple[PreparedLine, bool]:
    """The shared record of one logical line entered with the given
    block-comment state, and the state it leaves."""
    stripper = CommentStripper()
    stripper.in_block_comment = in_comment
    stripped = stripper.strip_line(logical)
    directive = directive_name(stripped)
    if directive is None:
        record = PreparedLine(stripped, span, None, None,
                              not stripped.strip())
    else:
        body = stripped.strip()[1:].strip()
        record = PreparedLine(stripped, span, directive,
                              body[len(directive):].strip(), False)
    return record, stripper.in_block_comment


def prepare_text(text: str) -> PreparedFile:
    """Strip, splice, and classify one file's content (pure function)."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    count = len(lines)
    last = count - 1
    prepared: list[PreparedLine] = []
    in_comment = False
    index = 0
    while index < count:
        logical = lines[index]
        if "\\" in logical and index < last:
            logical, end = splice_logical_line(lines, index)
            span = end - index
            index = end
        else:
            span = 1
            index += 1
        record, in_comment = _prepared_line(logical, span, in_comment)
        prepared.append(record)
    return PreparedFile(tuple(prepared), count)


#: the substrate's own metrics registry: every counter below is a
#: namespaced instrument (``substrate.prepared.*`` /
#: ``substrate.replay.*``) so the telemetry plane's snapshotter can
#: merge the substrate into service snapshots and sinks for free
_SUBSTRATE_METRICS = MetricsRegistry()

_COUNTER_FIELDS = ("hits", "misses", "stores", "evictions")


class _Counters:
    """Hit/miss/store/eviction counters for one cache.

    A thin view over bound :class:`~repro.obs.metrics.Counter`
    instruments: the hot paths keep their ``stats.hits += 1`` idiom
    (one attribute store on the pre-bound counter, no registry lookup)
    while the values live in a registry and flow through snapshots.
    Standalone caches (tests) get a private registry so they never
    pollute the process-wide ``substrate.*`` instruments.
    """

    __slots__ = ("_hits", "_misses", "_stores", "_evictions")

    def __init__(self, prefix: str = "substrate.cache",
                 registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        for name in _COUNTER_FIELDS:
            setattr(self, f"_{name}",
                    registry.counter(f"{prefix}.{name}"))

    def snapshot(self) -> dict:
        return {name: getattr(self, f"_{name}").value
                for name in _COUNTER_FIELDS}


def _counter_property(name: str):
    def get(self):
        return getattr(self, f"_{name}").value

    def set(self, value):
        getattr(self, f"_{name}").value = value

    return property(get, set)


for _field in _COUNTER_FIELDS:
    setattr(_Counters, _field, _counter_property(_field))
del _field


#: content -> PreparedFile, LRU by access
_PREPARED: "OrderedDict[str, PreparedFile]" = OrderedDict()
_PREPARED_STATS = _Counters("substrate.prepared", _SUBSTRATE_METRICS)


def prepared_file(text: str) -> PreparedFile:
    """The shared PreparedFile for this content (process-wide LRU)."""
    cached = _PREPARED.get(text)
    if cached is not None:
        _PREPARED_STATS.hits += 1
        _PREPARED.move_to_end(text)
        return cached
    _PREPARED_STATS.misses += 1
    prepared = prepare_text(text)
    _PREPARED[text] = prepared
    _PREPARED_STATS.stores += 1
    while len(_PREPARED) > _PREPARED_CACHE_SIZE:
        _PREPARED.popitem(last=False)
        _PREPARED_STATS.evictions += 1
    return prepared


class HeaderReplay:
    """One cached expansion of a leaf file under one read valuation."""

    __slots__ = ("reads", "delta", "out_text")

    def __init__(self, reads: dict, delta: list, out_text: str) -> None:
        self.reads = reads
        self.delta = delta
        self.out_text = out_text

    def matches(self, macros) -> bool:
        """True when every recorded read sees the same definition now."""
        lookup = macros.definition
        for name, recorded in self.reads.items():
            if lookup(name) != recorded:
                return False
        return True

    def apply(self, macros) -> None:
        """Replay the macro-table delta."""
        for op, payload in self.delta:
            if op == "define":
                macros.define(payload)
            else:
                macros.undef(payload)


class HeaderReplayCache:
    """(path, content) -> replay variants, probed most-recent first."""

    def __init__(self, max_entries: int = _REPLAY_CACHE_SIZE,
                 max_variants: int = _REPLAY_MAX_VARIANTS,
                 counters: "_Counters | None" = None) -> None:
        self.max_entries = max_entries
        self.max_variants = max_variants
        self._slots: "OrderedDict[tuple[str, str], list[HeaderReplay]]" \
            = OrderedDict()
        self.stats = counters if counters is not None \
            else _Counters("substrate.replay")

    def __len__(self) -> int:
        return sum(len(variants) for variants in self._slots.values())

    def probe(self, path: str, text: str, macros) -> HeaderReplay | None:
        """A replay valid under the current macro table, or None."""
        variants = self._slots.get((path, text))
        if variants:
            for replay in variants:
                if replay.matches(macros):
                    self.stats.hits += 1
                    self._slots.move_to_end((path, text))
                    return replay
        self.stats.misses += 1
        return None

    def store(self, path: str, text: str, recorder,
              out_text: str) -> None:
        """Cache one completed expansion from its read recorder."""
        key = (path, text)
        variants = self._slots.get(key)
        if variants is None:
            variants = []
            self._slots[key] = variants
        replay = HeaderReplay(
            reads=dict(recorder.reads),
            delta=list(recorder.delta),
            out_text=out_text)
        variants.insert(0, replay)
        self.stats.stores += 1
        while len(variants) > self.max_variants:
            variants.pop()
            self.stats.evictions += 1
        self._slots.move_to_end(key)
        while len(self._slots) > self.max_entries:
            _, evicted = self._slots.popitem(last=False)
            self.stats.evictions += len(evicted)

    def clear(self) -> None:
        self._slots.clear()


_HEADER_CACHE = HeaderReplayCache(
    counters=_Counters("substrate.replay", _SUBSTRATE_METRICS))


def header_cache() -> HeaderReplayCache:
    """The process-wide replay cache."""
    return _HEADER_CACHE


def collect_metrics() -> MetricsRegistry:
    """Snapshot-time collector for the telemetry snapshotter.

    Refreshes the occupancy gauges (counters update inline on the hot
    paths; entry counts are only consulted here) and returns the
    substrate registry so the Snapshotter merges it into each sample.
    """
    _SUBSTRATE_METRICS.gauge("substrate.prepared.entries").set(
        len(_PREPARED))
    _SUBSTRATE_METRICS.gauge("substrate.replay.entries").set(
        len(_HEADER_CACHE))
    return _SUBSTRATE_METRICS


# -- the global fast-path switch -------------------------------------------

_ENABLED = True


def enabled() -> bool:
    """True when the substrate fast path is globally on."""
    return _ENABLED


def configure(enable: bool) -> None:
    """Switch every fast-path level on or off, clearing all caches.

    Off means the byte-identity *reference* pipeline: per-visit
    stripping/splicing, per-call tokenization, no expansion screen or
    memo, no condition fast paths, no prepared/replay caches — exactly the
    pre-fast-path behaviour the differential suite compares against.
    """
    global _ENABLED
    _ENABLED = bool(enable)
    _lexer.set_token_cache_enabled(enable)
    _lexer.set_strip_fastpath_enabled(enable)
    _macro.set_expand_screen_enabled(enable)
    _evaluator.set_condition_fastpath_enabled(enable)
    clear_caches()


def clear_caches() -> None:
    """Drop every process-wide substrate cache (stats survive)."""
    _PREPARED.clear()
    _prepared_line.cache_clear()
    _HEADER_CACHE.clear()
    _lexer.clear_token_caches()
    _macro.clear_expansion_caches()
    _evaluator._split_defined.cache_clear()


@contextmanager
def fastpath_disabled():
    """Run a block on the reference pipeline, restoring the prior mode."""
    previous = _ENABLED
    configure(False)
    try:
        yield
    finally:
        configure(previous)


def stats_snapshot() -> dict:
    """Substrate fast-path counters (process-local)."""
    return {
        "enabled": _ENABLED,
        "prepared": _PREPARED_STATS.snapshot(),
        "header_replay": _HEADER_CACHE.stats.snapshot(),
        "prepared_entries": len(_PREPARED),
        "header_replay_entries": len(_HEADER_CACHE),
    }


def render_stats() -> str:
    """Human-readable one-liner per cache for --cache-stats output."""
    snap = stats_snapshot()
    lines = [f"  fast path enabled: {snap['enabled']}"]
    for name in ("prepared", "header_replay"):
        counters = snap[name]
        total = counters["hits"] + counters["misses"]
        rate = counters["hits"] / total if total else 0.0
        lines.append(
            f"  {name:<14} hits={counters['hits']} "
            f"misses={counters['misses']} stores={counters['stores']} "
            f"evictions={counters['evictions']} hit_rate={rate:.1%}")
    return "\n".join(lines)
