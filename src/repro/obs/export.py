"""Span-tree exporters: Chrome trace-event JSON and plain text.

:func:`chrome_trace` turns serialized span trees (the plain dicts
:meth:`repro.obs.tracer.Span.to_dict` produces) into the Chrome
trace-event format that ``chrome://tracing`` and Perfetto load
directly: one complete (``"ph": "X"``) event per span, timestamps in
microseconds of *simulated* time.

Determinism: the export uses only simulated times and span attributes —
never wall-clock values — and lays trees out sorted by commit index,
so two runs over the same corpus produce byte-identical JSON for any
``--jobs`` value. Each tree becomes one Perfetto track: ``pid`` is the
worker lane that checked the commit, ``tid`` is the commit index, and
simulated times are rebased per tree (every verdict's trace starts at
0, as if checked alone — which, being a pure function of (corpus,
commit), it behaviorally was).

:func:`render_span_tree` is the human-facing renderer behind
``jmake trace <commit>``; it *does* show wall-clock durations, since a
terminal reading is not a stability surface.
"""

from __future__ import annotations

from typing import Any, Iterable

#: span-tree dict keys the chrome exporter does not copy into args
_STRUCTURAL_KEYS = ("name", "status", "sim_start", "sim_duration",
                    "wall_start", "wall_duration", "children",
                    "error_type", "attributes")


def _tree_events(tree: dict, pid: int, tid: int,
                 events: "list[dict]") -> None:
    args: dict[str, Any] = dict(tree.get("attributes", ()))
    args["status"] = tree["status"]
    if "error_type" in tree:
        args["error_type"] = tree["error_type"]
    events.append({
        "name": tree["name"],
        "cat": tree["name"].split(".", 1)[0],
        "ph": "X",
        "ts": round(tree["sim_start"] * 1e6, 3),
        "dur": round(tree["sim_duration"] * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "args": args,
    })
    for child in tree.get("children", ()):
        _tree_events(child, pid, tid, events)


def chrome_trace(trees: Iterable[dict]) -> dict:
    """Chrome trace-event JSON (as a dict) for serialized span trees.

    Each tree may carry ``worker`` (lane) and ``commit.index``
    attributes, set by the evaluation runner; trees are emitted sorted
    by commit index so output is stable however workers raced.
    """
    ordered = sorted(
        trees, key=lambda tree: (
            tree.get("attributes", {}).get("commit.index", 0),
            tree.get("name", "")))
    events: list[dict] = []
    lanes_seen: set[int] = set()
    for tree in ordered:
        attributes = tree.get("attributes", {})
        pid = attributes.get("worker", 0)
        tid = attributes.get("commit.index", 0)
        if pid not in lanes_seen:
            lanes_seen.add(pid)
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"worker {pid}"}})
        commit = attributes.get("commit", "")
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"commit {tid}"
                     + (f" ({commit})" if commit else "")}})
        _tree_events(tree, pid, tid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, trees: Iterable[dict]) -> int:
    """Write the Chrome trace JSON crash-atomically; returns the number
    of events."""
    from repro.util.atomicio import atomic_write_json

    trace = chrome_trace(trees)
    atomic_write_json(path, trace)
    return len(trace["traceEvents"])


def _format_attributes(attributes: dict) -> str:
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(tree: dict, *, indent: int = 0,
                     show_wall: bool = True) -> str:
    """Indented text rendering of one serialized span tree."""
    pad = "  " * indent
    sim = (f"sim {tree['sim_start']:.2f}s"
           f"+{tree['sim_duration']:.2f}s")
    wall = f" wall {tree['wall_duration'] * 1e3:.2f}ms" if show_wall else ""
    status = "" if tree["status"] == "ok" else \
        f" !{tree['status']}({tree.get('error_type', '?')})"
    attributes = tree.get("attributes")
    suffix = f"  [{_format_attributes(attributes)}]" if attributes else ""
    lines = [f"{pad}{tree['name']}{status}  ({sim}{wall}){suffix}"]
    for child in tree.get("children", ()):
        lines.append(render_span_tree(child, indent=indent + 1,
                                      show_wall=show_wall))
    return "\n".join(lines)


def span_count(tree: dict) -> int:
    """Number of spans in one serialized tree."""
    return 1 + sum(span_count(child) for child in tree.get("children", ()))
