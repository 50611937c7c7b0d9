"""Renderers for the paper's tables.

Each function returns both the structured data and a fixed-width text
rendering, so benchmarks can print the same rows the paper reports and
tests can assert on the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import FileStatus
from repro.evalsuite.runner import EvaluationResult
from repro.evalsuite.stats import Share
from repro.janitors.identify import JanitorCriteria, RankedDeveloper
from repro.kernel.layout import HazardKind


def render_grid(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width table rendering used by all table outputs."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells):
        return " | ".join(cell.ljust(width)
                          for cell, width in zip(cells, widths))
    rule = "-+-".join("-" * width for width in widths)
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


# -- Table I ----------------------------------------------------------------

def table1(criteria: JanitorCriteria | None = None
           ) -> tuple[dict, str]:
    """Thresholds on janitor activity (Table I)."""
    criteria = criteria or JanitorCriteria()
    data = {
        "# patches": f">= {criteria.min_patches}",
        "# subsystems": f">= {criteria.min_subsystems}",
        "# lists": f">= {criteria.min_lists}",
        "# maintainer patches":
            f"< {criteria.max_maintainer_share:.0%}",
    }
    rows = [[key, value] for key, value in data.items()]
    return data, render_grid(["threshold", "value"], rows)


# -- Table II ----------------------------------------------------------------

def table2(ranked: list[RankedDeveloper],
           tool_users: set[str] = frozenset(),
           interns: set[str] = frozenset()) -> tuple[list[dict], str]:
    """Janitors identified using the criteria (Table II)."""
    data = []
    rows = []
    for developer in ranked:
        marker = ""
        if developer.name in tool_users:
            marker = " (T)"
        elif developer.name in interns:
            marker = " (I)"
        data.append({
            "name": developer.name,
            "patches": developer.patches,
            "subsystems": developer.subsystems,
            "lists": developer.lists,
            "maintainer": developer.maintainer_share,
            "file_cv": developer.file_cv,
        })
        rows.append([developer.name + marker, str(developer.patches),
                     str(developer.subsystems), str(developer.lists),
                     f"{developer.maintainer_share:.0%}",
                     f"{developer.file_cv:.2f}"])
    text = render_grid(
        ["developer", "patches", "subsystems", "lists", "maintainer",
         "file cv"], rows)
    return data, text


# -- Table III ----------------------------------------------------------------

@dataclass
class Table3Row:
    """One Table III row: label plus all/janitor shares."""
    label: str
    all_patches: Share
    janitor_patches: Share


def table3(result: EvaluationResult) -> tuple[list[Table3Row], str]:
    """Characteristics of all patches and of janitor patches."""
    def shares(janitor_only: bool) -> dict[str, Share]:
        records = result.patch_records(janitor_only=janitor_only)
        total = len(records)
        counts = {"c_only": 0, "h_only": 0, "both": 0}
        for record in records:
            counts[record.shape] += 1
        return {shape: Share(count, total)
                for shape, count in counts.items()}

    all_shares = shares(False)
    janitor_shares = shares(True)
    labels = {"c_only": ".c files only", "h_only": ".h files only",
              "both": "both .c and .h files"}
    rows_data = [Table3Row(labels[shape], all_shares[shape],
                           janitor_shares[shape])
                 for shape in ("c_only", "h_only", "both")]
    rows = [[row.label, row.all_patches.render(),
             row.janitor_patches.render()] for row in rows_data]
    return rows_data, render_grid(
        ["", "All patches", "Janitor patches"], rows)


# -- Table IV ----------------------------------------------------------------

_TABLE4_LABELS = {
    HazardKind.CHOICE_UNSET:
        "change under #ifdef variable not set by allyesconfig",
    HazardKind.NEVER_SET:
        "change under #ifdef variable never set in the kernel",
    HazardKind.MODULE_ONLY: "change under #ifdef MODULE",
    HazardKind.IFNDEF: "change under #ifndef or #else",
    HazardKind.IFDEF_AND_ELSE: "change under both #ifdef and #else",
    HazardKind.IF_ZERO: "change under #if 0",
    HazardKind.UNUSED_MACRO: "change in unused macro",
}


def table4(result: EvaluationResult, *,
           janitor_only: bool = True) -> tuple[dict[HazardKind, int], str]:
    """Reasons why some changed lines are not subjected to the compiler.

    Counts affected file instances per hazard category, over the
    (by default janitor) file instances whose verdict was
    LINES_NOT_COMPILED, using corpus ground truth for attribution the
    way the paper's authors studied the code by hand.
    """
    counts: dict[HazardKind, int] = {kind: 0 for kind in _TABLE4_LABELS}
    for instance in result.file_instances(janitor_only=janitor_only):
        if instance.status is not FileStatus.LINES_NOT_COMPILED:
            continue
        for kind in set(instance.hazard_kinds):
            if kind in counts:   # ARCH_CONDITIONAL is not a Table IV row
                counts[kind] += 1
    rows = [[_TABLE4_LABELS[kind], str(count)]
            for kind, count in counts.items()]
    return counts, render_grid(["reason", "affected file instances"],
                               rows)
