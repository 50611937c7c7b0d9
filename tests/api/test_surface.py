"""One import surface: ``repro.api`` for callers, the defining module
for everything else.

These tests keep the surface from growing back: the retired spellings
stay gone, ``repro.api.__all__`` is pinned to the names its callers
reach, package ``__init__`` files hold only their docstrings, no
module below the facade imports it, DESIGN.md §3 names every module
exactly once, and no module imports a name it never uses.
"""

import ast
import importlib
import pathlib
import re

import pytest

import repro
from repro import api

SRC = pathlib.Path(repro.__file__).parent
DESIGN = SRC.parent.parent / "DESIGN.md"

#: exactly the names the CLI, ``examples/``, ``tests/``, ``benchmarks/``
#: and ``e2ebench/`` reach through ``repro.api``
API_NAMES = (
    "ActivityAnalyzer", "AuthError", "BlockVerdict", "BuildCache",
    "BuildSystem", "CachePolicy", "CheckService", "CheckSession",
    "Config", "Corpus", "CorpusMismatchError", "CorpusSpec",
    "CrashPoint", "DeadBlockAnalyzer", "DeterministicRng",
    "EXPERIMENTS", "EvaluationSession", "EventLog", "FaultInjector",
    "FaultPlan", "FaultPlanError", "HazardKind", "JMakeOptions",
    "JanitorFinder", "JanitorViewCriteria", "JournalError",
    "JsonlSink", "LEVELS", "MetricsRegistry", "MutationEngine",
    "MutationOverlay", "NULL_INJECTOR", "OUT_DIR_DEFAULTS",
    "OpenMetricsSink", "Patch", "PersonaKind", "ReconnectPolicy",
    "Repository", "RetryPolicy", "SCHEMA_VERSION", "ServiceConfig",
    "SimulatedCrashError", "Snapshotter", "StoreError",
    "StoredVerdict", "SyntheticTrafficSource", "Tracer",
    "TransportError", "Tristate", "VcsError", "VerdictFilter",
    "VerdictLedger", "VerdictStore", "WatchConfig", "WatchSession",
    "WindowSource", "WorkerClient", "atomic_write_json",
    "atomic_write_text", "build_corpus", "check_commit", "check_patch",
    "collect_substrate_metrics", "configure_logging", "diff_texts",
    "evaluate", "extract_changed_files", "figure5_overall",
    "generate_tree", "histogram_quantiles", "is_checkable",
    "janitor_report", "migrate_record", "open_store",
    "parse_openmetrics", "query_verdicts", "read_jsonl",
    "render_span_tree", "resolve_outputs", "scaled_criteria", "serve",
    "span_count", "table1", "table2", "table3", "table4",
    "validate_event_record", "validate_jobs",
    "validate_snapshot_record", "watch", "write_chrome_trace",
    "write_markdown_report",
)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class TestRemovedSpellings:
    @pytest.mark.parametrize("module, name", [
        ("repro.core.jmake", "JMake"),
        ("repro.evalsuite.runner", "EvaluationRunner"),
        ("repro.errors", "ServiceOverloadError"),
        ("repro.service", "WatchSession"),
        ("repro.journal", "VerdictStore"),
        ("repro.api", "JMake"),
        ("repro.api", "ingest_ledger"),
        ("repro.errors", "WorkerLostError"),
    ])
    def test_is_gone(self, module, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)


class TestFacade:
    def test_all_is_pinned(self):
        assert tuple(sorted(api.__all__)) == API_NAMES


class TestPackagesReExportNothing:
    @pytest.mark.parametrize(
        "init", sorted(SRC.rglob("__init__.py")),
        ids=lambda path: str(path.relative_to(SRC.parent)))
    def test_init_is_only_its_docstring(self, init):
        body = _parse(init).body
        assert body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str), \
            f"{init} lost its docstring"
        rest = body[1:]
        if init.parent == SRC:
            assert len(rest) == 1 and isinstance(rest[0], ast.Assign) \
                and [target.id for target in rest[0].targets] \
                == ["__version__"], "the root keeps only __version__"
        else:
            assert rest == [], f"{init} holds more than its docstring"


def _imports_facade(tree: ast.Module) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.api" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.api" or (
                    node.module == "repro"
                    and any(alias.name == "api" for alias in node.names)):
                lines.append(node.lineno)
    return lines


class TestNothingBelowTheFacadeImportsIt:
    def test_no_module_imports_repro_api(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.parent == SRC and path.name in ("api.py", "cli.py"):
                continue
            for lineno in _imports_facade(_parse(path)):
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}")
        assert offenders == []


#: an entry line of the §3 map: indentation, then a module or package
_MAP_ENTRY = re.compile(r"^(?P<indent> {2,8})(?P<name>\w+(?:\.py|/))\s")


def _module_map() -> list[str]:
    """Paths (relative to ``src/repro``) the DESIGN.md §3 block names."""
    section = DESIGN.read_text().split("## 3. System inventory")[1]
    block = section.split("```")[1]
    lines = block.strip("\n").split("\n")
    assert lines[0] == "src/repro/"
    named, parents = [], []
    for line in lines[1:]:
        match = _MAP_ENTRY.match(line)
        if match is None:
            continue
        depth = len(match["indent"]) // 2 - 1
        del parents[depth:]
        if match["name"].endswith("/"):
            parents.append(match["name"])
        else:
            named.append("".join(parents) + match["name"])
    return named


class TestModuleMap:
    def test_design_names_every_module_exactly_once(self):
        modules = sorted(str(path.relative_to(SRC))
                         for path in SRC.rglob("*.py")
                         if path.name != "__init__.py")
        assert sorted(_module_map()) == modules


def _annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation uses, string annotations included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(
                    ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    """Imported names the module never references (``__all__``
    entries and string annotations count as references)."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            if node.annotation is not None:
                used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in node.value.elts}
    return [f"{name} (line {lineno})"
            for name, lineno in sorted(imported.items())
            if name not in used]


class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            unused = _unused_imports(_parse(path))
            if unused:
                offenders[str(path.relative_to(SRC.parent))] = unused
        assert offenders == {}
