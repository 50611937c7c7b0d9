"""Soundness of the line expansion memo, the shared ``#define`` objects
and the shared predefined-macro seed (DESIGN.md §8, fourth level).

Each test runs the same inputs through the reference pipeline
(:func:`~repro.cpp.prepared.fastpath_disabled`) and through the fast
path in one process, and names the broken memo it is there to catch:

- (A) a memo that validates only the identifiers written in the line,
  not the names reached through macro bodies;
- (B) a memo hit that does not replay its reads into the recorder of a
  leaf header, so the header replay cache stores too small a read set;
- (C) a memo that stores a variant for an expansion that raised;
- (D) a memo that stores a line with ``__LINE__``/``__FILE__`` already
  resolved, or leaks one configuration's expansion into another's;
- (E) a predefined-macro seed shared between translation units without
  a copy, so one unit's ``#define``/``#undef`` leaks into the next.
"""

import pytest

from repro.buildcache.fingerprint import compile_environment
from repro.cc.compiler import Compiler
from repro.cc.toolchain import ToolchainRegistry
from repro.cpp import macro as macro_module
from repro.cpp import prepared
from repro.cpp.macro import Macro, MacroTable
from repro.cpp.preprocessor import Preprocessor
from repro.errors import MacroError
from repro.kconfig.ast import Tristate
from repro.kconfig.configfile import Config


@pytest.fixture(autouse=True)
def cold_fast_path():
    """Every test starts on a cold fast path and leaves it on."""
    prepared.configure(True)
    yield
    prepared.configure(True)


def _observable(result):
    return (result.text, result.included_files, result.missing_includes)


def _run(files, mains, predefined=None):
    """Preprocess each main file in order with one preprocessor."""
    preprocessor = Preprocessor(files.get, include_paths=["include"],
                                predefined=predefined)
    return [_observable(preprocessor.preprocess(main)) for main in mains]


def _reference(files, mains, predefined=None):
    with prepared.fastpath_disabled():
        return _run(files, mains, predefined)


class TestNamesReachedThroughBodies:
    """(A) ``A`` is written in the line; ``B`` is reached through A's body."""

    FILES = {"a.c": ("#define A B\n"
                     "#define B 1\n"
                     "int z = A;\n"
                     "#undef B\n"
                     "#define B 2\n"
                     "int z = A;\n")}

    def test_redefined_body_name_is_seen(self):
        reference = _reference(self.FILES, ["a.c", "a.c"])
        fast = _run(self.FILES, ["a.c", "a.c"])
        assert fast == reference
        assert "int z = 1;" in fast[0][0]
        assert "int z = 2;" in fast[0][0]

    def test_second_visit_reuses_the_expansion(self):
        _run(self.FILES, ["a.c"])
        variants = list(macro_module._EXPANSIONS["int z = A;"])
        assert len(variants) == 2  # one per definition of B
        _run(self.FILES, ["a.c"])
        assert macro_module._EXPANSIONS["int z = A;"] == variants


class TestHitWhileRecordingHeader:
    """(B) ``h.h`` is a leaf header whose only line hits the memo.

    Its line reads ``Y`` only through ``X``'s body. If the hit does not
    replay that read into the recorder, the replay entry stored for
    ``h.h`` under ``a.c`` omits ``Y``, and ``b.c`` (``Y`` = 2) replays
    ``a.c``'s ``int v = 1;``.
    """

    FILES = {
        "include/defs.h": "#define X Y\n",
        "include/h.h": "int v = X;\n",
        "a.c": ("#include <defs.h>\n"
                "#define Y 1\n"
                "int v = X;\n"
                "#include <h.h>\n"),
        "b.c": ("#include <defs.h>\n"
                "#define Y 2\n"
                "#include <h.h>\n"),
    }

    def test_header_read_set_includes_replayed_reads(self):
        reference = _reference(self.FILES, ["a.c", "b.c"])
        fast = _run(self.FILES, ["a.c", "b.c"])
        assert fast == reference
        assert "int v = 2;" in fast[1][0]
        assert "int v = 1;" not in fast[1][0]

    def test_warm_rerun_still_matches(self):
        reference = _reference(self.FILES, ["a.c", "b.c"])
        _run(self.FILES, ["a.c", "b.c"])
        assert _run(self.FILES, ["b.c", "a.c"]) == reference[::-1]


class TestExpansionThatRaises:
    """(C) A failing expansion raises every time and is never stored."""

    FILES = {"bad.c": "#define F(a) a\nint ok;\nF(1, 2)\n"}

    def _error(self):
        with pytest.raises(MacroError) as caught:
            _run(self.FILES, ["bad.c"])
        error = caught.value
        return type(error), str(error), error.file, error.line

    def test_same_error_on_every_visit(self):
        with prepared.fastpath_disabled():
            reference = self._error()
        assert "expects 1 arguments, got 2" in reference[1]
        assert [self._error() for _ in range(3)] == [reference] * 3

    def test_nothing_is_stored(self):
        self._error()
        self._error()
        assert not any("F(" in text for text in macro_module._EXPANSIONS)


class TestPositionalBuiltins:
    """(D) A memoized line resolves ``__LINE__``/``__FILE__`` per use."""

    FILES = {
        "include/pos.h": "int h = POS; const char *hf = WHERE;\n",
        "m.c": ("#define POS __LINE__\n"
                "#define WHERE __FILE__\n"
                "int a = POS;\n"
                "int a = POS;\n"
                "#include <pos.h>\n"
                "#ifdef CONFIG_X\n"
                "int b = POS + CONFIG_X; const char *f = WHERE;\n"
                "#endif\n"
                "int b = POS + CONFIG_X; const char *f = WHERE;\n"
                "#include <pos.h>\n"),
    }
    CONFIGS = [{"CONFIG_X": "1"}, {"CONFIG_X": "7"}, {}]

    def test_interleaved_configs_match_reference(self):
        reference = [_reference(self.FILES, ["m.c"], config)[0]
                     for config in self.CONFIGS]
        for _ in range(2):
            for config, want in zip(self.CONFIGS, reference):
                assert _run(self.FILES, ["m.c"], config)[0] == want
        text = reference[0][0]
        assert "int a = 3;" in text and "int a = 4;" in text
        assert 'const char *f = "m.c";' in text
        assert 'const char *hf = "include/pos.h";' in text


class TestSeedIsCopiedPerUnit:
    """(E) A unit's ``#define``/``#undef`` stays inside that unit."""

    FILES = {
        "one.c": ("#define LOCAL 1\n"
                  "#undef __KERNEL__\n"
                  "int x = LOCAL + CONFIG_PCI;\n"),
        "two.c": ("#ifdef LOCAL\nint leaked;\n#endif\n"
                  "#ifndef __KERNEL__\nint lost_predefine;\n#endif\n"
                  "int y = LOCAL + CONFIG_PCI;\n"),
    }

    def _environment(self):
        config = Config()
        config.set("PCI", Tristate.Y)
        architecture = ToolchainRegistry().get("x86_64")
        return architecture, compile_environment(architecture, config,
                                                 modular=False)

    def test_two_units_under_one_environment(self):
        architecture, environment = self._environment()
        with prepared.fastpath_disabled():
            reference = [Compiler(architecture, self.FILES.get,
                                  config_macros={"CONFIG_PCI": "1"})
                         .preprocess(path).text
                         for path in ("one.c", "two.c")]
        for _ in range(2):
            compilers = [Compiler.for_environment(
                architecture, self.FILES.get, environment.seed)
                for _ in range(2)]
            texts = [compiler.preprocess(path).text
                     for compiler, path in zip(compilers,
                                               ("one.c", "two.c"))]
            assert texts == reference
        assert "leaked" not in reference[1]
        assert "lost_predefine" not in reference[1]
        assert "int y = LOCAL + 1;" in reference[1]

    def test_seed_is_unchanged_by_a_unit(self):
        architecture, environment = self._environment()
        before = environment.seed.table()
        Compiler.for_environment(architecture, self.FILES.get,
                                 environment.seed).preprocess("one.c")
        assert environment.seed.table() == before
        assert "LOCAL" not in before


@pytest.fixture
def outer_expansions(monkeypatch):
    """Token lists _expand_tokens is entered with while no macro is being
    expanded (the line itself, here: the lines below call no
    function-like macro)."""
    entries = []
    expand_tokens = MacroTable._expand_tokens

    def counting(self, tokens, hidden):
        if not hidden:
            entries.append(tokens)
        return expand_tokens(self, tokens, hidden)

    monkeypatch.setattr(MacroTable, "_expand_tokens", counting)
    return entries


class TestExpansionCounts:
    def test_same_line_under_unchanged_table_expands_once(
            self, outer_expansions):
        table = MacroTable({"CONFIG_PCI": "1"})
        table.define(Macro.parse_define("N CONFIG_PCI + 4"))
        assert table.expand_text("int a[N];") == "int a[1 + 4];"
        assert table.expand_text("int a[N];") == "int a[1 + 4];"
        assert len(outer_expansions) == 1

    def test_reference_pipeline_expands_every_time(self, outer_expansions):
        with prepared.fastpath_disabled():
            table = MacroTable()
            table.define(Macro.parse_define("N 4"))
            table.expand_text("int a[N];")
            table.expand_text("int a[N];")
            assert not macro_module._EXPANSIONS
        assert len(outer_expansions) == 2

    def test_clear_caches_drops_every_memo(self):
        _run(TestNamesReachedThroughBodies.FILES, ["a.c"])
        assert macro_module._EXPANSIONS
        assert macro_module._line_identifiers.cache_info().currsize
        assert macro_module.shared_define.cache_info().currsize
        prepared.clear_caches()
        assert not macro_module._EXPANSIONS
        assert macro_module._line_identifiers.cache_info().currsize == 0
        assert macro_module.shared_define.cache_info().currsize == 0
