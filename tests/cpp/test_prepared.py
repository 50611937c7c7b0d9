"""Unit tests for the substrate fast path plumbing (repro.cpp.prepared).

The byte-identity guarantees are covered end-to-end by
test_differential_fastpath.py; these tests pin down the mechanics the
differential suite relies on: prepared-file classification, LRU
bounds, read recording, and replay validity.
"""

import pytest

from repro.cpp import prepared
from repro.cpp.macro import Macro, MacroTable
from repro.cpp.preprocessor import Preprocessor


@pytest.fixture(autouse=True)
def _fastpath_on():
    """Every test here runs with the fast path on and cold caches."""
    prepared.configure(True)
    yield
    prepared.configure(True)


# -- prepare_text -----------------------------------------------------------

class TestPrepareText:
    def test_classifies_directives_and_text(self):
        pfile = prepared.prepare_text(
            "#include <a.h>\n"
            "int x;\n"
            "   \n"
            "#define FOO 1\n")
        kinds = [line.directive for line in pfile.lines]
        assert kinds == ["include", None, None, "define"]
        assert pfile.lines[0].rest == "<a.h>"
        assert pfile.lines[3].rest == "FOO 1"
        assert not pfile.lines[1].blank
        assert pfile.lines[2].blank

    def test_splices_continued_lines(self):
        pfile = prepared.prepare_text("#define A \\\n  1\nint y;\n")
        assert pfile.lines[0].directive == "define"
        assert pfile.lines[0].rest == "A   1"
        assert [line.span for line in pfile.lines] == [2, 1]
        assert pfile.line_count == 3

    def test_strips_block_comments_across_lines(self):
        pfile = prepared.prepare_text(
            "int a; /* open\n"
            "still comment\n"
            "close */ int b;\n")
        assert pfile.lines[0].text == "int a;  "
        assert pfile.lines[1].blank
        assert pfile.lines[2].text == " int b;"

    def test_commented_directive_is_text(self):
        pfile = prepared.prepare_text("/* #include <x.h> */\n")
        assert pfile.lines[0].directive is None
        assert pfile.leaf

    def test_leaf_detection(self):
        assert prepared.prepare_text("#define A 1\nint x;\n").leaf
        assert not prepared.prepare_text("#include <a.h>\n").leaf

    def test_null_directive(self):
        pfile = prepared.prepare_text("#\n# /* c */\n")
        assert [line.directive for line in pfile.lines] == ["", ""]


class TestPreparedFileCache:
    def test_same_content_shares_object(self):
        text = "int shared;\n"
        assert prepared.prepared_file(text) is prepared.prepared_file(text)
        snap = prepared.stats_snapshot()["prepared"]
        assert snap["hits"] >= 1 and snap["stores"] >= 1

    def test_lru_bound_holds(self):
        for i in range(prepared._PREPARED_CACHE_SIZE + 32):
            prepared.prepared_file(f"int v{i};\n")
        assert (prepared.stats_snapshot()["prepared_entries"]
                <= prepared._PREPARED_CACHE_SIZE)
        assert prepared.stats_snapshot()["prepared"]["evictions"] >= 32


# -- read recording ---------------------------------------------------------

class TestReadRecording:
    def test_records_reads_and_delta(self):
        macros = MacroTable({"CONFIG_A": "1"})
        recorder = macros.begin_recording()
        assert macros.is_defined("CONFIG_A")
        assert not macros.is_defined("CONFIG_B")
        macros.define(Macro.parse_define("LOCAL 7"))
        macros.undef("CONFIG_A")
        macros.end_recording()
        assert set(recorder.reads) == {"CONFIG_A", "CONFIG_B"}
        assert recorder.reads["CONFIG_B"] is None
        assert [op for op, _ in recorder.delta] == ["define", "undef"]

    def test_written_names_are_internal(self):
        macros = MacroTable({})
        recorder = macros.begin_recording()
        macros.define(Macro.parse_define("GUARD 1"))
        assert macros.is_defined("GUARD")  # read after own write
        macros.end_recording()
        assert "GUARD" not in recorder.reads

    def test_first_read_wins(self):
        macros = MacroTable({"X": "1"})
        recorder = macros.begin_recording()
        assert macros.is_defined("X")
        macros.undef("X")
        assert not macros.is_defined("X")  # post-write read, not recorded
        macros.end_recording()
        assert recorder.reads["X"] is not None


# -- header replay ----------------------------------------------------------

def _preprocess(files, main, predefined=None):
    return Preprocessor(files.get, include_paths=["include"],
                        predefined=predefined or {}).preprocess(main)


HEADER = ("#ifndef _H_\n"
          "#define _H_\n"
          "#ifdef CONFIG_A\n"
          "int a_mode;\n"
          "#else\n"
          "int default_mode;\n"
          "#endif\n"
          "#endif\n")


class TestHeaderReplay:
    def test_second_tu_replays(self):
        files = {"include/h.h": HEADER,
                 "a.c": '#include "include/h.h"\nint main_a;\n',
                 "b.c": ('#include "include/h.h"\n'
                         "#ifdef _H_\n"
                         "int guarded_b;\n"
                         "#endif\n")}
        _preprocess(files, "a.c", {"CONFIG_A": "1"})
        hits_before = prepared.header_cache().stats.hits
        second = _preprocess(files, "b.c", {"CONFIG_A": "1"})
        assert prepared.header_cache().stats.hits > hits_before
        assert "int a_mode;" in second.text
        # the replayed define delta reaches the includer's conditionals
        assert "int guarded_b;" in second.text

    def test_config_change_is_a_new_variant(self):
        files = {"include/h.h": HEADER,
                 "a.c": '#include "include/h.h"\n'}
        with_a = _preprocess(files, "a.c", {"CONFIG_A": "1"})
        without_a = _preprocess(files, "a.c", {})
        assert "int a_mode;" in with_a.text
        assert "int default_mode;" in without_a.text
        # both valuations now replay
        hits_before = prepared.header_cache().stats.hits
        again = _preprocess(files, "a.c", {"CONFIG_A": "1"})
        assert again.text == with_a.text
        assert prepared.header_cache().stats.hits > hits_before

    def test_guard_second_inclusion_replays_empty(self):
        files = {"include/h.h": HEADER,
                 "a.c": ('#include "include/h.h"\n'
                         '#include "include/h.h"\n'
                         "int tail;\n")}
        result = _preprocess(files, "a.c", {"CONFIG_A": "1"})
        assert result.text.count("int a_mode;") == 1
        assert result.included_files == ["include/h.h", "include/h.h"]

    def test_content_change_misses(self):
        files = {"include/h.h": HEADER, "a.c": '#include "include/h.h"\n'}
        _preprocess(files, "a.c")
        files["include/h.h"] = HEADER.replace("default_mode", "new_mode")
        result = _preprocess(files, "a.c")
        assert "int new_mode;" in result.text

    def test_non_leaf_files_are_not_cached(self):
        files = {"include/inner.h": "int inner;\n",
                 "include/outer.h": '#include "inner.h"\n',
                 "a.c": '#include "include/outer.h"\n'}
        _preprocess(files, "a.c")
        _preprocess(files, "a.c")
        keys = {path for path, _ in prepared.header_cache()._slots}
        assert "include/outer.h" not in keys
        assert "include/inner.h" in keys

    def test_variant_bound_holds(self):
        cache = prepared.HeaderReplayCache(max_entries=4, max_variants=2)

        class _Rec:
            def __init__(self, n):
                self.reads = {"K": None if n else "x"}
                self.delta = []

        for n in range(5):
            cache.store("h.h", "text", _Rec(n % 3), f"out{n}\n")
        assert all(len(v) <= 2 for v in cache._slots.values())
        for n in range(6):
            cache.store(f"p{n}.h", "text", _Rec(0), "out\n")
        assert len(cache._slots) <= 4


# -- the global switch ------------------------------------------------------

class TestConfigure:
    def test_fastpath_disabled_restores(self):
        assert prepared.enabled()
        with prepared.fastpath_disabled():
            assert not prepared.enabled()
        assert prepared.enabled()

    def test_disabling_clears_caches(self):
        prepared.prepared_file("int x;\n")
        prepared.configure(False)
        try:
            assert prepared.stats_snapshot()["prepared_entries"] == 0
        finally:
            prepared.configure(True)

    def test_pinned_preprocessor_ignores_global_switch(self):
        files = {"a.c": "#define V 3\nint x = V;\n"}
        pinned = Preprocessor(files.get, fastpath=True)
        with prepared.fastpath_disabled():
            result = pinned.preprocess("a.c")
        assert "int x = 3;" in result.text
        assert prepared.stats_snapshot()["prepared"]["stores"] >= 1

    def test_render_stats_mentions_both_caches(self):
        text = prepared.render_stats()
        assert "prepared" in text and "header_replay" in text
