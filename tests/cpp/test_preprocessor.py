"""Tests for the preprocessor driver — the `.i` semantics JMake relies on."""

import pytest

from repro.cpp.preprocessor import Preprocessor
from repro.errors import IncludeNotFoundError, PreprocessorError

MUTATION = '`"define:drivers/x/f.c:49"'


def pp(files, main="f.c", include_paths=None, predefined=None):
    provider = lambda path: files.get(path)
    preprocessor = Preprocessor(provider, include_paths=include_paths or [],
                                predefined=predefined or {})
    return preprocessor.preprocess(main)


class TestBasics:
    def test_plain_code_passes_through(self):
        result = pp({"f.c": "int x;\nint y;\n"})
        assert "int x;" in result.text
        assert "int y;" in result.text

    def test_missing_main_file(self):
        with pytest.raises(IncludeNotFoundError):
            pp({}, main="nope.c")

    def test_line_marker_at_start(self):
        result = pp({"f.c": "int x;\n"})
        assert result.text.startswith('# 1 "f.c"\n')

    def test_comments_removed(self):
        result = pp({"f.c": "int x; /* gone */\n// also gone\nint y;\n"})
        assert "gone" not in result.text


class TestMacros:
    def test_define_consumed_and_expanded(self):
        source = "#define N 4\nint a[N];\n"
        result = pp({"f.c": source})
        assert "#define" not in result.text
        assert "int a[4];" in result.text

    def test_macro_body_mutation_surfaces_at_use_site(self):
        """The core JMake trick (paper Fig. 2): the mutated #define line
        vanishes from the .i file but its token reappears at every use."""
        source = (f"#define HI(x) (((x) & 0xf) << 4) {MUTATION}\n"
                  "int v = HI(3);\n")
        result = pp({"f.c": source})
        assert MUTATION in result.text
        define_lines = [line for line in result.text.splitlines()
                        if "define" in line and "#" in line.split('"')[0]]
        assert not any(line.startswith("#define") for line in
                       result.text.splitlines())

    def test_unused_macro_mutation_never_surfaces(self):
        """Table IV row 'change in unused macro'."""
        source = f"#define UNUSED(x) ((x) + 1) {MUTATION}\nint v = 3;\n"
        result = pp({"f.c": source})
        assert MUTATION not in result.text

    def test_multiline_macro_via_continuation(self):
        source = ("#define SINGLE(x) \\\n"
                  "  (HI(x) | \\\n"
                  "   LO(x))\n"
                  "#define HI(x) ((x) << 4)\n"
                  "#define LO(x) ((x) << 0)\n"
                  "int v = SINGLE(2);\n")
        result = pp({"f.c": source})
        assert "int v = (((2) << 4) |    ((2) << 0));" in result.text

    def test_mutation_before_continuation_joins_macro_body(self):
        """§III-B: mutation placed just before the continuation char."""
        source = (f"#define M(x) {MUTATION} \\\n"
                  "  ((x) + 1)\n"
                  "int v = M(2);\n")
        result = pp({"f.c": source})
        assert MUTATION in result.text

    def test_undef(self):
        source = "#define N 4\n#undef N\nint a[N];\n"
        result = pp({"f.c": source})
        assert "int a[N];" in result.text

    def test_predefined_config_macros(self):
        result = pp({"f.c": "int vers = CONFIG_LEVEL;\n"},
                    predefined={"CONFIG_LEVEL": "3"})
        assert "int vers = 3;" in result.text


class TestConditionals:
    def test_ifdef_taken(self):
        source = "#ifdef CONFIG_PCI\nint pci;\n#endif\n"
        result = pp({"f.c": source}, predefined={"CONFIG_PCI": "1"})
        assert "int pci;" in result.text

    def test_ifdef_not_taken(self):
        source = "#ifdef CONFIG_PCI\nint pci;\n#endif\nint other;\n"
        result = pp({"f.c": source})
        assert "int pci;" not in result.text
        assert "int other;" in result.text

    def test_ifndef(self):
        source = "#ifndef MODULE\nint builtin;\n#else\nint module;\n#endif\n"
        result = pp({"f.c": source})
        assert "int builtin;" in result.text
        assert "int module;" not in result.text

    def test_else_branch(self):
        source = "#ifdef A\nint a;\n#else\nint b;\n#endif\n"
        result = pp({"f.c": source})
        assert "int b;" in result.text
        assert "int a;" not in result.text

    def test_elif_chain(self):
        source = ("#if defined(A)\nint a;\n"
                  "#elif defined(B)\nint b;\n"
                  "#elif defined(C)\nint c;\n"
                  "#else\nint d;\n#endif\n")
        result = pp({"f.c": source}, predefined={"B": "1"})
        assert "int b;" in result.text
        for other in ("int a;", "int c;", "int d;"):
            assert other not in result.text

    def test_if_zero_block_dropped(self):
        """Table IV row 'change under #if 0'."""
        source = f"#if 0\nint dead; {MUTATION}\n#endif\nint live;\n"
        result = pp({"f.c": source})
        assert MUTATION not in result.text
        assert "int live;" in result.text

    def test_nested_conditionals(self):
        source = ("#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#endif\n")
        result = pp({"f.c": source}, predefined={"A": "1"})
        assert "int a;" in result.text
        assert "int ab;" not in result.text

    def test_inactive_outer_suppresses_inner_else(self):
        source = ("#ifdef A\n#ifdef B\nint ab;\n#else\nint anb;\n#endif\n"
                  "#endif\n")
        result = pp({"f.c": source})
        assert "int ab;" not in result.text
        assert "int anb;" not in result.text

    def test_defines_in_untaken_branch_ignored(self):
        source = "#ifdef A\n#define N 4\n#endif\nint a[N];\n"
        result = pp({"f.c": source})
        assert "int a[N];" in result.text

    def test_unterminated_conditional_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#ifdef A\nint x;\n"})

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#endif\n"})

    def test_stray_else_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#else\n"})

    def test_elif_after_else_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#ifdef A\n#else\n#elif defined(B)\n#endif\n"})

    def test_duplicate_else_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#ifdef A\n#else\n#else\n#endif\n"})

    def test_if_with_macro_condition(self):
        source = "#if N > 3\nint big;\n#endif\n"
        result = pp({"f.c": source}, predefined={"N": "5"})
        assert "int big;" in result.text


class TestIncludes:
    def test_quote_include_relative_to_file(self):
        files = {
            "drivers/net/main.c": '#include "local.h"\nint x = LOCAL;\n',
            "drivers/net/local.h": "#define LOCAL 9\n",
        }
        result = pp(files, main="drivers/net/main.c")
        assert "int x = 9;" in result.text
        assert "drivers/net/local.h" in result.included_files

    def test_angle_include_uses_search_paths(self):
        files = {
            "main.c": "#include <linux/kernel.h>\nint x = KMAX;\n",
            "include/linux/kernel.h": "#define KMAX 99\n",
        }
        result = pp(files, include_paths=["include"], main="main.c")
        assert "int x = 99;" in result.text

    def test_missing_include_raises(self):
        with pytest.raises(IncludeNotFoundError):
            pp({"main.c": '#include "gone.h"\n'}, main="main.c")

    def test_missing_arch_header_message(self):
        """The failure mode that makes files arch-specific (§III-C)."""
        files = {"main.c": "#include <asm/io.h>\nint x;\n"}
        with pytest.raises(IncludeNotFoundError) as excinfo:
            pp(files, include_paths=["arch/x86/include"], main="main.c")
        assert "asm/io.h" in str(excinfo.value)

    def test_include_inside_untaken_branch_skipped(self):
        files = {"main.c": "#ifdef A\n#include \"gone.h\"\n#endif\nint x;\n"}
        result = pp(files, main="main.c")
        assert "int x;" in result.text

    def test_include_emits_line_markers(self):
        files = {
            "main.c": '#include "inc.h"\nint after;\n',
            "inc.h": "int inside;\n",
        }
        result = pp(files, main="main.c")
        assert '# 1 "inc.h"' in result.text
        assert '# 2 "main.c"' in result.text

    def test_nested_includes(self):
        files = {
            "main.c": '#include "a.h"\nint x = A + B;\n',
            "a.h": '#include "b.h"\n#define A 1\n',
            "b.h": "#define B 2\n",
        }
        result = pp(files, main="main.c")
        assert "int x = 1 + 2;" in result.text
        assert result.included_files == ["a.h", "b.h"]

    def test_include_guard_idiom(self):
        files = {
            "main.c": '#include "g.h"\n#include "g.h"\nint x = G;\n',
            "g.h": "#ifndef G_H\n#define G_H\n#define G 5\n#endif\n",
        }
        result = pp(files, main="main.c")
        assert "int x = 5;" in result.text

    def test_include_cycle_depth_limited(self):
        files = {
            "a.h": '#include "b.h"\n',
            "b.h": '#include "a.h"\n',
            "main.c": '#include "a.h"\n',
        }
        with pytest.raises(PreprocessorError):
            pp(files, main="main.c")

    def test_computed_include(self):
        files = {
            "main.c": "#define TARGET <linux/kernel.h>\n"
                      "#include TARGET\nint x = KMAX;\n",
            "include/linux/kernel.h": "#define KMAX 7\n",
        }
        result = pp(files, include_paths=["include"], main="main.c")
        assert "int x = 7;" in result.text


class TestDirectivesMisc:
    def test_error_directive_raises_when_active(self):
        with pytest.raises(PreprocessorError) as excinfo:
            pp({"f.c": "#error unsupported arch\n"})
        assert "unsupported arch" in str(excinfo.value)

    def test_error_directive_skipped_when_inactive(self):
        result = pp({"f.c": "#ifdef A\n#error nope\n#endif\nint x;\n"})
        assert "int x;" in result.text

    def test_pragma_ignored(self):
        result = pp({"f.c": "#pragma pack(1)\nint x;\n"})
        assert "int x;" in result.text

    def test_warning_ignored(self):
        result = pp({"f.c": "#warning deprecated\nint x;\n"})
        assert "int x;" in result.text

    def test_null_directive_ignored(self):
        result = pp({"f.c": "#\nint x;\n"})
        assert "int x;" in result.text

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            pp({"f.c": "#frobnicate\n"})

    def test_directive_inside_block_comment_ignored(self):
        source = "/*\n#error not real\n*/\nint x;\n"
        result = pp({"f.c": source})
        assert "int x;" in result.text


class TestMutationSemantics:
    """End-to-end checks of the exact behaviours §III-A depends on."""

    def test_non_macro_mutation_passes_through(self):
        source = f'{MUTATION}\nint changed;\n'
        result = pp({"f.c": source})
        assert MUTATION in result.text

    def test_mutation_under_unset_config_vanishes(self):
        source = (f"#ifdef CONFIG_RARE_THING\n{MUTATION}\nint rare;\n"
                  "#endif\nint common;\n")
        result = pp({"f.c": source})
        assert MUTATION not in result.text

    def test_mutation_under_set_config_survives(self):
        source = (f"#ifdef CONFIG_RARE_THING\n{MUTATION}\nint rare;\n"
                  "#endif\n")
        result = pp({"f.c": source}, predefined={"CONFIG_RARE_THING": "1"})
        assert MUTATION in result.text

    def test_string_payload_not_macro_expanded(self):
        # "define" and the file name inside the payload must never be
        # rewritten even if macros with those names exist.
        source = ("#define define 111\n#define f 222\n"
                  f"{MUTATION}\n")
        result = pp({"f.c": source})
        assert MUTATION in result.text

    def test_header_mutation_seen_through_include(self):
        """§III-D: .h mutations show up in the .i of including .c files."""
        header_mutation = '`"define:inc.h:1"'
        files = {
            "main.c": '#include "inc.h"\nint v = HM(1);\n',
            "inc.h": f"#define HM(x) ((x) * 2) {header_mutation}\n",
        }
        result = pp(files, main="main.c")
        assert header_mutation in result.text
