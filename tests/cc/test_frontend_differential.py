"""Differential tests: the compiler front end against its per-token form.

``lex_translation_unit`` lexes each distinct ``.i`` line once and keeps
one flat token list with per-line positions; ``validate_unit`` and
``Compiler.compile_object`` walk that list and resolve a position only
for what they report. The oracle is the per-token front end they
replace, copied below (issues kept as tuples): a frozen ``LexedToken``
for every token, balance checking and symbol extraction over those
records, and the object built from them.

Both sides see the same ``.i`` texts: Hypothesis-generated units (line
markers, stray characters, ``\\r`` and ``\\f``, unbalanced and mismatched
brackets, empty units, nested bodies, repeated calls), every text
``compile_object`` lexes while a generated evaluation window runs, and
every ``.i`` text that window preprocesses (mutated units). They
must agree on the stray records, the issues (message, file, line and
order), the symbols, the external calls, the strings, the token count,
the ``tokens`` view, and on each ``CompileError`` message and its
diagnostics.
"""

import re
from dataclasses import dataclass, field
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc import compiler as compiler_module
from repro.cc.compiler import Compiler
from repro.cc.lexer import lex_translation_unit
from repro.cc.parser import validate_unit
from repro.cc.toolchain import ToolchainRegistry
from repro.cpp.lexer import Token, TokenKind, tokenize_shared
from repro.cpp.preprocessor import PreprocessResult
from repro.errors import CompileError

# -- the oracle: the per-token front end, verbatim ----------------------------

_LINE_MARKER_RE = re.compile(r'^#\s+(\d+)\s+"([^"]*)"')


@dataclass(frozen=True)
class LexedToken:
    token: Token
    file: str
    line: int


@dataclass
class LexResult:
    tokens: list[LexedToken] = field(default_factory=list)
    stray_characters: list[LexedToken] = field(default_factory=list)

    def identifiers(self) -> list[str]:
        return [lexed.token.text for lexed in self.tokens
                if lexed.token.kind is TokenKind.IDENT]


def parent_lex_translation_unit(i_text: str, *,
                                main_file: str = "<unit>") -> LexResult:
    result = LexResult()
    current_file = main_file
    current_line = 1
    for raw in i_text.split("\n"):
        if not raw:
            current_line += 1
            continue
        if raw[0] == "#":
            marker = _LINE_MARKER_RE.match(raw)
            if marker:
                current_line = int(marker.group(1))
                current_file = marker.group(2)
                continue
        for token in tokenize_shared(raw):
            if token.is_ws:
                continue
            lexed = LexedToken(token=token, file=current_file,
                               line=current_line)
            result.tokens.append(lexed)
            if token.kind is TokenKind.OTHER and not token.text.isspace():
                result.stray_characters.append(lexed)
        current_line += 1
    return result


_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned",
    "void", "volatile", "while",
}


@dataclass
class ParseOutcome:
    issues: list[tuple[str, str, int]] = field(default_factory=list)
    symbols: list[str] = field(default_factory=list)
    external_calls: list[str] = field(default_factory=list)


def parent_validate_unit(lexed: LexResult) -> ParseOutcome:
    outcome = ParseOutcome()
    stack: list[LexedToken] = []
    meaningful = [t for t in lexed.tokens
                  if t.token.kind is not TokenKind.OTHER]
    if not meaningful:
        outcome.issues.append(("empty translation unit", "<unit>", 0))
        return outcome

    for lexed_token in meaningful:
        text = lexed_token.token.text
        if text in _OPENERS:
            stack.append(lexed_token)
        elif text in _CLOSERS:
            if not stack or stack[-1].token.text != _CLOSERS[text]:
                outcome.issues.append((f"unbalanced {text!r}",
                                       lexed_token.file, lexed_token.line))
                return outcome
            stack.pop()
    for unclosed in stack:
        outcome.issues.append((f"unclosed {unclosed.token.text!r}",
                               unclosed.file, unclosed.line))
    if outcome.issues:
        return outcome

    outcome.symbols = _extract_symbols(meaningful)
    outcome.external_calls = _extract_external_calls(
        meaningful, set(outcome.symbols))
    return outcome


def _extract_external_calls(tokens, defined):
    calls: list[str] = []
    depth = 0
    for index, lexed in enumerate(tokens):
        text = lexed.token.text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif (depth > 0 and lexed.token.kind is TokenKind.IDENT
                and text not in _KEYWORDS and text not in defined
                and index + 1 < len(tokens)
                and tokens[index + 1].token.text == "("
                and text not in calls):
            calls.append(text)
    return calls


def _extract_symbols(tokens):
    symbols: list[str] = []
    depth = 0
    i = 0
    while i < len(tokens):
        text = tokens[i].token.text
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif (depth == 0 and tokens[i].token.kind is TokenKind.IDENT
                and text not in _KEYWORDS
                and i + 1 < len(tokens) and tokens[i + 1].token.text == "("):
            close = _matching_paren(tokens, i + 1)
            if close is not None and close + 1 < len(tokens) \
                    and tokens[close + 1].token.text == "{":
                symbols.append(text)
                i = close
        i += 1
    return symbols


def _matching_paren(tokens, open_index):
    depth = 0
    for index in range(open_index, len(tokens)):
        text = tokens[index].token.text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth == 0:
                return index
    return None


def parent_compile(path: str, i_text: str, architecture: str):
    """The result-building part of the per-token ``compile_object``."""
    lexed = parent_lex_translation_unit(i_text, main_file=path)
    diagnostics = [(stray.file, stray.line,
                    f"stray {stray.token.text!r} in program")
                   for stray in lexed.stray_characters]
    if diagnostics:
        return ("error",
                f"{path}: {len(diagnostics)} stray-character error(s)",
                diagnostics)
    outcome = parent_validate_unit(lexed)
    if outcome.issues:
        return ("error", f"{path}: syntax errors",
                [(file, line, message)
                 for message, file, line in outcome.issues])
    strings = [lexed_token.token.text[1:-1]
               for lexed_token in lexed.tokens
               if lexed_token.token.kind is TokenKind.STRING]
    return ("ok", path, architecture, outcome.symbols, len(lexed.tokens),
            strings, outcome.external_calls)


# -- the comparison -------------------------------------------------------------

X86 = ToolchainRegistry().get("x86_64")


def _compile(path: str, i_text: str):
    compiler = Compiler(X86, {}.get)
    preprocessed = PreprocessResult(main_file=path, text=i_text,
                                    included_files=[])
    try:
        obj = compiler.compile_object(path, preprocessed=preprocessed)
    except CompileError as error:
        return ("error", str(error),
                [(d.file, d.line, d.message) for d in error.diagnostics])
    return ("ok", obj.source, obj.architecture, obj.symbols,
            obj.token_count, obj.strings, obj.references)


def _positioned(tokens):
    return [(lexed.token.kind, lexed.token.text, lexed.file, lexed.line)
            for lexed in tokens]


def assert_front_ends_agree(i_text: str, path: str = "drivers/x.c"):
    want = parent_lex_translation_unit(i_text, main_file=path)
    got = lex_translation_unit(i_text, main_file=path)
    assert _positioned(got.stray_characters) == \
        _positioned(want.stray_characters)
    assert _positioned(got.tokens) == _positioned(want.tokens)
    assert got.identifiers() == want.identifiers()

    want_outcome = parent_validate_unit(want)
    got_outcome = validate_unit(got)
    assert [(issue.message, issue.file, issue.line)
            for issue in got_outcome.issues] == want_outcome.issues
    assert got_outcome.symbols == want_outcome.symbols
    assert got_outcome.external_calls == want_outcome.external_calls

    assert _compile(path, i_text) == parent_compile(path, i_text, X86.name)


# -- generated units --------------------------------------------------------------

_FILES = ["drivers/x.c", "include/linux/y.h", "arch/x86/include/asm/z.h"]
_PIECES = st.sampled_from([
    "int", "static", "void", "return", "if", "while", "sizeof", "struct",
    "f", "g", "h", "probe", "helper", "dev", "x", "n",
    "(", ")", "[", "]", "{", "}", ";", ",", "=", "+", "->", "*", "&&",
    "0", "42", "0x1f", '"str"', '"a`b"', "'c'", '"tag:f.c:3"',
    "`", "@", "$", " ", "\t", "\r", "\f", "  ",
])
_TEMPLATES = st.sampled_from([
    "int f(int a) { g(a); g(a); return h(a); }",
    "static void probe(void) { if (x) { helper(x); } { helper(); } }",
    "int g(void) { int (*p)(int) = f; return p(1) + f(2); }",
    "int arr[3] = { 1, 2, 3 };",
    "void nested(void) { { { f(g(h(1))); } } }",
    'const char *s = "x" "y";',
    "int decl(int dev);",
    "} int stray_close;",
    "int open_paren(",
    "`\"define:drivers/x.c:4\"",
])
_MARKERS = st.builds(lambda line, path: f'# {line} "{path}"',
                     st.integers(min_value=1, max_value=60),
                     st.sampled_from(_FILES))
_LINES = st.one_of(
    st.lists(_PIECES, max_size=10).map(" ".join),
    st.lists(_PIECES, max_size=10).map("".join),
    _TEMPLATES,
    _MARKERS,
    st.just(""),
    st.just("#"),
    st.just("# not a marker"),
)
_UNITS = st.lists(_LINES, max_size=20).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(_UNITS)
def test_generated_units_agree(i_text):
    assert_front_ends_agree(i_text)


@settings(max_examples=100, deadline=None)
@given(st.lists(_UNITS, min_size=2, max_size=4))
def test_repeated_lines_across_units_agree(units):
    # The line memo is shared across units: lex each unit twice, in
    # order, so later units hit lines memoized by earlier ones.
    for i_text in units + units:
        assert_front_ends_agree(i_text)


@pytest.mark.parametrize("i_text", [
    "",
    "\n\n",
    "\r\n\f\n",
    '# 7 "f.c"\nint x; `"tag"\n',
    '# 3 "a.h"\nint f( {\n# 9 "b.c"\n}\n',
    "int a[3) ;\n",
    "int f(void) { return 1; } }\n",
    "int f(void)\n{\n\tg(\n1\n)\n;\n}\n",
])
def test_hand_picked_units_agree(i_text):
    assert_front_ends_agree(i_text)


# -- every unit of a generated evaluation window -----------------------------------

@pytest.fixture(scope="module")
def window_units():
    """(path, .i text) of every unit a generated window lexes in
    ``compile_object`` (unmutated files), and of every ``.i`` text it
    preprocesses (mutated files, whose stray characters fail)."""
    from repro.evalsuite.runner import EvaluationSession
    from repro.workload.corpus import CorpusSpec, build_corpus

    corpus = build_corpus(CorpusSpec(seed="cc-frontend-window",
                                     history_commits=120,
                                     eval_commits=90,
                                     regular_developers=8))
    lexed: dict[tuple[str, str], None] = {}
    preprocessed: dict[tuple[str, str], None] = {}
    lex = compiler_module.lex_translation_unit
    preprocess = Compiler.preprocess

    def capture_lex(i_text, *, main_file="<unit>"):
        lexed[(main_file, i_text)] = None
        return lex(i_text, main_file=main_file)

    def capture_preprocess(self, path):
        result = preprocess(self, path)
        preprocessed[(path, result.text)] = None
        return result

    with mock.patch.object(compiler_module, "lex_translation_unit",
                           capture_lex), \
            mock.patch.object(Compiler, "preprocess", capture_preprocess):
        EvaluationSession(corpus).run()
    return list(lexed), list(preprocessed)


def test_window_units_agree(window_units):
    lexed, preprocessed = window_units
    assert len(lexed) > 20
    for path, i_text in lexed:
        assert_front_ends_agree(i_text, path)


def test_window_preprocessed_units_agree(window_units):
    _, preprocessed = window_units
    outcomes = [_compile(path, text)[0] for path, text in preprocessed]
    assert "ok" in outcomes and "error" in outcomes
    for path, i_text in preprocessed:
        assert_front_ends_agree(i_text, path)
