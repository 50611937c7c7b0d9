"""The compiler: preprocess + front-end validation + fake object output.

:class:`Compiler` binds one :class:`~repro.cc.toolchain.Architecture` to a
file provider and a configuration macro set, and offers the two
operations the kernel Makefile exposes to JMake (§II-A):

- :meth:`Compiler.preprocess` — ``make file.i``;
- :meth:`Compiler.compile_object` — ``make file.o``.

A unit containing stray characters (mutations) preprocesses fine but
fails ``compile_object`` with gcc-shaped diagnostics. Per the paper's
observation about gcc 4.8 error reporting, a stray character that came
from a macro *body* is reported at the macro *use* site — the position
the line markers attribute, which is exactly why JMake gave up on
error-message scraping and greps ``.i`` files instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.lexer import LexResult, lex_translation_unit
from repro.cc.parser import validate_unit
from repro.cc.toolchain import Architecture
from repro.cpp.lexer import TokenKind
from repro.cpp.macro import MacroSeed
from repro.cpp.preprocessor import FileProvider, PreprocessResult, Preprocessor
from repro.errors import CompileError, PreprocessorError


@dataclass(frozen=True)
class Diagnostic:
    """One compiler error message."""

    file: str
    line: int
    message: str

    def render(self) -> str:
        """gcc-style ``file:line: error: message`` formatting."""
        return f"{self.file}:{self.line}: error: {self.message}"


@dataclass
class ObjectFile:
    """The fake ``.o``: enough structure for tests and benchmarks.

    ``strings`` is the read-only data section: every string literal of
    the unit lands here, which is what makes "check that all of the
    unique tokens are found in the compiled image" (§III, the paper's
    basic idea) a real operation on linked images.
    """

    source: str
    architecture: str
    symbols: list[str] = field(default_factory=list)
    token_count: int = 0
    strings: list[str] = field(default_factory=list)
    #: function names called but not defined in this unit
    references: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        """A deterministic stand-in for object size."""
        return 64 + 16 * self.token_count + \
            sum(len(s) for s in self.strings)


class Compiler:
    """One toolchain invocation context."""

    def __init__(self, architecture: Architecture, provider: FileProvider,
                 config_macros: dict[str, str] | None = None) -> None:
        self.architecture = architecture
        self._provider = provider
        self._config_macros = dict(config_macros or {})
        self._seed: MacroSeed | None = None

    @classmethod
    def for_environment(cls, architecture: Architecture,
                        provider: FileProvider,
                        seed: MacroSeed) -> "Compiler":
        """A compiler whose predefined macros are an already-built seed
        (the architecture predefines merged with the config macros)."""
        compiler = cls(architecture, provider)
        compiler._seed = seed
        return compiler

    def _macro_seed(self) -> MacroSeed:
        if self._seed is None:
            predefined = self.architecture.predefines()
            predefined.update(self._config_macros)
            self._seed = MacroSeed(predefined)
        return self._seed

    def preprocess(self, path: str) -> PreprocessResult:
        """``make file.i``: may fail on missing headers or bad directives."""
        preprocessor = Preprocessor(
            self._provider,
            include_paths=self.architecture.include_roots,
            predefined=self._macro_seed(),
        )
        return preprocessor.preprocess(path)

    def lex(self, path: str) -> LexResult:
        """Preprocess then lex; the token stream with positions."""
        result = self.preprocess(path)
        return lex_translation_unit(result.text, main_file=path)

    def compile_object(self, path: str,
                       preprocessed: PreprocessResult | None = None
                       ) -> ObjectFile:
        """``make file.o``: raises :class:`CompileError` on any diagnostic.

        ``preprocessed`` lets a caller that already holds the unit's
        ``.i`` result (e.g. the build cache) skip re-preprocessing; it
        must come from this compiler's exact environment.
        """
        try:
            if preprocessed is None:
                preprocessed = self.preprocess(path)
        except PreprocessorError as error:
            raise CompileError(str(error), [Diagnostic(
                file=error.file or path, line=error.line or 0,
                message=str(error))]) from error
        lexed = lex_translation_unit(preprocessed.text, main_file=path)

        diagnostics = [
            Diagnostic(file=stray.file, line=stray.line,
                       message=f"stray {stray.token.text!r} in program")
            for stray in lexed.stray_characters
        ]
        if diagnostics:
            raise CompileError(
                f"{path}: {len(diagnostics)} stray-character error(s)",
                diagnostics)

        outcome = validate_unit(lexed)
        if not outcome.ok:
            diagnostics = [Diagnostic(file=issue.file, line=issue.line,
                                      message=issue.message)
                           for issue in outcome.issues]
            raise CompileError(f"{path}: syntax errors", diagnostics)

        string = TokenKind.STRING
        strings = [token.text[1:-1] for token in lexed.flat
                   if token.kind is string]
        return ObjectFile(
            source=path,
            architecture=self.architecture.name,
            symbols=outcome.symbols,
            token_count=len(lexed.flat),
            strings=strings,
            references=outcome.external_calls,
        )
