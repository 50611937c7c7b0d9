"""C preprocessor substrate.

Implements the subset of ISO C preprocessing the Linux kernel build relies
on for ``make file.i``:

- comment stripping and backslash-newline splicing (:mod:`repro.cpp.lexer`)
- object- and function-like macros with argument substitution,
  stringification, and token pasting (:mod:`repro.cpp.macro`)
- full ``#if`` constant-expression evaluation with ``defined``
  (:mod:`repro.cpp.evaluator`)
- the driver producing ``.i`` text with gcc-style ``# line "file"``
  markers (:mod:`repro.cpp.preprocessor`)
- the substrate fast path: content-keyed prepared files, header-level
  replay, and the global switch gating every reuse level
  (:mod:`repro.cpp.prepared`)

The mutation mechanics of JMake (§III-A of the paper) are preprocessor
semantics: a mutation token inside a macro body must surface at *use*
sites; a token inside a string literal must survive expansion verbatim;
a token under an untaken conditional branch must vanish. This package
implements those semantics for real rather than approximating them.
"""
