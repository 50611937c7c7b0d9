"""Compiler front-end substrate.

Provides what ``gcc`` (and its cross variants) contributes to JMake:

- a C lexer over preprocessed ``.i`` text that *rejects invalid
  characters* — this is why a mutated file can produce a ``.i`` file but
  never a ``.o`` file (paper §III-A);
- lightweight syntax validation (balanced delimiters, declaration shape)
  standing in for the rest of the front end;
- per-architecture toolchains that differ in builtin macros and include
  roots, so a file needing ``asm/`` headers of one architecture fails to
  compile for another (§III-C);
- the paper's cross-compiler availability matrix (24 of 34 ``make.cross``
  architectures work).
"""
