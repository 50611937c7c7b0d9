"""Kconfig substrate: the kernel's configuration language and solvers.

Implements the subset of Kconfig the paper's machinery depends on:

- ``config`` entries with ``bool``/``tristate``/``int``/``string`` types,
  prompts, ``depends on`` expressions, ``select``, and ``default``;
- ``choice`` groups — the reason ``allyesconfig`` *cannot* set every
  symbol (Table IV row "variable not set by allyesconfig");
- ``source`` inclusion of per-subsystem Kconfig files;
- the three make targets JMake uses (§II-B): ``allyesconfig``,
  ``allmodconfig``, and named defconfigs from ``arch/*/configs``;
- ``.config`` serialization and the ``autoconf.h`` macro set the build
  injects into every compilation.
"""
