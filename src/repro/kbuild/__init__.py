"""Kbuild substrate: Makefile parsing and build orchestration.

Provides the three Makefile facilities JMake invokes (§II-A, §III-D):

- ``make <arch> allyesconfig`` etc. — configuration creation
  (:meth:`~repro.kbuild.build.BuildSystem.make_config`);
- ``make file.i`` — preprocessing, batched over many files per
  invocation (:meth:`~repro.kbuild.build.BuildSystem.make_i`);
- ``make file.o`` — object compilation
  (:meth:`~repro.kbuild.build.BuildSystem.make_o`).

Running times are charged to a :class:`~repro.util.simclock.SimClock`
via the cost model in :mod:`repro.kbuild.timing`, reproducing the
distributional shape of the paper's Figures 4–6.
"""
