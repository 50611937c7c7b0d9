"""Synthetic kernel tree substrate.

The paper's experiments run over the real Linux v4.3→v4.4 tree. Offline,
we generate a structurally equivalent tree instead (see DESIGN.md §2):

- :mod:`repro.kernel.maintainers` — the MAINTAINERS database JMake's
  janitor analysis reads (§IV);
- :mod:`repro.kernel.layout` — declarative specs for architectures,
  subsystems, and configurability-hazard rates;
- :mod:`repro.kernel.generator` — the deterministic generator producing
  the tree files plus ground-truth metadata for the workload generator
  (JMake itself never reads the metadata).
"""
