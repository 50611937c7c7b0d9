"""Evaluation harness: run JMake over a corpus and regenerate every
table and figure of the paper's §V.

- :mod:`repro.evalsuite.stats` — CDFs and aggregate helpers;
- :mod:`repro.evalsuite.runner` — the per-commit driver producing
  :class:`EvaluationResult`;
- :mod:`repro.evalsuite.tables` — Table I–IV renderers;
- :mod:`repro.evalsuite.figures` — Figure 4a/4b/4c/5/6 series;
- :mod:`repro.evalsuite.experiments` — the experiment registry mapping
  DESIGN.md experiment ids to callables.
"""
