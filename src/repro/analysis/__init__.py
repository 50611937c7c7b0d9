"""Variability analysis: the §VI related-work tools, reimplemented.

- :mod:`repro.analysis.blocks` — conditional-block extraction with
  presence conditions (the structure SuperC/TypeChef-style parsers
  expose);
- :mod:`repro.analysis.deadblocks` — Undertaker-style dead/undead block
  detection against the Kconfig model.
"""
