"""Janitor identification (paper §IV).

- :mod:`repro.janitors.activity` — per-developer activity metrics from
  commit history and MAINTAINERS (patch count, subsystems, lists,
  maintainer share, per-file coefficient of variation);
- :mod:`repro.janitors.identify` — Table I thresholds and the cv
  ranking that produces Table II.
"""
