"""Synthetic evaluation corpus: tree + commit history + author roster.

The paper evaluates JMake on the 12,946 commits between Linux v4.3 and
v4.4, plus the v3.0..v4.4 history for janitor identification (§IV-V).
This package generates an equivalent population over the synthetic tree:

- :mod:`repro.workload.anatomy` — finds safely editable points in
  generated source text (code statements, macro bodies, comments,
  hazard blocks);
- :mod:`repro.workload.personas` — author behaviour models (janitors,
  maintainers, regular developers) with Table III change mixtures;
- :mod:`repro.workload.commits` — the commit-stream generator;
- :mod:`repro.workload.corpus` — the bundle the evaluation harness
  consumes, with per-commit ground truth.
"""
