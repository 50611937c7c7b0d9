"""JMake: the paper's primary contribution.

Pipeline (paper §III):

1. :mod:`repro.core.changes` — extract changed lines per file from a
   patch, with the pure-removal rule (§III-B last paragraph);
2. :mod:`repro.core.sourcemap` — classify changed lines as comment /
   macro-definition / ordinary code and locate conditional boundaries;
3. :mod:`repro.core.mutation` — place the minimal set of mutation
   tokens (§III-A/B) and produce the mutated file text;
4. :mod:`repro.core.archselect` — guess candidate architectures and
   configurations (§III-C);
5. :mod:`repro.core.cfile` / :mod:`repro.core.hfile` — drive the build
   system over candidates, grep ``.i`` output for tokens, certify with
   an unmutated ``.o`` build (§III-D/E);
6. :mod:`repro.core.report` — structured verdicts;
7. :mod:`repro.core.jmake` — :class:`CheckSession`, the engine behind
   the :mod:`repro.api` facade.
"""
