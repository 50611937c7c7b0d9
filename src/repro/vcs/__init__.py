"""Git-like version-control substrate.

JMake consumes the output of ``git log -w --diff-filter=M --no-merges``
and checks out per-commit snapshots with ``git reset --hard`` /
``git clean -dfx``. This package provides the equivalent machinery over an
in-memory content-addressed store:

- :mod:`repro.vcs.diff` — unified-diff generation, parsing, application.
- :mod:`repro.vcs.objects` — blobs, trees, commits.
- :mod:`repro.vcs.repository` — history, checkout, log filtering.
"""
