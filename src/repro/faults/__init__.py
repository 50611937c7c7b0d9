"""Deterministic fault injection for the JMake pipeline (dependability).

The paper's thesis is that a janitor must be able to *trust* JMake's
verdict (§III-D); this package provides the machinery to prove the
pipeline earns that trust when the substrate misbehaves:

- :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultSpec`, a
  seedable, declarative description of which faults fire where;
- :mod:`repro.faults.inject` — :class:`FaultInjector`, the hook the
  build system and cache consult at every step boundary, plus the
  structured :class:`FaultReport` records a run emits;
- :mod:`repro.faults.resilience` — :class:`RetryPolicy` (bounded,
  sim-clock-charged exponential backoff) and :class:`Quarantine` (the
  per-architecture circuit breaker behind ``PARTIAL:<arch>`` verdicts);
- :mod:`repro.faults.chaos` — the process-level chaos harness: seeded
  crash points (kill a run at a chosen journal offset) backing the
  kill/resume differential suites.

Every decision is a pure function of (plan seed, commit scope, step
identity, attempt number), so an injected run is exactly reproducible
across ``--jobs`` values, cache on/off, and observability on/off.
Process-level kinds (``worker_crash``, ``worker_hang``,
``torn_journal_write``) extend the same determinism to kill/restart
cycles: they are keyed by (worker slot, pickup sequence) or (journal,
append sequence), never by wall-clock time.
"""
