"""Zero-dependency pipeline observability: spans, metrics, exporters.

Three layers, all optional and all no-op-cheap when disabled:

- :mod:`repro.obs.tracer` — hierarchical context-manager spans over the
  simulated *and* the wall clock; :data:`NULL_TRACER` when off;
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and fixed-bucket histograms with the snapshot/merge/delta
  algebra the parallel runner needs; :data:`NULL_METRICS` when off;
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable)
  and a plain-text span-tree renderer;
- :mod:`repro.obs.timeseries` — the periodic snapshotter: bounded ring
  of schema-versioned metric snapshots with monotone sequence numbers
  and percentile summaries;
- :mod:`repro.obs.sinks` — OpenMetrics exposition, append-only JSONL
  with journal-style dedup, and in-process callback sinks;
- :mod:`repro.obs.events` — the typed structured-event log (worker
  crashes, breaker opens, rejections, quarantine trips, ...);
  :data:`NULL_EVENTS` when off;
- :mod:`repro.obs.logcfg` — the ``repro.*`` logger hierarchy behind the
  CLI's ``--log-level``.

Instrumentation reads the simulated clock but never charges it, so
enabling tracing cannot perturb any table or figure.
"""
