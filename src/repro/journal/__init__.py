"""Crash-safe durability: the write-ahead verdict journal.

Three layers, bottom-up:

- :mod:`repro.journal.wal` — :class:`Journal`, the append-only,
  fsync-disciplined frame log (length+CRC32 framing, torn-tail
  truncation on replay, typed refusal of interior corruption);
- :mod:`repro.journal.ledger` — :class:`VerdictLedger`, the dedup-keyed
  ``commit -> verdict`` map over the WAL, with periodic compacted
  checkpoints and the exactly-once :meth:`VerdictLedger.emit` the
  supervisor's requeue path relies on;
- :mod:`repro.journal.records` — the PatchRecord <-> JSON codec whose
  round-trip exactness makes a killed-and-resumed evaluation run
  byte-identical to an uninterrupted one.

Entry points: ``EvaluationSession.run(journal=..., resume=...)`` and
``jmake evaluate --journal ... --resume``.
"""
