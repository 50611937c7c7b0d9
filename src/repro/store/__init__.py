"""Fleet mode's persistent verdict store.

Public surface re-exported through :mod:`repro.api` — ``open_store``,
``query_verdicts``, ``janitor_report`` and the typed filter/result
dataclasses. The journal (:mod:`repro.journal`) is the store's WAL;
:mod:`repro.store.ingest` documents the transaction boundary.
"""
