#!/usr/bin/env python3
"""Fleet mode: watch a commit stream into a store, then query it.

The paper's closing pitch is JMake as a *service* for kernel janitors:
a daemon that follows the commit stream, checks every new patch, and
keeps an always-on, queryable record of the verdicts. This example runs
that loop end to end against the synthetic corpus:

1. ``watch`` drains the evaluation window into a SQLite verdict store,
   journaling every verdict first (the journal is the store's
   write-ahead log, so a crash between batches loses nothing);
2. ``query_verdicts`` answers typed filters straight from the store —
   no preprocessing, no compilation, no corpus needed;
3. ``janitor_report`` derives the §IV Table-II ranking from the
   stored verdicts when it is asked.

Run:  python examples/fleet_watch.py [--commits 40] [--seed fleet]
"""

import argparse
import tempfile
from pathlib import Path

from repro.api import (
    CorpusSpec,
    JanitorViewCriteria,
    WatchConfig,
    build_corpus,
    janitor_report,
    query_verdicts,
    watch,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--commits", type=int, default=40)
    parser.add_argument("--seed", default="fleet-example")
    args = parser.parse_args()

    corpus = build_corpus(CorpusSpec(
        seed=args.seed,
        history_commits=max(200, args.commits // 2),
        eval_commits=args.commits))

    with tempfile.TemporaryDirectory() as scratch:
        store_path = str(Path(scratch) / "verdicts.sqlite")
        journal_path = str(Path(scratch) / "run.jnl")

        # 1. The daemon: pull, check, journal, ingest -- batch by batch.
        result = watch(corpus, store=store_path, journal=journal_path,
                       config=WatchConfig(batch_size=4, limit=12,
                                          fsync=False))
        print(f"watch drained: {result.commits_seen} commit(s), "
              f"{result.batches} batch(es), "
              f"{result.ingested} verdict(s) ingested")

        # 2. The read surface: typed queries against the stored fleet.
        partial = query_verdicts(store_path, verdict="PARTIAL")
        print(f"quarantined (PARTIAL) verdicts: {len(partial)}")
        for verdict in query_verdicts(store_path, limit=5):
            paths = {row.path for row in verdict.files}
            print(f"  {verdict.commit[:12]} {verdict.verdict} "
                  f"author={verdict.author_email or '-'} "
                  f"files={len(paths)}")

        # 3. The janitor ranking (ascending file_cv: most janitor-like
        #    contributors first), derived from the stored verdicts.
        rows = janitor_report(store_path, JanitorViewCriteria(
            min_patches=1, min_files=1, top_n=5))
        print(f"\njanitor view ({len(rows)} ranked):")
        for row in rows:
            print(f"  {row.email} patches={row.patches} "
                  f"certified={row.certified} partial={row.partial} "
                  f"file_cv={row.file_cv:.3f}")


if __name__ == "__main__":
    main()
