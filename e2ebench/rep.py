"""One benchmark repetition, or one oracle shard, in a fresh process.

``run.py`` starts this script once per repetition so that the
process-wide caches (the ``repro.cpp.prepared`` prepared-file and
header-replay LRUs, the lexer/macro/evaluator ``lru_cache``s) start
empty and no repetition inherits another's warm state. The result is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True,
                        help="which of the seed's corpora to use")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="record layer spans around the timed call")
    parser.add_argument("--oracle-shard", metavar="I/N",
                        help="compute reference verdicts for shard I of N")
    args = parser.parse_args()

    if args.oracle_shard:
        import oracle
        index, count = (int(part) for part in
                        args.oracle_shard.split("/"))
        result = oracle.compute_shard(args.seed, args.part, index, count)
    else:
        import workloads
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        repetition = workloads.Repetition(args.workload, args.seed,
                                          args.part, args.workdir,
                                          tracer=tracer)
        result = repetition.run()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(repetition.cpu_util)
            tracer.write_spans(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
