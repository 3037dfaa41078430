"""The library SUT: a child interpreter that runs a script's closed loop.

``child.py ROOT K ASSIGNMENT...`` — see ``LibraryAdapter`` for the line
protocol.  Everything the script asks for is a direct library call; a
fresh query pays ``summary()`` (the deferred finalization) and the
engine build, as the first query after new data does in the service.
"""

from __future__ import annotations

import gc
import json
import pickle
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    root, k, names = Path(argv[0]), int(argv[1]), argv[2:]

    from repro.core.aggregates import AggregationSpec
    from repro.core.predicates import key_in
    from repro.engine.queries import QueryEngine
    from repro.engine.sharded import ShardedSummarizer
    from repro.store.store import SummaryStore

    from benchmarks.perf.spec import NAMESPACE

    summarizer = ShardedSummarizer(k=k, assignments=names)

    def say(word: str) -> None:
        sys.stdout.write(word + "\n")
        sys.stdout.flush()

    def hear(word: str) -> None:
        line = sys.stdin.readline().strip()
        if line != word:
            raise SystemExit(f"expected {word!r}, got {line!r}")

    say("ready")
    hear("load")
    with open(root / "script.pickle", "rb") as handle:
        ops = pickle.load(handle)
    gc.collect()
    gc.freeze()
    say("loaded")
    hear("go")

    engine = None
    results = []
    for op in ops:
        estimate = None
        start = time.perf_counter_ns()
        if op.is_ingest:
            summarizer.ingest_multi(op.keys, op.weights)
            engine = None
        else:
            if op.role == "persist":
                store = SummaryStore(root / "store")
                entry = store.write(
                    NAMESPACE, "20240101", summarizer.sketch_bundle()
                )
                answering = QueryEngine.from_bundles([store.load(entry)])
            else:
                if engine is None:
                    engine = QueryEngine(summarizer.summary())
                answering = engine
            estimate = float(answering.estimate(
                AggregationSpec(op.function, tuple(op.assignments)),
                predicate=(
                    None if op.keys is None else key_in(op.keys.tolist())
                ),
            ))
        results.append((start, time.perf_counter_ns(), True, estimate))
    with open(root / "results.json", "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    say("done")
    sys.stdin.readline()  # the harness reads /proc before letting us go
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
