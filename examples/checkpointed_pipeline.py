"""Persistence layer: checkpoint mid-stream, resume, serve from disk.

A two-hour network monitor again (see sharded_pipeline.py), but this time
the process "crashes" halfway through ingestion:

1. ingest hour1 fully and half of hour2, checkpoint into a time-bucketed
   SummaryStore (the checkpoint is one more artifact, stored like the
   sketches), drop the summarizer (the crash);
2. reopen the store in a "new process", restore from the checkpoint and
   finish the stream — the resulting summary is **bit-identical** to an
   uninterrupted run — then remove the consumed checkpoint;
3. publish the per-hour sketches into the same store (one artifact per
   collector), roll the minute buckets up to one hour bucket (an exact
   merge), and answer aggregate queries straight from disk with
   QueryEngine.from_store — identical estimates before and after rollup.

Run:  python examples/checkpointed_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AggregationSpec,
    QueryEngine,
    ShardedSummarizer,
    SummaryStore,
)
from repro.ranks import KeyHasher

N_FLOWS = 4_000
EVENTS_PER_HOUR = 40_000
K = 400
HOURS = ["hour1", "hour2"]
BUCKET = "20260728T1201"


def synth_hour(rng: np.random.Generator, churn: float):
    flows = rng.integers(0, N_FLOWS, EVENTS_PER_HOUR).astype(np.int64)
    alive = rng.random(N_FLOWS) >= churn
    sizes = rng.pareto(1.2, EVENTS_PER_HOUR) * 40.0 + 40.0
    return flows, np.where(alive[flows], sizes, 0.0)


def fresh_summarizer() -> ShardedSummarizer:
    return ShardedSummarizer(k=K, assignments=HOURS, hasher=KeyHasher(42))


def feed(engine, assignment, flows, sizes, lo, hi, batch=4096):
    for start in range(lo, hi, batch):
        stop = min(start + batch, hi)
        engine.ingest(assignment, flows[start:stop], sizes[start:stop])


def main() -> None:
    rng = np.random.default_rng(11)
    hours = {"hour1": synth_hour(rng, 0.10), "hour2": synth_hour(rng, 0.25)}

    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir) / "store"

        # --- baseline: one uninterrupted run -----------------------------
        baseline = fresh_summarizer()
        for name, (flows, sizes) in hours.items():
            feed(baseline, name, flows, sizes, 0, EVENTS_PER_HOUR)

        # --- interrupted run: crash halfway through hour2 ----------------
        engine = fresh_summarizer()
        feed(engine, "hour1", *hours["hour1"], 0, EVENTS_PER_HOUR)
        feed(engine, "hour2", *hours["hour2"], 0, EVENTS_PER_HOUR // 2)
        entry = SummaryStore(root).write(
            "flows", BUCKET, engine.checkpoint_state(), part="ingest"
        )
        print(f"checkpointed {engine!r}")
        print(f"  -> {entry.namespace}/{entry.bucket}/{entry.part} "
              f"({entry.kind}, {entry.nbytes:,} bytes)")
        del engine  # the crash

        store = SummaryStore(root, create=False)  # the new process
        resumed = ShardedSummarizer.from_checkpoint(
            store.read("flows", BUCKET, "ingest")
        )
        feed(resumed, "hour2", *hours["hour2"], EVENTS_PER_HOUR // 2,
             EVENTS_PER_HOUR)
        identical = resumed.summary().equals(baseline.summary())
        print(f"resumed summary bit-identical to uninterrupted run: "
              f"{identical}")
        store.remove("flows", BUCKET, "ingest")  # consumed

        # --- publish to the store, roll up, query ------------------------
        # Each collector publishes its bucket's sketches as one artifact;
        # here one artifact carries both hours for minute 12:01.
        store.write("flows", BUCKET, resumed.sketch_bundle())
        spec_rows = [
            ("hour1 total", AggregationSpec("single", ("hour1",))),
            ("max(h1,h2)", AggregationSpec("max", tuple(HOURS))),
            ("L1 change", AggregationSpec("l1", tuple(HOURS))),
        ]
        before = {
            label: QueryEngine.from_store(store, "flows").estimate(spec)
            for label, spec in spec_rows
        }
        store.compact("flows", to="hour")
        engine_after = QueryEngine.from_store(store, "flows")
        print("\nstore contents after minute->hour rollup:")
        print(store.ls())
        print("\naggregate            from store     rollup identical")
        for label, spec in spec_rows:
            after = engine_after.estimate(spec)
            print(f"{label:<14} {after:14.0f} {after == before[label]!r:>12}")


if __name__ == "__main__":
    main()
