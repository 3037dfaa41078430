"""Multicore pipeline: ingest -> parallel compact -> parallel serve_many.

The paper's mergeability guarantee lets the coarse-grained stages run on
a stdlib process pool (`repro.engine.parallel` builds one from a spec
such as "process:2", or takes yours) without changing a single output
bit:

1. **ingest** — two collector summarizers (one per namespace) feed
   unaggregated (flow, bytes/packets) events through `ingest_multi`
   (one shared key batch, two weight columns); a summarizer folds its
   tables inline, so this stage takes no executor;
2. **compact** — each namespace's minute buckets roll up to hour buckets
   concurrently (`SummaryStore.compact(..., executor=...)`), with the
   manifest mutation staying in the parent;
3. **serve** — `QueryEngine.serve_many` answers a query batch per
   namespace concurrently, each worker sharing one decoded summary per
   namespace across its whole batch.

Stages 2 and 3 are also run serially to show the results are identical —
executors change where the work runs, never what it produces.

Run:  python examples/parallel_pipeline.py
"""

from __future__ import annotations

import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import (
    AggregationSpec,
    Query,
    QueryEngine,
    ShardedSummarizer,
    SummaryStore,
    available_workers,
)
from repro.ranks import KeyHasher

N_FLOWS = 4_000
EVENTS_PER_BUCKET = 20_000
K = 400
MINUTE_BUCKETS = 4
NAMESPACES = ("edge", "core")


def synth_batch(rng: np.random.Generator):
    """One collector batch: flows with bytes and packet-count weights."""
    flows = rng.integers(0, N_FLOWS, EVENTS_PER_BUCKET)
    sizes = rng.pareto(1.2, EVENTS_PER_BUCKET) * 50.0 + 40.0
    packets = np.ceil(sizes / 1500.0)
    return flows.astype(np.int64), sizes, packets


def build_store(root: str) -> SummaryStore:
    """Ingest MINUTE_BUCKETS minutes per namespace into a fresh store."""
    store = SummaryStore(root)
    rng = np.random.default_rng(42)
    for offset, namespace in enumerate(NAMESPACES):
        for minute in range(MINUTE_BUCKETS):
            engine = ShardedSummarizer(
                k=K, assignments=["bytes", "packets"], hasher=KeyHasher(7),
            )
            flows, sizes, packets = synth_batch(rng)
            # keys must stay disjoint across buckets for exact rollups
            flows = flows + (offset * MINUTE_BUCKETS + minute) * N_FLOWS
            engine.ingest_multi(flows, {"bytes": sizes, "packets": packets})
            store.write(
                namespace, f"20260729T09{minute:02d}", engine.sketch_bundle()
            )
    return store


def main() -> None:
    workers = max(2, min(4, available_workers()))
    # caller-owned: one pool serves both stages and is ours to shut down
    executor = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )
    queries = [
        Query(AggregationSpec("single", ("bytes",)), label="total bytes"),
        Query(AggregationSpec("single", ("packets",)), label="total packets"),
        Query(AggregationSpec("max", ("bytes", "packets")), label="max(b,p)"),
    ]
    requests = {namespace: queries for namespace in NAMESPACES}

    with tempfile.TemporaryDirectory() as serial_root, \
            tempfile.TemporaryDirectory() as parallel_root:
        print(f"using ProcessPoolExecutor(max_workers={workers}) "
              f"on {available_workers()} usable core(s)\n")

        serial_store = build_store(serial_root)
        parallel_store = build_store(parallel_root)

        serial_store.compact("edge", to="hour")
        serial_store.compact("core", to="hour")
        for namespace in NAMESPACES:
            written = parallel_store.compact(
                namespace, to="hour", executor=executor
            )
            for entry in written:
                print(f"compacted {entry.namespace}: "
                      f"{MINUTE_BUCKETS} minute buckets -> {entry.bucket} "
                      f"({entry.nbytes:,} bytes)")

        serial_answers = QueryEngine.serve_many(serial_store, requests)
        parallel_answers = QueryEngine.serve_many(
            parallel_store, requests, executor=executor
        )
        executor.shutdown()

        print(f"\n{'namespace':<10} {'query':<14} {'estimate':>14}  matches serial")
        for namespace in NAMESPACES:
            for serial_result, parallel_result in zip(
                serial_answers[namespace], parallel_answers[namespace]
            ):
                same = serial_result.estimate == parallel_result.estimate
                print(f"{namespace:<10} {parallel_result.label:<14} "
                      f"{parallel_result.estimate:14.0f}  {same}")
        assert all(
            serial_result.estimate == parallel_result.estimate
            for namespace in NAMESPACES
            for serial_result, parallel_result in zip(
                serial_answers[namespace], parallel_answers[namespace]
            )
        )
        print("\nparallel pipeline output is identical to the serial one.")


if __name__ == "__main__":
    main()
