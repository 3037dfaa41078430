"""ENGINE — batch-ingestion throughput vs the per-item Python loop.

Shape: `BottomKStreamSampler.process_batch` (vectorized hashing + ranking,
argpartition heap fold) ingests a 1M-item aggregated stream at least 5x
faster than the per-item `process` loop, producing the identical sketch.
Also reports the end-to-end `ShardedSummarizer` rate on an unaggregated
stream.

Run under pytest (`pytest benchmarks/bench_engine_throughput.py`) or
standalone (`PYTHONPATH=src python benchmarks/bench_engine_throughput.py`).
"""

from __future__ import annotations

import time

import numpy as np

from emit import write_bench_json
from repro.engine import ShardedSummarizer
from repro.ranks import IppsRanks, KeyHasher
from repro.sampling import BottomKStreamSampler

N_ITEMS = 1_000_000
K = 256
BATCH = 131_072
SALT = 11


def _make_stream(n: int = N_ITEMS, seed: int = 7):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)  # unique, shuffled
    weights = rng.pareto(1.5, n) + 0.05
    return keys, weights


def _run_item_loop(keys, weights, k: int = K):
    sampler = BottomKStreamSampler(k, IppsRanks(), KeyHasher(SALT))
    for key, weight in zip(keys.tolist(), weights.tolist()):
        sampler.process(key, weight)
    return sampler.sketch()


def _run_batches(keys, weights, k: int = K, batch: int = BATCH):
    sampler = BottomKStreamSampler(k, IppsRanks(), KeyHasher(SALT))
    for lo in range(0, len(keys), batch):
        sampler.process_batch(keys[lo : lo + batch], weights[lo : lo + batch])
    return sampler.sketch()


def _run_sharded(keys, weights, k: int = K, batch: int = BATCH):
    engine = ShardedSummarizer(k, ["stream"], hasher=KeyHasher(SALT))
    for lo in range(0, len(keys), batch):
        engine.ingest("stream", keys[lo : lo + batch], weights[lo : lo + batch])
    return engine.sketches()["stream"]


def measure() -> dict:
    keys, weights = _make_stream()

    start = time.perf_counter()
    item_sketch = _run_item_loop(keys, weights)
    item_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch_sketch = _run_batches(keys, weights)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded_sketch = _run_sharded(keys, weights)
    sharded_seconds = time.perf_counter() - start

    identical = (
        item_sketch.keys.tolist() == batch_sketch.keys.tolist()
        and np.array_equal(item_sketch.ranks, batch_sketch.ranks)
        and item_sketch.threshold == batch_sketch.threshold
        and batch_sketch.keys.tolist() == sharded_sketch.keys.tolist()
        and batch_sketch.threshold == sharded_sketch.threshold
    )
    return {
        "n_items": len(keys),
        "k": K,
        "item_seconds": item_seconds,
        "batch_seconds": batch_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": item_seconds / batch_seconds,
        "identical": identical,
    }


def render(result: dict) -> str:
    lines = [
        f"ENGINE throughput — {result['n_items']:,} aggregated items, "
        f"k={result['k']}",
        f"  per-item loop : {result['item_seconds']:8.3f} s  "
        f"({result['n_items'] / result['item_seconds'] / 1e6:6.2f} M items/s)",
        f"  process_batch : {result['batch_seconds']:8.3f} s  "
        f"({result['n_items'] / result['batch_seconds'] / 1e6:6.2f} M items/s)",
        f"  sharded engine: {result['sharded_seconds']:8.3f} s  "
        f"({result['n_items'] / result['sharded_seconds'] / 1e6:6.2f} M items/s,"
        " unaggregated path)",
        f"  speedup (batch vs item): {result['speedup']:.1f}x",
        f"  sketches identical: {result['identical']}",
    ]
    return "\n".join(lines)


def emit_json(result: dict) -> None:
    write_bench_json(
        "engine_throughput",
        config={"n_items": result["n_items"], "k": result["k"],
                "batch": BATCH, "salt": SALT},
        metrics={
            "item_seconds": result["item_seconds"],
            "batch_seconds": result["batch_seconds"],
            "sharded_seconds": result["sharded_seconds"],
            "item_ops_per_sec": result["n_items"] / result["item_seconds"],
            "batch_ops_per_sec": result["n_items"] / result["batch_seconds"],
            "sharded_ops_per_sec": (
                result["n_items"] / result["sharded_seconds"]
            ),
            "speedup": result["speedup"],
            "identical": result["identical"],
        },
    )


def test_engine_throughput(benchmark, emit):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render(result), name="ENGINE_throughput")
    emit_json(result)
    assert result["identical"], "batch/sharded sketches diverged from item loop"
    assert result["speedup"] >= 5.0, (
        f"batch ingestion only {result['speedup']:.1f}x faster than the "
        "per-item loop (need >= 5x)"
    )


if __name__ == "__main__":
    result = measure()
    print(render(result))
    emit_json(result)
