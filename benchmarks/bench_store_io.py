"""STORE-IO — codec serialize/deserialize and compaction throughput.

Shape: a dispersed summary over a 100k-key dataset (4 assignments,
k = 40k per assignment) round-trips through the store codec, against a
``pickle`` baseline.  The codec's zero-copy decode — numpy arrays come
back as ``frombuffer`` views, so loading costs one JSON-header parse
instead of a memcpy per matrix — is gated at **≥ 5x faster** than
``pickle.loads``.  Encode throughput is reported (comparable to pickle:
both are dominated by writing the raw buffers).

The second half measures merge-based compaction on a store of eight
minute-bucket shard artifacts (~100k sampled keys total): minute→hour
rollup throughput in artifacts/s and sampled keys/s, with the exactness
property (identical QueryEngine estimates before and after) asserted
inline.

Run under pytest (`pytest benchmarks/bench_store_io.py`) or standalone
(`PYTHONPATH=src python benchmarks/bench_store_io.py`).
"""

from __future__ import annotations

import pickle
import tempfile
import time

import numpy as np

from emit import write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import QueryEngine
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.store.codec import decode, encode
from repro.store.store import SummaryStore

N_KEYS = 100_000
K = 40_000
ASSIGNMENTS = ("h1", "h2", "h3", "h4")
SEED = 31

N_BUCKETS = 8
EVENTS_PER_BUCKET = 25_000
BUCKET_K = 2_000


def _make_summary():
    rng = np.random.default_rng(SEED)
    weights = rng.pareto(1.4, (N_KEYS, len(ASSIGNMENTS))) * 10.0 + 0.05
    weights[rng.random(weights.shape) < 0.1] = 0.0
    family = get_rank_family("ipps")
    draw = get_rank_method("shared_seed").draw(family, weights, rng)
    return build_bottomk_summary(
        weights, draw, K, list(ASSIGNMENTS), family, mode="dispersed"
    )


def _time(fn, repeats: int = 5) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict:
    summary = _make_summary()

    blob = encode(summary)
    pickled = pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
    encode_seconds = _time(lambda: encode(summary))
    pickle_dump_seconds = _time(
        lambda: pickle.dumps(summary, protocol=pickle.HIGHEST_PROTOCOL)
    )
    decode_seconds = _time(lambda: decode(blob))
    pickle_load_seconds = _time(lambda: pickle.loads(pickled))
    assert decode(blob).equals(summary)

    # -- compaction: 8 key-disjoint minute buckets -> 1 hour bucket ---------
    rng = np.random.default_rng(SEED + 1)
    spec = AggregationSpec("max", ASSIGNMENTS[:2])
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        sampled_keys = 0
        for index in range(N_BUCKETS):
            engine = ShardedSummarizer(
                k=BUCKET_K, assignments=list(ASSIGNMENTS), hasher=KeyHasher(7),
            )
            keys = np.arange(
                index * EVENTS_PER_BUCKET, (index + 1) * EVENTS_PER_BUCKET
            )
            for name in ASSIGNMENTS:
                engine.ingest(
                    name, keys, rng.pareto(1.3, len(keys)) + 0.05
                )
            bundle = engine.sketch_bundle()
            sampled_keys += sum(len(sk) for sk in bundle.sketches.values())
            store.write("bench", f"20260728T12{index:02d}", bundle)
        before = QueryEngine.from_store(store, "bench").estimate(spec)
        start = time.perf_counter()
        written = store.compact("bench", to="hour")
        compact_seconds = time.perf_counter() - start
        after = QueryEngine.from_store(store, "bench").estimate(spec)
        assert len(written) == 1
        identical = after == before

    return {
        "n_keys": N_KEYS,
        "n_union": summary.n_union,
        "blob_bytes": len(blob),
        "pickle_bytes": len(pickled),
        "encode_seconds": encode_seconds,
        "pickle_dump_seconds": pickle_dump_seconds,
        "decode_seconds": decode_seconds,
        "pickle_load_seconds": pickle_load_seconds,
        "decode_speedup": pickle_load_seconds / decode_seconds,
        "n_buckets": N_BUCKETS,
        "sampled_keys": sampled_keys,
        "compact_seconds": compact_seconds,
        "compact_identical": identical,
    }


def render(result: dict) -> str:
    mb = result["blob_bytes"] / 1e6
    lines = [
        f"STORE-IO — dispersed summary of a {result['n_keys']:,}-key "
        f"dataset ({result['n_union']:,} union keys, {mb:.1f} MB encoded; "
        f"pickle: {result['pickle_bytes'] / 1e6:.1f} MB)",
        f"  serialize   : codec {result['encode_seconds'] * 1e3:8.2f} ms   "
        f"pickle {result['pickle_dump_seconds'] * 1e3:8.2f} ms",
        f"  deserialize : codec {result['decode_seconds'] * 1e3:8.2f} ms   "
        f"pickle {result['pickle_load_seconds'] * 1e3:8.2f} ms   "
        f"(zero-copy speedup {result['decode_speedup']:.1f}x)",
        f"  compaction  : {result['n_buckets']} minute artifacts "
        f"({result['sampled_keys']:,} sampled keys) -> 1 hour artifact in "
        f"{result['compact_seconds'] * 1e3:.0f} ms  "
        f"({result['n_buckets'] / result['compact_seconds']:.1f} "
        f"artifacts/s, "
        f"{result['sampled_keys'] / result['compact_seconds']:,.0f} keys/s)",
        f"  rollup estimates identical: {result['compact_identical']}",
    ]
    return "\n".join(lines)


def emit_json(result: dict) -> None:
    write_bench_json(
        "store_io",
        config={"n_keys": result["n_keys"], "k": K,
                "n_assignments": len(ASSIGNMENTS),
                "n_buckets": result["n_buckets"], "seed": SEED},
        metrics={
            "encode_seconds": result["encode_seconds"],
            "decode_seconds": result["decode_seconds"],
            "pickle_dump_seconds": result["pickle_dump_seconds"],
            "pickle_load_seconds": result["pickle_load_seconds"],
            "decode_speedup": result["decode_speedup"],
            "decode_ops_per_sec": 1.0 / result["decode_seconds"],
            "blob_bytes": result["blob_bytes"],
            "compact_seconds": result["compact_seconds"],
            "compact_ops_per_sec": (
                result["n_buckets"] / result["compact_seconds"]
            ),
            "compact_identical": result["compact_identical"],
        },
    )


def test_store_io(benchmark, emit):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render(result), name="STORE_io")
    emit_json(result)
    assert result["compact_identical"], (
        "compacted store diverged from the raw store"
    )
    assert result["decode_speedup"] >= 5.0, (
        f"zero-copy decode only {result['decode_speedup']:.1f}x faster "
        "than pickle.loads (need >= 5x)"
    )


if __name__ == "__main__":
    result = measure()
    print(render(result))
    emit_json(result)
