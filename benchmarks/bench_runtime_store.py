"""RUNTIME-STORE — manifest mutation and persistent-cache throughput.

Shape: the PR-6 runtime tier (WAL-mode ``runtime.sqlite``) against the
legacy persistence strategy it replaced — a whole-``manifest.json``
rewrite per mutation (``atomic_write_bytes`` of every entry, which is
what ``SummaryStore`` did before the runtime tier).

Three measurements:

* **manifest mutations** — ``SummaryStore.write`` of small sketch
  bundles (one transactional row upsert + revision bump each) in
  artifacts/s, next to the simulated JSON baseline's rewrite cost at
  the same manifest sizes.  The JSON baseline's per-mutation cost grows
  linearly with the manifest; the runtime tier's does not — the gate
  only requires the tier to stay within 5x of the baseline at this
  small size (absolute cost is ~1 ms/write either way; the win is
  O(1) scaling, crash atomicity, and lock-file-free concurrency);
* **cache put / hit** — persistent query-result cache throughput in
  ops/s (every probe is one SQLite row lookup + hit-count bump);
* **version reads** — ``SummaryStore.version()`` per-call cost, which
  PR 6 made O(1) (derived from revision counters instead of hashing
  the manifest).

Run under pytest (``pytest benchmarks/bench_runtime_store.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_runtime_store.py
[--smoke]``).  Writes ``BENCH_runtime_store.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from emit import write_bench_json
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.hashing import KeyHasher
from repro.store.codec import atomic_write_bytes
from repro.store.runtime import RuntimeStore
from repro.store.store import SummaryStore

N_MUTATIONS = 400
N_CACHE_OPS = 2_000
N_VERSION_READS = 5_000
SEED = 17


def _tiny_bundle(index: int):
    engine = ShardedSummarizer(k=8, assignments=["h1"], hasher=KeyHasher(SEED))
    keys = np.arange(index * 4, index * 4 + 4)
    engine.ingest("h1", keys, np.full(4, 1.5))
    return engine.sketch_bundle()


def _json_baseline_seconds(root: Path, rows: list[dict]) -> float:
    """Cost of the legacy strategy: full-manifest rewrite per mutation."""
    manifest = root / "manifest-baseline.json"
    entries: list[dict] = []
    start = time.perf_counter()
    for row in rows:
        entries.append(row)
        atomic_write_bytes(
            manifest,
            json.dumps({"version": 1, "entries": entries}).encode("utf-8"),
        )
    return time.perf_counter() - start


def measure(
    n_mutations: int = N_MUTATIONS,
    n_cache_ops: int = N_CACHE_OPS,
    n_version_reads: int = N_VERSION_READS,
) -> dict:
    bundles = [_tiny_bundle(i) for i in range(n_mutations)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store = SummaryStore(root / "store")
        start = time.perf_counter()
        for index, bundle in enumerate(bundles):
            store.write("bench", f"202607{(index % 28) + 1:02d}", bundle)
        sqlite_seconds = time.perf_counter() - start
        rows = [entry.to_json() for entry in store.entries()]
        assert len(rows) == n_mutations

        baseline_seconds = _json_baseline_seconds(root, rows)

        start = time.perf_counter()
        for _ in range(n_version_reads):
            store.version("bench")
        version_seconds = time.perf_counter() - start

        (root / "cache").mkdir()
        runtime = RuntimeStore(root / "cache")
        payload = {"estimate": 1.0 + 1e-9, "estimator": "pps", "n": 3}
        start = time.perf_counter()
        for index in range(n_cache_ops):
            runtime.cache_put(
                f"q{index}", "bench", "r1", payload,
                max_entries=n_cache_ops,
            )
        put_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(n_cache_ops):
            hit = runtime.cache_get(f"q{index}")
        hit_seconds = time.perf_counter() - start
        assert hit == payload  # exact float round-trip through the cache
        runtime.close()

    return {
        "n_mutations": n_mutations,
        "sqlite_seconds": sqlite_seconds,
        "baseline_seconds": baseline_seconds,
        "mutations_per_sec": n_mutations / sqlite_seconds,
        "baseline_mutations_per_sec": n_mutations / baseline_seconds,
        "vs_baseline": baseline_seconds / sqlite_seconds,
        "n_cache_ops": n_cache_ops,
        "cache_puts_per_sec": n_cache_ops / put_seconds,
        "cache_hits_per_sec": n_cache_ops / hit_seconds,
        "n_version_reads": n_version_reads,
        "version_reads_per_sec": n_version_reads / version_seconds,
    }


def render(result: dict) -> str:
    return "\n".join([
        f"RUNTIME-STORE — {result['n_mutations']} manifest mutations "
        f"(transactional rows vs full-JSON rewrite per mutation)",
        f"  runtime tier : {result['mutations_per_sec']:8.0f} mutations/s "
        f"({result['sqlite_seconds'] * 1e3:.0f} ms total, artifacts "
        f"included)",
        f"  json rewrite : {result['baseline_mutations_per_sec']:8.0f} "
        f"mutations/s ({result['baseline_seconds'] * 1e3:.0f} ms total, "
        f"manifest only) -> tier at {result['vs_baseline']:.2f}x baseline",
        f"  query cache  : {result['cache_puts_per_sec']:8.0f} puts/s   "
        f"{result['cache_hits_per_sec']:8.0f} hits/s "
        f"({result['n_cache_ops']} entries)",
        f"  version reads: {result['version_reads_per_sec']:8.0f} reads/s "
        f"(O(1) revision-derived tokens)",
    ])


def emit_json(result: dict) -> None:
    write_bench_json(
        "runtime_store",
        config={
            "n_mutations": result["n_mutations"],
            "n_cache_ops": result["n_cache_ops"],
            "n_version_reads": result["n_version_reads"],
            "seed": SEED,
        },
        metrics={
            key: result[key]
            for key in (
                "sqlite_seconds", "baseline_seconds", "mutations_per_sec",
                "baseline_mutations_per_sec", "vs_baseline",
                "cache_puts_per_sec", "cache_hits_per_sec",
                "version_reads_per_sec",
            )
        },
    )


def check_gates(result: dict) -> list[str]:
    failures = []
    # The bundle writes also encode + fsync artifacts, so allow headroom
    # against the manifest-only baseline at this small manifest size.
    if result["vs_baseline"] < 0.2:
        failures.append(
            f"runtime tier at {result['vs_baseline']:.2f}x the JSON "
            "baseline (need >= 0.2x)"
        )
    if result["cache_hits_per_sec"] < 200:
        failures.append(
            f"cache hits {result['cache_hits_per_sec']:.0f}/s (need >= 200)"
        )
    if result["version_reads_per_sec"] < 10_000:
        failures.append(
            f"version reads {result['version_reads_per_sec']:.0f}/s "
            "(need >= 10k: the token must be O(1))"
        )
    return failures


def test_runtime_store(benchmark, emit):
    result = benchmark.pedantic(
        lambda: measure(n_mutations=120, n_cache_ops=500,
                        n_version_reads=2_000),
        rounds=1, iterations=1,
    )
    emit(render(result), name="RUNTIME_store")
    emit_json(result)
    failures = check_gates(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        result = measure(n_mutations=120, n_cache_ops=500,
                         n_version_reads=2_000)
    else:
        result = measure()
    print(render(result))
    emit_json(result)
    failures = check_gates(result)
    if failures:
        print("GATE FAILURES: " + "; ".join(failures))
        sys.exit(1)
    print("gates passed")
