"""WINDOW-QUERIES — sliding-window series vs independent per-window plans.

Shape: PR 7's temporal query surface.  A namespace with ``n_buckets``
minute buckets — each holding ``parts_per_bucket`` flushed artifacts,
as left behind by several producers sharing a bucket — answers a
sliding-window series (``window=W``, ``step=1m``: every consecutive
pair of windows overlaps in W-1 buckets).  Two strategies:

* **frontier** — ``QueryPlanner.window_series``: each bucket's parts
  are loaded from disk and merged **once** into the partial-merge
  frontier, then every window that covers the bucket reuses the cached
  partial (one k-sized merge instead of P decodes + P merges);
* **independent** — the pre-PR-7 shape: every window plans alone,
  re-loading and re-merging every intersecting part from disk
  (W * P decodes per window, W * P * n_windows total).

Both strategies must return **bit-identical** rows (the frontier is a
cache, not an approximation); the gate requires the frontier to win by
>= 3x on overlapping windows.

Run under pytest (``pytest benchmarks/bench_window_queries.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_window_queries.py
[--smoke]``).  Writes ``BENCH_window_queries.json``.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from emit import write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service.config import NamespaceConfig
from repro.service.planner import QueryPlanner
from repro.service.temporal import resolve_windows
from repro.service.windows import LiveWindowManager
from repro.store.store import SummaryStore, bucket_bounds, bucket_for

N_BUCKETS = 40
PARTS_PER_BUCKET = 4
PER_PART = 50
WINDOW_MINUTES = 10
K = 64
SEED = 23
T0 = 1_785_400_000.0 - (1_785_400_000.0 % 3600.0)  # aligned hour, 2026

NS = NamespaceConfig("bench", ("h1", "h2"), k=K, salt=SEED)


def build_store(root: Path, n_buckets: int, parts: int, per_part: int):
    store = SummaryStore(root)
    rng = np.random.default_rng(SEED)
    for bucket in range(n_buckets):
        bucket_id = bucket_for(T0 + bucket * 60.0, "minute")
        for part in range(parts):
            keys = [
                bucket * 1_000_000 + part * 10_000 + i
                for i in range(per_part)
            ]
            summarizer = NS.make_summarizer()
            summarizer.ingest_multi(keys, {
                "h1": rng.pareto(1.2, per_part) + 0.01,
                "h2": rng.pareto(1.6, per_part) + 0.01,
            })
            store.write("bench", bucket_id, summarizer.sketch_bundle())
    # the planner queries through a manager; its live window stays empty
    return LiveWindowManager(
        store, (NS,), clock=lambda: T0 + n_buckets * 60.0
    )


def independent_series(manager, window_s: float, step_s: float) -> list:
    """Baseline: every window plans alone, straight off the disk."""
    store = manager.store
    entries = store.bundle_entries("bench")
    bounds = {e.bucket: bucket_bounds(e.bucket) for e in entries}
    lo = min(b[0] for b in bounds.values())
    hi = max(b[1] for b in bounds.values())
    spec = AggregationSpec("max", ("h1", "h2"))
    rows = []
    for w_lo, w_hi in resolve_windows(lo, hi, window_s, step_s):
        bundles = [
            store.load(entry)
            for entry in entries
            if not (
                bounds[entry.bucket][1] <= w_lo
                or bounds[entry.bucket][0] >= w_hi
            )
        ]
        if not bundles:
            rows.append(None)
            continue
        engine = QueryEngine.from_bundles(bundles)
        rows.append(engine.estimate(spec))
    return rows


def measure(
    n_buckets: int = N_BUCKETS,
    parts_per_bucket: int = PARTS_PER_BUCKET,
    per_part: int = PER_PART,
    window_minutes: int = WINDOW_MINUTES,
) -> dict:
    window_s, step_s = window_minutes * 60.0, 60.0
    with tempfile.TemporaryDirectory() as tmp:
        manager = build_store(
            Path(tmp) / "store", n_buckets, parts_per_bucket, per_part
        )

        start = time.perf_counter()
        baseline_rows = independent_series(manager, window_s, step_s)
        independent_seconds = time.perf_counter() - start

        planner = QueryPlanner(
            manager, max_cached_partials=n_buckets + 8
        )
        start = time.perf_counter()
        series = planner.window_series(
            "bench", "max", ("h1", "h2"),
            window=window_s, step=step_s,
        )
        frontier_seconds = time.perf_counter() - start

        frontier_rows = [
            row["estimate"] for row in series["windows"]
        ]
        assert len(frontier_rows) == len(baseline_rows)
        assert frontier_rows == baseline_rows, (
            "frontier series diverged from independent per-window plans"
        )
        stats = dict(planner.stats)

    return {
        "n_buckets": n_buckets,
        "parts_per_bucket": parts_per_bucket,
        "per_part": per_part,
        "window_minutes": window_minutes,
        "n_windows": len(frontier_rows),
        "independent_seconds": independent_seconds,
        "frontier_seconds": frontier_seconds,
        "speedup": independent_seconds / frontier_seconds,
        "partial_builds": stats["partial_builds"],
        "partial_hits": stats["partial_hits"],
    }


def render(result: dict) -> str:
    return "\n".join([
        f"WINDOW-QUERIES — {result['n_windows']} sliding windows "
        f"({result['window_minutes']}m window, 1m step) over "
        f"{result['n_buckets']} buckets x {result['parts_per_bucket']} "
        f"parts x {result['per_part']} keys",
        f"  independent : {result['independent_seconds'] * 1e3:8.0f} ms "
        "(re-load + re-merge every part per window)",
        f"  frontier    : {result['frontier_seconds'] * 1e3:8.0f} ms "
        f"({result['partial_builds']} bucket partials built once, "
        f"{result['partial_hits']} frontier hits)",
        f"  speedup     : {result['speedup']:.1f}x (bit-identical rows)",
    ])


def emit_json(result: dict) -> None:
    write_bench_json(
        "window_queries",
        config={
            key: result[key]
            for key in (
                "n_buckets", "parts_per_bucket", "per_part",
                "window_minutes",
            )
        } | {"k": K, "seed": SEED},
        metrics={
            key: result[key]
            for key in (
                "n_windows", "independent_seconds", "frontier_seconds",
                "speedup", "partial_builds", "partial_hits",
            )
        },
    )


def check_gates(result: dict) -> list[str]:
    failures = []
    if result["speedup"] < 3.0:
        failures.append(
            f"frontier speedup {result['speedup']:.1f}x over independent "
            "per-window planning (need >= 3x)"
        )
    if result["partial_builds"] != result["n_buckets"]:
        failures.append(
            f"{result['partial_builds']} partial builds for "
            f"{result['n_buckets']} buckets (each bucket must build once)"
        )
    return failures


def test_window_queries(benchmark, emit):
    result = benchmark.pedantic(
        lambda: measure(
            n_buckets=16, parts_per_bucket=4, per_part=40,
            window_minutes=8,
        ),
        rounds=1, iterations=1,
    )
    emit(render(result), name="WINDOW_queries")
    emit_json(result)
    failures = check_gates(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        result = measure(
            n_buckets=16, parts_per_bucket=4, per_part=40,
            window_minutes=8,
        )
    else:
        result = measure()
    print(render(result))
    emit_json(result)
    failures = check_gates(result)
    if failures:
        print("GATE FAILURES: " + "; ".join(failures))
        sys.exit(1)
    print("gates passed")
