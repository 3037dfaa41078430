"""SERVICE — sustained concurrent ingest + query load on the daemon.

Shape: a `SummaryService` on an ephemeral port (in-process event loop
thread, temp store), hammered for a fixed wall-clock window by concurrent
`ServiceClient` threads running a mixed workload: ``BENCH_SERVICE_INGEST``
ingest threads each POSTing key-disjoint event batches, and
``BENCH_SERVICE_QUERY`` query threads alternating estimate (max / min /
single / subpopulation) and weighted-Jaccard requests.  This is the full
production path — HTTP parse, bounded-queue backpressure, live-window
ingest, merged live+stored planning, version-keyed result cache.

The load window runs **twice**: once with the observability layer off
(``ServiceConfig(observability=False)`` — the uninstrumented baseline)
and once with it on.  The instrumented pass scrapes ``GET /metrics`` at
the end and derives ingest/query latency percentiles (p50/p95/p99) from
the daemon's own ``repro_http_request_seconds`` histograms — the bench
reports the latencies the operator would see, not a client-side re-take.

Gates:

* **exactness** — after the load window, a final synchronous flush and
  one estimate per function must equal an offline `QueryEngine` over a
  `ShardedSummarizer` fed every event the service accepted, bit for bit
  (checked on both passes);
* **liveness** — both sides of the mixed workload made progress (>0
  ingested events/sec and >0 answered queries/sec) and every query
  answered during the run was well-formed;
* **overhead** — instrumented ingest throughput is within
  ``BENCH_SERVICE_OVERHEAD_LIMIT`` (default 5%) of the uninstrumented
  baseline.

429 (backpressure) responses are *expected* under load and counted, not
failed; the ingest threads retry those batches, so acceptance stays
exact.

Environment knobs: ``BENCH_SERVICE_SECONDS`` (load window, default 5),
``BENCH_SERVICE_INGEST`` / ``BENCH_SERVICE_QUERY`` (thread counts,
default 2 each), ``BENCH_SERVICE_BATCH`` (events per batch, default
2000), ``BENCH_SERVICE_OVERHEAD_LIMIT`` (fractional overhead gate,
default 0.05).

Run under pytest (`pytest benchmarks/bench_service_load.py`) or
standalone (`PYTHONPATH=src python benchmarks/bench_service_load.py
[--smoke]`).  Writes ``benchmarks/results/BENCH_service_load.json``.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import threading
import time

import numpy as np

from emit import write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.obs import parse_prometheus_text, quantile_from_buckets
from repro.core.predicates import key_in
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

SECONDS = float(os.environ.get("BENCH_SERVICE_SECONDS", 5.0))
N_INGEST = int(os.environ.get("BENCH_SERVICE_INGEST", 2))
N_QUERY = int(os.environ.get("BENCH_SERVICE_QUERY", 2))
BATCH = int(os.environ.get("BENCH_SERVICE_BATCH", 2000))
OVERHEAD_LIMIT = float(
    os.environ.get("BENCH_SERVICE_OVERHEAD_LIMIT", 0.05)
)
K = 128
NS = NamespaceConfig("load", ("h1", "h2"), k=K, salt=11)


def _make_batch(thread_id: int, sequence: int, rng) -> tuple[list, dict]:
    """Key-disjoint across threads and batches (exact-merge contract)."""
    base = (thread_id * 1_000_000 + sequence) * BATCH
    keys = list(range(base, base + BATCH))
    w1 = (rng.pareto(1.3, BATCH) + 0.05).tolist()
    w2 = (rng.pareto(1.5, BATCH) + 0.05).tolist()
    return keys, {"h1": w1, "h2": w2}


def _ingest_worker(port, thread_id, stop, record, counters, lock):
    client = ServiceClient(port=port, timeout=60.0)
    rng = np.random.default_rng(thread_id)
    sequence = 0
    while not stop.is_set():
        keys, weights = _make_batch(thread_id, sequence, rng)
        try:
            client.ingest("load", keys, weights)
        except ServiceError as err:
            if err.status == 429:  # backpressure: retry the same batch
                with lock:
                    counters["rejected_batches"] += 1
                time.sleep(0.01)
                continue
            raise
        with lock:
            record.append((keys, weights))
            counters["ingested_events"] += len(keys)
        sequence += 1
    client.close()


def _query_worker(port, thread_id, stop, counters, lock):
    client = ServiceClient(port=port, timeout=60.0)
    rng = np.random.default_rng(1000 + thread_id)
    answered = 0
    while not stop.is_set():
        mode = answered % 4
        try:
            if mode == 0:
                result = client.estimate("load", "max", ["h1", "h2"])
            elif mode == 1:
                result = client.estimate("load", "single", ["h1"])
            elif mode == 2:
                subset = [int(key) for key in rng.integers(0, BATCH, 20)]
                result = client.estimate(
                    "load", "min", ["h1", "h2"], keys=subset
                )
            else:
                result = client.jaccard("load", ["h1", "h2"])
        except ServiceError as err:
            if err.status == 404:  # nothing ingested yet
                time.sleep(0.005)
                continue
            raise
        assert "estimate" in result and np.isfinite(result["estimate"])
        answered += 1
        with lock:
            counters["queries"] += 1
            counters["query_cache_hits"] += bool(result["cached"])
    client.close()


def _latency_percentiles(samples: dict, path: str) -> dict:
    """p50/p95/p99 for one route, from its scraped latency histogram.

    The exposition carries *cumulative* bucket counts; differencing
    adjacent ``le`` samples recovers the per-bucket counts that
    :func:`quantile_from_buckets` interpolates over.
    """
    edges = []
    for (name, labels), value in samples.items():
        if name != "repro_http_request_seconds_bucket":
            continue
        byname = dict(labels)
        if byname.get("path") != path:
            continue
        upper = byname["le"]
        edges.append((
            math.inf if upper == "+Inf" else float(upper), value
        ))
    edges.sort()
    uppers = [upper for upper, _ in edges if upper != math.inf]
    cumulative = [count for _, count in edges]
    counts = [
        int(count - (cumulative[pos - 1] if pos else 0))
        for pos, count in enumerate(cumulative)
    ]
    total = int(cumulative[-1]) if cumulative else 0
    return {
        f"p{round(q * 100):d}_ms": (
            quantile_from_buckets(uppers, counts, total, q) * 1e3
            if total else None
        )
        for q in (0.5, 0.95, 0.99)
    }


def measure_once(seconds: float, observability: bool) -> dict:
    root = tempfile.mkdtemp(prefix="bench-service-")
    config = ServiceConfig(
        store_root=root, namespaces=(NS,), port=0, tick_s=0.2,
        compact_to=None, ingest_queue_batches=32,
        observability=observability,
    )
    record: list = []
    counters = {
        "ingested_events": 0, "rejected_batches": 0, "queries": 0,
        "query_cache_hits": 0,
    }
    lock = threading.Lock()
    stop = threading.Event()
    with ServiceThread(config) as service:
        port = service.service.port
        ServiceClient(port=port).wait_ready()
        threads = [
            threading.Thread(
                target=_ingest_worker,
                args=(port, i, stop, record, counters, lock), daemon=True,
            )
            for i in range(N_INGEST)
        ] + [
            threading.Thread(
                target=_query_worker,
                args=(port, i, stop, counters, lock), daemon=True,
            )
            for i in range(N_QUERY)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join(60.0)
        elapsed = time.perf_counter() - start

        # Exactness gate: flush, then compare against the offline engine
        # over exactly the accepted batches.
        client = ServiceClient(port=port, timeout=120.0)
        # Sentinel key -1 is outside every worker's key range, so the
        # flush cannot collide with a batch rotated into an earlier
        # bucket (keys must not recur across buckets).
        flush = ([-1], {"h1": [1.0], "h2": [1.0]})
        client.ingest("load", *flush, sync=True)
        with lock:
            record.append(flush)
        offline = NS.make_summarizer()
        for keys, weights in record:
            offline.ingest_multi(
                keys, {name: np.asarray(w) for name, w in weights.items()}
            )
        reference = QueryEngine(offline.summary())
        exact = True
        for function in ("max", "min"):
            served = client.estimate("load", function, ["h1", "h2"])
            expected = reference.estimate(
                AggregationSpec(function, ("h1", "h2"))
            )
            exact = exact and served["estimate"] == expected
        subset = list(range(50))
        served = client.estimate("load", "max", ["h1", "h2"], keys=subset)
        exact = exact and served["estimate"] == reference.estimate(
            AggregationSpec("max", ("h1", "h2")), predicate=key_in(subset)
        )
        served = client.jaccard("load", ["h1", "h2"])
        exact = exact and served["estimate"] == jaccard_from_summary(
            reference.summary, ("h1", "h2"), "l"
        )
        status = client.status()
        latency = {}
        if observability:
            samples = parse_prometheus_text(client.metrics())
            latency = {
                "ingest": _latency_percentiles(samples, "/ingest"),
                "query": _latency_percentiles(samples, "/query"),
            }
        client.close()

    return {
        "observability": observability,
        "latency": latency,
        "seconds": elapsed,
        "ingest_threads": N_INGEST,
        "query_threads": N_QUERY,
        "batch_events": BATCH,
        "k": K,
        "ingested_events": counters["ingested_events"],
        "events_per_sec": counters["ingested_events"] / elapsed,
        "queries": counters["queries"],
        "queries_per_sec": counters["queries"] / elapsed,
        "query_cache_hits": counters["query_cache_hits"],
        "rejected_batches": counters["rejected_batches"],
        "rotations": status["stats"]["rotations"],
        "exact": exact,
    }


def measure(seconds: float = SECONDS) -> dict:
    """Both passes: uninstrumented baseline first, then instrumented."""
    bare = measure_once(seconds, observability=False)
    instrumented = measure_once(seconds, observability=True)
    result = dict(instrumented)
    result["exact"] = bare["exact"] and instrumented["exact"]
    result["bare_events_per_sec"] = bare["events_per_sec"]
    result["bare_queries_per_sec"] = bare["queries_per_sec"]
    result["overhead_fraction"] = (
        max(0.0, 1.0 - instrumented["events_per_sec"]
            / bare["events_per_sec"])
        if bare["events_per_sec"] > 0 else 0.0
    )
    return result


def _render_latency(result: dict) -> list[str]:
    lines = []
    for side in ("ingest", "query"):
        percentiles = result.get("latency", {}).get(side)
        if not percentiles or percentiles.get("p50_ms") is None:
            continue
        lines.append(
            f"  {side:<7}: p50 {percentiles['p50_ms']:8.2f} ms   "
            f"p95 {percentiles['p95_ms']:8.2f} ms   "
            f"p99 {percentiles['p99_ms']:8.2f} ms   (from /metrics)"
        )
    return lines


def render(result: dict) -> str:
    return "\n".join([
        f"SERVICE load — {result['ingest_threads']} ingest + "
        f"{result['query_threads']} query threads for "
        f"{result['seconds']:.1f}s (batch={result['batch_events']}, "
        f"k={result['k']})",
        f"  ingest : {result['ingested_events']:>10,} events "
        f"({result['events_per_sec'] / 1e3:8.1f} K events/s, "
        f"{result['rejected_batches']} batches backpressured)",
        f"  query  : {result['queries']:>10,} answers "
        f"({result['queries_per_sec']:8.1f} queries/s, "
        f"{result['query_cache_hits']} cache hits)",
        *_render_latency(result),
        f"  instrumentation overhead: "
        f"{result['overhead_fraction'] * 100:.1f}% vs bare "
        f"({result['bare_events_per_sec'] / 1e3:.1f} K events/s "
        f"uninstrumented, limit {OVERHEAD_LIMIT * 100:.0f}%)",
        f"  exact vs offline engine: {result['exact']}",
    ])


def emit_json(result: dict) -> None:
    write_bench_json(
        "service_load",
        config={
            "seconds": result["seconds"],
            "ingest_threads": result["ingest_threads"],
            "query_threads": result["query_threads"],
            "batch_events": result["batch_events"],
            "k": result["k"],
        },
        metrics={
            "events_per_sec": result["events_per_sec"],
            "queries_per_sec": result["queries_per_sec"],
            "ingested_events": result["ingested_events"],
            "queries": result["queries"],
            "rejected_batches": result["rejected_batches"],
            "query_cache_hits": result["query_cache_hits"],
            "rotations": result["rotations"],
            "exact": result["exact"],
            "bare_events_per_sec": result["bare_events_per_sec"],
            "bare_queries_per_sec": result["bare_queries_per_sec"],
            "overhead_fraction": result["overhead_fraction"],
            "ingest_latency": result["latency"].get("ingest"),
            "query_latency": result["latency"].get("query"),
        },
    )


def check_gates(result: dict) -> list[str]:
    failures = []
    if not result["exact"]:
        failures.append(
            "service answers diverged from the offline QueryEngine"
        )
    if result["ingested_events"] <= 0:
        failures.append("no events ingested during the load window")
    if result["queries"] <= 0:
        failures.append("no queries answered during the load window")
    if result["overhead_fraction"] > OVERHEAD_LIMIT:
        failures.append(
            f"instrumentation overhead "
            f"{result['overhead_fraction'] * 100:.1f}% exceeds the "
            f"{OVERHEAD_LIMIT * 100:.0f}% limit "
            f"({result['bare_events_per_sec']:.0f} bare vs "
            f"{result['events_per_sec']:.0f} instrumented events/s)"
        )
    latency = result.get("latency", {})
    for side in ("ingest", "query"):
        if latency.get(side, {}).get("p50_ms") is None:
            failures.append(
                f"no {side} latency percentiles derived from /metrics"
            )
    return failures


def test_service_load(benchmark, emit):
    result = benchmark.pedantic(
        lambda: measure(seconds=min(SECONDS, 3.0)), rounds=1, iterations=1
    )
    emit(render(result), name="SERVICE_load")
    emit_json(result)
    failures = check_gates(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    result = measure(seconds=2.0 if "--smoke" in sys.argv else SECONDS)
    print(render(result))
    emit_json(result)
    failures = check_gates(result)
    if failures:
        print("GATE FAILURES: " + "; ".join(failures))
        sys.exit(1)
    print("gates passed")
