"""Per-layer probes: each public entry point timed alone, in process.

Inputs are the run's own script (same seed, same keys and weights), at
the workload's ``k`` and assignments.  Every probe is the median of a
few repetitions of one call.  A probe that raises — a later change
renamed its entry point — is counted in ``harness.probe_errors`` and
reports 0, so the end-to-end benchmark never depends on a layer's
private shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .gen import Script
from .reference import namespace_config, preload_bundles
from .spec import FUNCTIONS, NAMESPACE


def timed(fn, repeats: int = 5, before=None) -> float:
    """Median seconds of ``fn(before())`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        args = () if before is None else (before(),)
        started = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Fixture:
    """What the probes share: the script's events, bundles, a scratch dir."""

    def __init__(self, script: Script, work: Path) -> None:
        self.script = script
        self.workload = script.workload
        self.names = list(self.workload.assignments)
        self.config = namespace_config(self.workload)
        self.work = work
        self.ingests = [op for op in script.ops if op.is_ingest]
        self.predicates = [
            op for op in script.ops if op.phase == "quiet"
        ]
        self.keys = np.concatenate([op.keys for op in self.ingests])
        self.weights = {
            name: np.concatenate([op.weights[name] for op in self.ingests])
            for name in self.names
        }
        # nine key-disjoint bundles: eight stored-bucket-like, one live
        stored = [bundle for _bucket, bundle in preload_bundles(script)]
        while len(stored) < 8:
            base = 20_000_000 + len(stored) * 5_000
            summarizer = self.config.make_summarizer()
            summarizer.ingest_multi(
                np.arange(base, base + 5_000),
                {n: self.weights[n][:5_000] for n in self.names},
            )
            stored.append(summarizer.sketch_bundle())
        self.summarizer = self.config.make_summarizer()
        self.summarizer.ingest_multi(self.keys, self.weights)
        self.bundles = stored[:8] + [self.summarizer.sketch_bundle()]

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir()
        return path


def probe_ranks_sampling(fx: Fixture) -> dict:
    from repro.ranks.families import IppsRanks
    from repro.ranks.hashing import KeyHasher
    from repro.sampling.bottomk import BottomKStreamSampler

    hasher, family = KeyHasher(0), IppsRanks()
    keys, weights = fx.keys[:200_000], fx.weights[fx.names[0]][:200_000]
    hash_rank = timed(
        lambda: family.ranks_array(weights, hasher.hash_array(keys))
    )
    million = np.arange(1_000_000, dtype=np.int64)
    heavy = np.resize(fx.weights[fx.names[0]], len(million))
    batch = timed(
        lambda sampler: sampler.process_batch(million, heavy), repeats=3,
        before=lambda: BottomKStreamSampler(fx.workload.k, family, hasher),
    )
    return {
        "ranks.hash_rank_ns_per_event": hash_rank * 1e9 / len(keys),
        "sampling.process_batch_ns_per_event": batch * 1e9 / len(million),
    }


def probe_engine(fx: Fixture) -> dict:
    from repro.core.aggregates import AggregationSpec
    from repro.core.predicates import key_in
    from repro.core.summary import build_summary_from_sketches
    from repro.engine.merge import merge_bottomk
    from repro.engine.queries import QueryEngine
    from repro.store.codec import encode

    def buffer_all(summarizer):
        for op in fx.ingests:
            summarizer.ingest_multi(op.keys, op.weights)

    ingest = timed(buffer_all, before=fx.config.make_summarizer)

    def window(events: int):
        summarizer = fx.config.make_summarizer()
        summarizer.ingest_multi(
            fx.keys[:events],
            {n: w[:events] for n, w in fx.weights.items()},
        )
        return summarizer

    def finalize(summarizer):
        # one more event: "after new data", the cached sketches are stale
        summarizer.ingest_multi(
            fx.keys[:1], {n: w[:1] for n, w in fx.weights.items()}
        )
        summarizer.summary()

    load = fx.workload.load_batches * fx.workload.load_events
    full_window, half_window = window(load), window(load // 2)
    full = timed(lambda: finalize(full_window))
    half = timed(lambda: finalize(half_window))
    first = fx.names[0]
    sketches = [bundle.sketches[first] for bundle in fx.bundles]
    merge = timed(lambda: merge_bottomk(*sketches), repeats=20)
    blobs = [encode(bundle) for bundle in fx.bundles[:8]]
    merged = fx.bundles[0].merge(*fx.bundles[1:])
    out = {
        "engine.ingest_multi_ns_per_event": ingest * 1e9 / len(fx.keys),
        "engine.finalize_ms": full * 1e3,
        "engine.finalize_ns_per_buffered_event":
            (full - half) * 1e9 / (load - load // 2),
        "engine.merge_bottomk_us": merge * 1e6,
        "engine.from_bundles_ms":
            timed(lambda: QueryEngine.from_bundles(fx.bundles)) * 1e3,
        "engine.from_encoded_bundles_ms":
            timed(lambda: QueryEngine.from_encoded_bundles(blobs)) * 1e3,
        "core.summary_build_ms": timed(
            lambda: build_summary_from_sketches(
                merged.sketches, merged.family, method_name="shared_seed"
            )
        ) * 1e3,
    }
    engine = QueryEngine(merged.summary())
    for function in FUNCTIONS:
        ops = [op for op in fx.predicates if op.function == function][:40]
        for op in ops[:1]:  # fill the per-spec kernel cache first
            engine.estimate(AggregationSpec(op.function, op.assignments))
        queue = iter(ops)
        out[f"engine.estimate_us.{function}"] = timed(
            lambda op: engine.estimate(
                AggregationSpec(op.function, op.assignments),
                predicate=key_in(op.keys.tolist()),
            ),
            repeats=len(ops), before=lambda: next(queue),
        ) * 1e6
    return out


def probe_estimators(fx: Fixture) -> dict:
    import repro
    from repro.core.aggregates import AggregationSpec
    from repro.engine.queries import QueryEngine

    merged = fx.bundles[0].merge(*fx.bundles[1:])
    names = tuple(fx.names)
    rows = min(20_000, len(fx.keys))
    dataset = repro.MultiAssignmentDataset(
        list(range(rows)), fx.names,
        np.column_stack([fx.weights[n][:rows] for n in fx.names]),
    )

    def first_call(build_summary, function: str, estimator: str) -> float:
        # a fresh summary each time: kernels cache their views on it
        return timed(
            lambda engine: engine.estimate(
                AggregationSpec(function, names), estimator=estimator
            ),
            before=lambda: QueryEngine(build_summary()),
        ) * 1e6

    return {
        "estimators.kernel_us.sset": first_call(merged.summary, "max", "sset"),
        "estimators.kernel_us.lset": first_call(merged.summary, "max", "lset"),
        "estimators.kernel_us.l1": first_call(merged.summary, "l1", "auto"),
        "estimators.kernel_us.colocated": first_call(
            lambda: repro.summarize_dataset(
                dataset, fx.workload.k, mode="colocated"
            ),
            "max", "colocated",
        ),
    }


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def probe_store(fx: Fixture) -> dict:
    from repro.service.windows import LiveWindowManager
    from repro.store.codec import decode, encode
    from repro.store.runtime import RuntimeStore
    from repro.store.store import SummaryStore

    bundle = fx.bundles[-1]
    blob = encode(bundle)
    store = SummaryStore(fx.scratch("probe-store"))
    days = iter(range(20240101, 20240131))
    write = timed(
        lambda day: store.write(NAMESPACE, str(day), bundle),
        before=lambda: next(days),
    )
    entry = store.bundle_entries(NAMESPACE)[0]
    runtime = RuntimeStore(fx.scratch("probe-runtime"))
    answer = {"estimate": 1.5, "function": "max", "namespace": NAMESPACE}
    counter = iter(range(10_000))
    put = timed(
        lambda i: runtime.cache_put(
            f"key-{i}", NAMESPACE, "v1", answer, max_entries=1024
        ),
        repeats=200, before=lambda: next(counter),
    )
    manager = LiveWindowManager(
        SummaryStore(fx.scratch("probe-checkpoint")), [fx.config],
        granularity="day",
    )
    manager.ingest(NAMESPACE, fx.keys, fx.weights)
    manager.checkpoint()
    manager.store.runtime.close()
    out = {
        "store.codec_encode_ms": timed(lambda: encode(bundle)) * 1e3,
        "store.codec_decode_ms": timed(lambda: decode(blob)) * 1e3,
        "store.bundle_bytes": float(len(blob)),
        "store.write_ms": write * 1e3,
        "store.load_ms": timed(lambda: store.load(entry)) * 1e3,
        "store.runtime_record_ingest_us": timed(
            lambda: runtime.record_ingest(NAMESPACE, 1000), repeats=200
        ) * 1e6,
        "store.runtime_cache_put_us": put * 1e6,
        "store.runtime_cache_get_us": timed(
            lambda: runtime.cache_get("key-7"), repeats=200
        ) * 1e6,
        "store.disk_bytes_per_kevent":
            _tree_bytes(fx.work / "probe-checkpoint") * 1e3 / len(fx.keys),
    }
    store.runtime.close()
    runtime.close()
    return out


def parse_ingest(body: bytes):
    """What the daemon does to an ingest body before queueing it."""
    payload = json.loads(body)
    checked = {}
    for name, values in payload["weights"].items():
        weights = np.asarray(values, dtype=float)
        if not bool(np.all(np.isfinite(weights) & (weights >= 0.0))):
            raise ValueError("weights must be finite and non-negative")
        checked[name] = weights
    return payload["keys"], checked


def probe_service(fx: Fixture) -> dict:
    from repro.service.jsonutil import dumps_strict
    from repro.service.planner import QueryPlanner
    from repro.service.windows import LiveWindowManager
    from repro.store.store import SummaryStore

    manager = LiveWindowManager(
        SummaryStore(fx.scratch("probe-service")), [fx.config],
        granularity="day",
    )
    planner = QueryPlanner(manager)
    batches = iter(fx.ingests)
    first = fx.ingests[0]
    parse = timed(lambda: parse_ingest(first.body))

    def ingest(op):
        manager.ingest(NAMESPACE, op.keys, op.weights)

    windows = timed(ingest, repeats=len(fx.ingests) // 2,
                    before=lambda: next(batches))
    live = timed(
        lambda _op: manager.live_bundle(NAMESPACE), repeats=3,
        before=lambda: ingest(next(batches)),
    )

    def ask(op):
        return planner.estimate(
            NAMESPACE, op.function, list(op.assignments),
            keys=None if op.keys is None else op.keys.tolist(),
        )

    full = next(op for op in fx.script.ops if op.role == "full")
    fresh = timed(
        lambda _op: ask(full), repeats=3,
        before=lambda: ingest(next(batches)),
    )
    warm_ops = iter(fx.predicates)
    warm = timed(ask, repeats=40, before=lambda: next(warm_ops))
    hit = timed(lambda: ask(fx.predicates[0]), repeats=40)
    answer = {"ok": True, **ask(fx.predicates[0])}
    manager.store.runtime.close()
    return {
        "service.parse_ingest_ns_per_event":
            parse * 1e9 / len(first.keys),
        "service.encode_answer_us":
            timed(lambda: dumps_strict(answer), repeats=200) * 1e6,
        "service.windows_ingest_us": windows * 1e6,
        "service.live_bundle_ms": live * 1e3,
        "service.planner_fresh_ms": fresh * 1e3,
        "service.planner_warm_us": warm * 1e6,
        "service.planner_hit_us": hit * 1e6,
    }


def probe_cluster(fx: Fixture) -> dict:
    from repro.service.cluster import ClusterClient, ClusterTopology

    topology = ClusterTopology(n_slots=8, replication=2)
    keys = fx.keys[:200_000]
    router = ClusterClient({}, topology)
    batch = fx.ingests[0].keys.tolist()
    return {
        "cluster.slots_for_keys_ns_per_event":
            timed(lambda: topology.slots_for_keys(keys)) * 1e9 / len(keys),
        "cluster.plan_batch_us":
            timed(lambda: router.plan_batch(NAMESPACE, batch),
                  repeats=20) * 1e6,
    }


def probe_obs(fx: Fixture) -> dict:
    from repro.obs import MetricsRegistry, Tracer
    from repro.service.planner import QueryPlanner
    from repro.service.windows import LiveWindowManager
    from repro.store.store import SummaryStore

    tracer = Tracer()

    def spans():
        for _ in range(1000):
            with tracer.span("probe"):
                pass

    # a daemon-shaped registry: the window manager's and planner's series
    registry = MetricsRegistry()
    manager = LiveWindowManager(
        SummaryStore(fx.scratch("probe-obs")), [fx.config],
        granularity="day", metrics=registry,
    )
    QueryPlanner(manager, metrics=registry)
    manager.ingest(NAMESPACE, fx.ingests[0].keys, fx.ingests[0].weights)
    out = {
        "obs.span_us": timed(spans) * 1e6 / 1000,
        "obs.render_ms": timed(registry.render, repeats=20) * 1e3,
    }
    manager.store.runtime.close()
    return out


PROBES = (
    probe_ranks_sampling, probe_engine, probe_estimators, probe_store,
    probe_service, probe_cluster, probe_obs,
)


def run_probes(script: Script, work: Path) -> tuple:
    """``(metrics, errors)`` of every probe; a failing probe reports 0."""
    fixture = Fixture(script, work)
    metrics: dict = {}
    errors = 0
    for probe in PROBES:
        try:
            metrics.update(probe(fixture))
        except Exception:  # noqa: BLE001 - a renamed entry point, reported
            errors += 1
            print(f"probe {probe.__name__} failed:", file=sys.stderr)
            traceback.print_exc()
    return metrics, errors
