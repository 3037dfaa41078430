"""CLUSTER — scale-out ingest throughput vs a single node, exactness held.

Shape: one event stream is routed through :class:`ClusterClient` (the
slot-partitioned router) into real ``repro-serve`` worker *processes*
(spawned via ``python -m repro.service serve --cluster-slots N`` on
ephemeral ports), once with a single worker owning every slot and once
with two workers splitting them.  One feeder thread per worker posts
that worker's sub-batches (``sync=False``) — as a real router pipeline
would — so delivery round trips and worker-side validation + apply
overlap across the worker processes; each feeder ends with a drain
barrier, an empty ``sync=True`` batch that the FIFO ingest queue only
applies after everything posted before it.

After each run the per-slot partial bundles are fetched over
``GET /bundle`` and merged with ``QueryEngine.from_encoded_bundles`` —
the coordinator's exact-merge path — and every estimate must be
**bit-identical** to an offline single-process engine over the same
events.  Scale-out that changes answers is not scale-out.

Gates scale with the host: with >= 4 usable cores the 2-worker cluster
must reach >= 1.5x the single-node ingest throughput; below that the
speedup gate is skipped (two worker processes cannot beat one on a
single core) and only the bit-identity gate applies.

Environment knobs: ``BENCH_CLUSTER_EVENTS`` (stream length, default
120_000), ``BENCH_CLUSTER_BATCH`` (events per posted batch, default
8_000).

Run under pytest (``pytest benchmarks/bench_cluster_scaling.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_cluster_scaling.py
[--smoke]``).  Writes ``BENCH_cluster_scaling.json`` with the cluster
topology stamped into the envelope.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from emit import cpus, write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import ClusterClient, NamespaceConfig, ServiceClient
from repro.service.cluster import ClusterTopology, slot_namespace

N_EVENTS = int(os.environ.get("BENCH_CLUSTER_EVENTS", 120_000))
BATCH = int(os.environ.get("BENCH_CLUSTER_BATCH", 8_000))
N_SLOTS = 16
TOPO_SALT = 4
K = 256
NS_SALT = 7
NS = NamespaceConfig("web", ("h1", "h2"), k=K, family="ipps", salt=NS_SALT)

_BANNER = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")


def _spawn_worker(root: Path, worker_id: str) -> tuple[subprocess.Popen, int]:
    """One real worker daemon on an ephemeral port; returns (proc, port)."""
    cmd = [
        sys.executable, "-m", "repro.service", "serve",
        "--root", str(root / worker_id),
        "--namespace", NS.name,
        "--assignments", *NS.assignments,
        "--k", str(K),
        "--family", "ipps", "--salt", str(NS_SALT),
        "--port", "0", "--cluster-slots", str(N_SLOTS),
        "--compact-to", "off", "--tick", "3600",
    ]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    while True:
        line = proc.stdout.readline()
        if line:
            match = _BANNER.search(line)
            if match:
                return proc, int(match.group(1))
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(
                f"worker {worker_id} failed to start: {line!r}"
            )


def _make_stream(n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(n).astype(np.int64)
    w1 = rng.pareto(1.3, n) + 0.05
    w2 = rng.pareto(1.5, n) + 0.05
    return keys, w1, w2


def _offline_reference(keys, w1, w2) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for lo in range(0, len(keys), BATCH):
        summarizer.ingest_multi(
            keys[lo:lo + BATCH],
            {"h1": w1[lo:lo + BATCH], "h2": w2[lo:lo + BATCH]},
        )
    return QueryEngine(summarizer.summary())


def _run_cluster(
    root: Path, worker_ids: list[str], keys, w1, w2, reference: QueryEngine
) -> dict:
    """Spawn workers, route the stream, drain, verify exactness."""
    topology = ClusterTopology(
        n_slots=N_SLOTS, replication=1, salt=TOPO_SALT
    )
    procs: dict[str, subprocess.Popen] = {}
    try:
        endpoints = {}
        for worker_id in worker_ids:
            proc, port = _spawn_worker(root, worker_id)
            procs[worker_id] = proc
            endpoints[worker_id] = ("127.0.0.1", port)
        with ClusterClient(endpoints, topology=topology) as cluster:
            for worker_id in worker_ids:
                cluster.client(worker_id).wait_ready(timeout=30.0)

            # Pre-split the stream by slot owner (the router's plan is
            # identical work for both cluster sizes; the timed region
            # isolates what scale-out changes: delivery + apply).
            feeds: dict[str, list] = {w: [] for w in worker_ids}
            owners = {
                slot: topology.slot_owners(slot, worker_ids)[0]
                for slot in range(N_SLOTS)
            }
            for lo in range(0, len(keys), BATCH):
                batch_keys = keys[lo:lo + BATCH]
                plan = cluster.plan_batch(NS.name, batch_keys)
                for slot, indices in sorted(plan.items()):
                    picked = np.asarray(indices) + lo
                    feeds[owners[slot]].append((
                        slot_namespace(NS.name, slot),
                        keys[picked].tolist(),
                        {
                            "h1": w1[picked].tolist(),
                            "h2": w2[picked].tolist(),
                        },
                    ))

            def feed(worker_id: str) -> None:
                client = cluster.client(worker_id)
                for namespace, sub_keys, sub_weights in feeds[worker_id]:
                    client.ingest(
                        namespace, sub_keys, sub_weights, sync=False
                    )
                # drain barrier: the FIFO queue applies this empty sync
                # batch only after every batch posted before it
                client.ingest(
                    slot_namespace(NS.name, 0), [], {"h1": [], "h2": []},
                    sync=True,
                )

            # one feeder thread per worker, as a real router would run:
            # delivery round trips (validation happens inline in the
            # worker's ingest handler) overlap across worker processes
            start = time.perf_counter()
            feeders = [
                threading.Thread(target=feed, args=(w,), daemon=True)
                for w in worker_ids
            ]
            for thread in feeders:
                thread.start()
            for thread in feeders:
                thread.join()
            seconds = time.perf_counter() - start

            # the coordinator's merge path: one owner bundle per slot
            blobs = []
            for slot in range(N_SLOTS):
                owner = topology.slot_owners(slot, worker_ids)[0]
                blob, _version = cluster.client(owner).bundle(
                    slot_namespace(NS.name, slot), timeout=60.0
                )
                if blob is not None:
                    blobs.append(blob)
            merged = QueryEngine.from_encoded_bundles(blobs)
            identical = all(
                merged.estimate(AggregationSpec(fn, ("h1", "h2")))
                == reference.estimate(AggregationSpec(fn, ("h1", "h2")))
                for fn in ("max", "min", "l1")
            )
        return {
            "workers": len(worker_ids),
            "seconds": seconds,
            "events_per_sec": len(keys) / seconds,
            "identical": identical,
        }
    finally:
        for proc in procs.values():
            proc.terminate()
        for proc in procs.values():
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()


def measure(n_events: int = N_EVENTS) -> dict:
    keys, w1, w2 = _make_stream(n_events)
    reference = _offline_reference(keys, w1, w2)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        single = _run_cluster(
            root / "single", ["w1"], keys, w1, w2, reference
        )
        dual = _run_cluster(
            root / "dual", ["w1", "w2"], keys, w1, w2, reference
        )
    return {
        "n_events": n_events,
        "batch": BATCH,
        "cpus": cpus(),
        "single": single,
        "dual": dual,
        "speedup": single["seconds"] / dual["seconds"],
        "identical": single["identical"] and dual["identical"],
    }


def render(result: dict) -> str:
    lines = [
        f"CLUSTER scaling — {result['n_events']:,} events x 2 assignments, "
        f"k={K}, {N_SLOTS} slots, batch={result['batch']}, "
        f"{result['cpus']} usable core(s)",
    ]
    for label in ("single", "dual"):
        run = result[label]
        lines.append(
            f"  {label:<7} ({run['workers']} worker"
            f"{'s' if run['workers'] > 1 else ''}) : "
            f"{run['seconds']:8.3f} s  "
            f"({run['events_per_sec'] / 1e3:8.1f} K events/s, "
            f"identical={run['identical']})"
        )
    lines.append(f"  2-worker speedup: {result['speedup']:.2f}x")
    return "\n".join(lines)


def emit_json(result: dict) -> None:
    write_bench_json(
        "cluster_scaling",
        config={
            "n_events": result["n_events"],
            "batch": result["batch"],
            "k": K,
            "n_assignments": 2,
        },
        metrics={
            "single_seconds": result["single"]["seconds"],
            "single_events_per_sec": result["single"]["events_per_sec"],
            "dual_seconds": result["dual"]["seconds"],
            "dual_events_per_sec": result["dual"]["events_per_sec"],
            "speedup": result["speedup"],
            "identical": result["identical"],
        },
        topology={
            "workers": 2,
            "replication": 1,
            "n_slots": N_SLOTS,
            "salt": TOPO_SALT,
        },
    )


def check_gates(result: dict) -> list[str]:
    """Host-aware gates; returns failure messages (empty = pass)."""
    failures = []
    if not result["identical"]:
        failures.append(
            "cluster-merged answers diverged from the offline engine"
        )
    if result["cpus"] >= 4 and result["speedup"] < 1.5:
        failures.append(
            f"2-worker ingest speedup {result['speedup']:.2f}x < 1.5x "
            f"on a {result['cpus']}-core host"
        )
    return failures


def test_cluster_scaling(benchmark, emit):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render(result), name="CLUSTER_scaling")
    emit_json(result)
    failures = check_gates(result)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        result = measure(n_events=min(N_EVENTS, 40_000))
    else:
        result = measure()
    print(render(result))
    emit_json(result)
    failures = check_gates(result)
    if result["cpus"] < 4:
        print(
            f"note: only {result['cpus']} usable core(s); the >= 1.5x "
            "2-worker gate needs >= 4 cores and was skipped"
        )
    if failures:
        print("GATE FAILURES: " + "; ".join(failures))
        sys.exit(1)
    print("gates passed")
