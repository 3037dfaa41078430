"""Every daemon count is one registry counter.

``/status``'s ``stats``, ``planner`` and ``runtime.counters`` sections
read the daemon's own metrics registry, so they agree with ``/metrics``
sample for sample, keep the key paths their readers use, and count
exactly under concurrent executor threads.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.obs import parse_prometheus_text
from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    coordinator as coordinator_module,
    slot_namespace_configs,
)
from repro.service.faults import FaultPlan, FaultRule

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
N_SLOTS = 4
SALT = 4  # splits the 4 slots 2/2 between two workers under HRW
QUIET = dict(port=0, compact_to=None, tick_s=3600.0)

#: ``/status`` key path -> the ``/metrics`` series it reads: a name (the
#: sum over every label set) or ``(name, labels)``
WORKER_SERIES = {
    "stats.requests": "repro_requests_total",
    "stats.ingest_batches": "repro_ingest_batches_total",
    "stats.ingested_events": "repro_ingest_events_total",
    "stats.ingest_rejected": "repro_ingest_rejected_total",
    "stats.ingest_errors": "repro_ingest_errors_total",
    "stats.queries": "repro_queries_total",
    "stats.rotations": "repro_window_rotations_total",
    "stats.compactions": "repro_compactions_total",
    "planner.hits": ("repro_result_cache_lookups_total", {"outcome": "hit"}),
    "planner.misses": (
        "repro_result_cache_lookups_total", {"outcome": "miss"}
    ),
    "planner.engine_builds": "repro_engine_build_seconds_count",
    "planner.partial_hits": (
        "repro_partial_memo_lookups_total", {"outcome": "hit"}
    ),
    "planner.partial_builds": (
        "repro_partial_memo_lookups_total", {"outcome": "build"}
    ),
    "planner.window_queries": "repro_window_queries_total",
    "runtime.counters.ingest_batches": "repro_ingest_batches_total",
    "runtime.counters.ingested_events": "repro_ingest_events_total",
    "runtime.counters.rejected_batches": "repro_ingest_rejected_total",
    "runtime.counters.ingest_errors": "repro_ingest_errors_total",
    "runtime.counters.rotations": "repro_window_rotations_total",
    "runtime.counters.compactions": "repro_compactions_total",
    "runtime.counters.cache_hits": (
        "repro_result_cache_lookups_total", {"outcome": "hit"}
    ),
    "runtime.counters.cache_misses": (
        "repro_result_cache_lookups_total", {"outcome": "miss"}
    ),
    "runtime.counters.faults_injected": "repro_faults_injected_total",
}

COORDINATOR_SERIES = {
    "stats.requests": "repro_cluster_requests_total",
    "stats.ingest_batches": "repro_cluster_ingest_batches_total",
    "stats.ingested_events": "repro_cluster_ingested_events_total",
    "stats.queries": "repro_cluster_queries_total",
    "stats.partial_answers": "repro_cluster_partial_answers_total",
    "stats.failovers": "repro_cluster_failovers_total",
    "stats.handoff_artifacts": "repro_cluster_handoff_artifacts_total",
    "stats.heartbeat_rounds": "repro_cluster_heartbeat_rounds_total",
    "stats.promotions": "repro_cluster_promotions_total",
    "stats.repair_ticks": "repro_cluster_repair_ticks_total",
    "stats.memo_hits": "repro_engine_memo_hits_total",
    "stats.memo_rebuilds": "repro_engine_build_seconds_count",
    "runtime.counters.cache_hits": (
        "repro_result_cache_lookups_total", {"outcome": "hit"}
    ),
    "runtime.counters.cache_misses": (
        "repro_result_cache_lookups_total", {"outcome": "miss"}
    ),
    "runtime.counters.faults_injected": "repro_faults_injected_total",
}

#: the key paths read by the frozen benchmark harness, the load bench,
#: CI and the tests — each must be present even before it counts
FROZEN_PATHS = {
    "worker": [
        "planner.engine_builds", "planner.hits", "planner.misses",
        "planner.partial_builds", "planner.partial_hits",
        "planner.window_queries", "runtime.counters.rejected_batches",
        "runtime.counters.cache_hits", "runtime.counters.ingest_batches",
        "runtime.counters.faults_injected", "stats.rotations",
        "stats.requests", "stats.ingest_batches", "stats.ingested_events",
        "stats.ingest_rejected", "stats.ingest_errors", "stats.last_error",
    ],
    "coordinator": [
        "runtime.counters.repairs_completed",
        "runtime.counters.faults_injected", "runtime.counters.cache_hits",
        "stats.partial_answers", "stats.failovers", "stats.memo_hits",
        "stats.memo_rebuilds", "stats.requests", "stats.last_error",
    ],
}


def event_batch(lo: int, n: int = 40):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo + 1)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def lookup(payload: dict, path: str):
    for part in path.split("."):
        payload = payload[part]
    return payload


def series_value(samples: dict, spec) -> float:
    name, labels = (spec, {}) if isinstance(spec, str) else spec
    return sum(
        value for (sample, sample_labels), value in samples.items()
        if sample == name
        and labels.items() <= dict(sample_labels).items()
    )


def assert_status_matches_metrics(client: ServiceClient, table: dict):
    status = client.status()
    samples = parse_prometheus_text(client.metrics())
    for path, spec in table.items():
        expected = series_value(samples, spec)
        if path == "stats.requests":
            expected -= 1  # the /metrics request arrived after /status
        assert lookup(status, path) == expected, path
    return status


class Cluster:
    """A coordinator plus two joined workers on ephemeral ports."""

    def __init__(self, root) -> None:
        self.coordinator = CoordinatorThread(CoordinatorConfig(
            root=str(root / "coordinator"), namespaces=(NS,), port=0,
            n_slots=N_SLOTS, replication=1, salt=SALT, heartbeat_s=3600.0,
            repair_interval_s=0,
        ))
        self.coordinator.start()
        self.client = ServiceClient(port=self.coordinator.service.port)
        self.workers: dict[str, ServiceThread] = {}
        for worker_id in ("w1", "w2"):
            thread = ServiceThread(ServiceConfig(
                store_root=str(root / worker_id),
                namespaces=slot_namespace_configs(NS, N_SLOTS), **QUIET,
            ))
            thread.start()
            self.workers[worker_id] = thread
            self.client.cluster_join(
                worker_id, "127.0.0.1", thread.service.port
            )

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for thread in self.workers.values():
            thread.stop()  # a no-op for a killed one


@pytest.fixture
def worker(tmp_path):
    with ServiceThread(ServiceConfig(
        store_root=str(tmp_path / "w"), namespaces=(NS,), **QUIET
    )) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        yield thread, client
        client.close()


@pytest.fixture
def cluster(tmp_path, monkeypatch):
    # a killed worker costs one refused connect per query, not a retry
    monkeypatch.setattr(coordinator_module, "WORKER_RETRIES", 0)
    built = Cluster(tmp_path)
    yield built
    built.close()


def test_frozen_key_paths_are_present(worker, cluster):
    _thread, client = worker
    for role, status in (
        ("worker", client.status()), ("coordinator", cluster.client.status())
    ):
        for path in FROZEN_PATHS[role]:
            lookup(status, path)  # KeyError names a missing path
        assert lookup(status, "stats.last_error") is None


def test_worker_status_counts_equal_metrics_series(worker):
    thread, client = worker
    thread.service.install_faults(FaultPlan(0, [
        FaultRule("error", verb="/health", status=503, limit=1),
    ]), scope="worker")
    with pytest.raises(ServiceError):
        client.liveness()
    for lo in (0, 100):
        client.ingest("web", *event_batch(lo), sync=True)
    client.ingest("web", *event_batch(200))  # async: applied by the worker
    deadline = time.monotonic() + 10.0
    while thread.service.stats["ingest_batches"] < 3:
        assert time.monotonic() < deadline, "async batch not applied"
        time.sleep(0.002)
    client.rotate()
    for _ in range(2):  # a miss, then a hit
        client.estimate("web", "max", ["h1", "h2"])
    client.window_series("web", "max", ["h1", "h2"], window="1d")
    with pytest.raises(ServiceError):
        client.estimate("nope", "max", ["h1"])
    thread.service.manager.compact("hour")
    status = assert_status_matches_metrics(client, WORKER_SERIES)
    assert status["stats"]["ingest_batches"] == 3
    assert status["stats"]["ingested_events"] == 120
    assert status["planner"]["hits"] >= 1
    assert status["planner"]["window_queries"] == 1
    assert status["runtime"]["counters"]["faults_injected"] == 1


def test_coordinator_status_counts_equal_metrics_series(cluster):
    client = cluster.client
    for lo in (0, 100):
        client.ingest("web", *event_batch(lo), sync=True)
    for _ in range(2):  # a miss, then a result-cache hit
        client.estimate("web", "max", ["h1", "h2"])
    client.estimate("web", "max", ["h1", "h2"], keys=["k1", "k2"])
    client.repairs_run()
    with pytest.raises(ServiceError):
        client.estimate("web", "max", ["h1", "h2"], since="garbage")
    status = assert_status_matches_metrics(client, COORDINATOR_SERIES)
    assert status["stats"]["ingested_events"] == 80
    assert status["stats"]["memo_hits"] == 1
    assert status["stats"]["repair_ticks"] == 1
    assert status["runtime"]["counters"]["cache_hits"] == 1
    counters, journal = status["runtime"]["counters"], status["repairs"]
    assert counters["repairs_completed"] == journal["done"]


def test_partial_answers_count_exactly_across_threads(cluster):
    """Partial answers are counted on executor threads; with a switch
    forced every microsecond, an unlocked ``+=`` would lose some."""
    cluster.client.ingest("web", *event_batch(0), sync=True)
    cluster.workers["w2"].kill()
    port = cluster.coordinator.service.port
    failures: list = []

    def ask() -> None:
        with ServiceClient(port=port) as client:
            for _ in range(25):
                try:
                    answer = client.estimate("web", "max", ["h1", "h2"])
                    assert answer["partial"] is True
                except Exception as err:  # surfaced below
                    failures.append(err)

    threads = [threading.Thread(target=ask) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert cluster.coordinator.service.stats["partial_answers"] == 200
