"""One planner, two sources: the engine memo's one policy, and the
coordinator's ``/query`` served by the shared handler.

The engine memo keeps one engine per ``(namespace, since, until)``
selection, replaced when the source's version moves: a version token
never comes back, so an engine kept for an old one could never be hit
again.  The coordinator answers through the same
:class:`~repro.service.planner.QueryPlanner` and the same ``/query``
handler as a worker: a query that must gather is tagged
``path=executor``, and a repeat inside the gather's lease ``path=loop``.
"""

from __future__ import annotations

import numpy as np

from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    slot_namespace_configs,
)
from repro.store.store import bucket_for

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
T0 = 1_767_226_000.0


def event_batch(lo: int, n: int = 30):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def test_the_engine_memo_keeps_one_engine_per_selection(tmp_path):
    """Ten versions of one selection and one other selection: two
    engines, not one per version seen."""
    with ServiceThread(ServiceConfig(
        store_root=str(tmp_path), namespaces=(NS,), port=0,
        compact_to=None, tick_s=3600.0,
    ), clock=lambda: T0) as thread:
        client = ServiceClient(port=thread.service.port)
        for round_ in range(10):
            client.ingest("web", *event_batch(100 * round_), sync=True)
            fresh = client.estimate("web", "max", ["h1", "h2"])
            assert fresh["cached"] is False
        windowed = client.estimate(
            "web", "max", ["h1", "h2"], since=bucket_for(T0)
        )
        assert windowed["estimate"] == fresh["estimate"]
        planner = thread.service.planner
        assert len(planner._engines) == 2
        assert planner.stats["engine_builds"] == 11
        client.close()


def test_a_coordinator_gathers_on_the_executor_and_repeats_on_the_loop(
    tmp_path,
):
    worker = ServiceThread(ServiceConfig(
        store_root=str(tmp_path / "w1"),
        namespaces=slot_namespace_configs(NS, 4), port=0,
        compact_to=None, tick_s=3600.0,
    ), clock=lambda: T0)
    worker.start()
    coordinator = CoordinatorThread(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,), port=0,
        n_slots=4, replication=1, salt=4, heartbeat_s=3600.0,
        repair_interval_s=0,
    ), clock=lambda: T0)
    coordinator.start()
    client = ServiceClient(port=coordinator.service.port)
    try:
        client.cluster_join("w1", "127.0.0.1", worker.service.port)
        client.ingest("web", *event_batch(0), sync=True)
        for _ in range(2):  # an engine build, then a result-cache hit
            client.estimate("web", "max", ["h1", "h2"])
        spans = client.trace_recent(limit=200)["spans"]
    finally:
        client.close()
        coordinator.stop()
        worker.stop()
    roots = [span for span in spans if span["name"] == "POST /query"]
    assert [span["tags"]["path"] for span in roots] == ["loop", "executor"]
    traced = [
        {span["name"] for span in spans if span["trace"] == root["trace"]}
        for root in roots
    ]
    assert {"parse", "gather", "slot-fetch", "engine-build",
            "estimate", "cache-probe"} <= traced[1]
    assert traced[0] == {"POST /query", "parse", "cache-probe"}
