"""A query's assignment names are checked when it is parsed, for both
kinds and on both daemons: a repeated name, or a jaccard over one name,
is a 400 whether or not the namespace holds data yet (a jaccard query
used to get past the parse and answer 404 "no data" on an empty one)."""

from __future__ import annotations

import pytest

from repro.service import (
    CoordinatorConfig,
    CoordinatorThread,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    slot_namespace_configs,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=5)
NOW = 1_767_226_000.0

REFUSED = [
    ({"function": "max", "assignments": ["h1", "h1"]}, "duplicate"),
    ({"kind": "jaccard", "assignments": ["h1", "h1"]}, "duplicate"),
    ({"kind": "jaccard", "assignments": ["h2", "h1", "h2"]}, "duplicate"),
    ({"kind": "jaccard", "assignments": ["h1"]}, "two assignments"),
]


def refusal(client: ServiceClient, fields: dict) -> tuple[int, str]:
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/query", {"namespace": "web", **fields})
    return excinfo.value.status, excinfo.value.payload["error"]


@pytest.mark.parametrize("fields,message", REFUSED)
def test_a_worker_refuses_before_and_after_data(tmp_path, fields, message):
    with ServiceThread(ServiceConfig(
        store_root=str(tmp_path), namespaces=(NS,), port=0,
        compact_to=None, tick_s=3600.0,
    ), clock=lambda: NOW) as thread:
        client = ServiceClient(port=thread.service.port)
        empty = refusal(client, fields)
        client.ingest("web", ["a", "b"], {"h1": [1.0, 2.0]}, sync=True)
        assert refusal(client, fields) == empty
        client.close()
    assert empty[0] == 400 and message in empty[1]


@pytest.mark.parametrize("fields,message", REFUSED)
def test_a_coordinator_refuses_without_asking_a_worker(
    tmp_path, fields, message
):
    worker = ServiceThread(ServiceConfig(
        store_root=str(tmp_path / "w1"),
        namespaces=slot_namespace_configs(NS, 2), port=0,
        compact_to=None, tick_s=3600.0,
    ), clock=lambda: NOW)
    coordinator = CoordinatorThread(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,), port=0,
        n_slots=2, heartbeat_s=3600.0, repair_interval_s=0,
    ), clock=lambda: NOW)
    worker.start()
    coordinator.start()
    client = ServiceClient(port=coordinator.service.port)
    try:
        client.cluster_join("w1", "127.0.0.1", worker.service.port)
        status, text = refusal(client, fields)
        assert status == 400 and message in text
        assert coordinator.service.stats["partial_answers"] == 0
        assert worker.service.count["requests"].value() == 0
    finally:
        client.close()
        coordinator.stop()
        worker.stop()
