"""The exact ``/query`` reply bytes of a seeded worker and a seeded
2-worker cluster are pinned.

``tests/data/query_answers.json`` records, per scripted request, the
HTTP status and the reply body byte for byte (only the random trace ID
of an error reply is masked).  The scripts cover fresh answers, their
``cached`` replays and replays after a clean restart; ``keys``,
``single``, ``lset`` and jaccard queries; ``since`` / ``until``
selections; a time-decayed worker query; the coordinator's empty-cluster
``estimate: null, empty: true`` answer, its ``partial`` answer with one
worker stopped and its refusal of a temporal query.  The result-cache
hit / miss and partial-answer counts of each daemon are pinned beside
them, so a partial answer that starts counting as a miss fails here.

Regenerate only on a deliberate change to what ``/query`` answers:

    PYTHONPATH=src python tests/data/make_query_answers.py
"""

from __future__ import annotations

import http.client
import json
import pathlib
import re

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

FIXTURE = pathlib.Path(__file__).parent / "data" / "query_answers.json"

WEB = NamespaceConfig("web", ("h1", "h2", "h3"), k=16, salt=7)
IDS = NamespaceConfig("ids", ("h1", "h2"), k=12, salt=11)
N_SLOTS = 4
#: splits the 4 slots' top HRW scorers 2/2 between w1 and w2
SALT = 4
T0 = 1_767_226_020.0  # the first second of a minute bucket


class Clock:
    def __init__(self) -> None:
        self.now = T0

    def __call__(self) -> float:
        return self.now


def _batch(namespace: NamespaceConfig, lo: int, n: int):
    """Disjoint keys per ``lo``: strings for ``web``, ints for ``ids``."""
    rng = np.random.default_rng(lo + 3)
    keys = (
        [f"k{i}" for i in range(lo, lo + n)] if namespace is WEB
        else list(range(10 * lo, 10 * lo + 10 * n, 10))
    )
    return keys, {
        name: (rng.pareto(1.2 + 0.2 * j, n) + 0.05).tolist()
        for j, name in enumerate(namespace.assignments)
    }


def _post(port: int, request: dict) -> tuple[int, str]:
    """``POST /query``: the status and the exact reply body."""
    return _send(port, "POST", "/query", json.dumps(request).encode())


def _get(port: int, target: str) -> tuple[int, str]:
    return _send(port, "GET", target, b"")


def _send(port, method, target, body) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, target, body=body or None, headers=headers)
        reply = conn.getresponse()
        text = reply.read().decode("utf-8")
    finally:
        conn.close()
    # an error reply carries its request's random trace ID
    return reply.status, re.sub(r'"trace": "[^"]*"', '"trace": "*"', text)


#: the scripted queries of the worker rig: name -> request
WORKER_QUERIES = {
    "max": {"namespace": "web", "function": "max",
            "assignments": ["h1", "h2", "h3"]},
    "keys": {"namespace": "web", "function": "max",
             "assignments": ["h1", "h2"],
             "keys": ["k3", "k41", "k77", "k3", "nope"]},
    "single": {"namespace": "web", "function": "single",
               "assignments": ["h2"]},
    "lset": {"namespace": "web", "function": "min",
             "assignments": ["h1", "h3"], "estimator": "lset"},
    "l1": {"namespace": "web", "function": "l1",
           "assignments": ["h1", "h2"], "estimator": "l1-s"},
    "jaccard": {"namespace": "web", "kind": "jaccard",
                "assignments": ["h1", "h2"]},
    "jaccard_s": {"namespace": "web", "kind": "jaccard",
                  "assignments": ["h2", "h3"], "variant": "s"},
    "since_until": {"namespace": "web", "function": "max",
                    "assignments": ["h1", "h2"],
                    "since": "20260101T0008", "until": "20260101T0008"},
    "since": {"namespace": "web", "function": "lth_largest", "ell": 2,
              "assignments": ["h1", "h2", "h3"], "since": "20260101T0008"},
    "decay": {"namespace": "web", "function": "max",
              "assignments": ["h1", "h2"], "decay": "2m"},
    "ids_keys": {"namespace": "ids", "function": "max",
                 "assignments": ["h1", "h2"], "keys": [0, 70, 410, 1234]},
    "ids_jaccard": {"namespace": "ids", "kind": "jaccard",
                    "assignments": ["h1", "h2"]},
}

#: the coordinator answers the same grammar minus the temporal fields
CLUSTER_QUERIES = {
    name: request for name, request in WORKER_QUERIES.items()
    if name != "decay"
}


def _worker_config(root: pathlib.Path, namespaces) -> ServiceConfig:
    return ServiceConfig(
        store_root=str(root), namespaces=namespaces, port=0,
        granularity="minute", compact_to=None, tick_s=3600.0,
    )


def _counts(client: ServiceClient) -> dict:
    status = client.status()
    counters = status["runtime"]["counters"]
    counts = {
        "cache_hits": counters["cache_hits"],
        "cache_misses": counters["cache_misses"],
    }
    if "partial_answers" in status["stats"]:
        counts["partial_answers"] = status["stats"]["partial_answers"]
    return counts


def worker_answers(root: pathlib.Path) -> dict:
    """One worker: three stored minute buckets and a live window."""
    clock = Clock()
    config = _worker_config(root / "worker", (WEB, IDS))
    thread = ServiceThread(config, clock=clock)
    port = thread.start()
    client = ServiceClient(port=port)
    answers: dict = {}
    try:
        answers["no_data"] = _post(port, WORKER_QUERIES["max"])
        for minute in range(4):
            clock.now = T0 + 60.0 * minute
            for namespace in (WEB, IDS):
                client.ingest(
                    namespace.name, *_batch(namespace, 30 * minute, 30),
                    sync=True,
                )
            if minute < 3:  # the last minute stays in the live window
                client.rotate()
        for name, request in WORKER_QUERIES.items():
            answers[f"{name}/fresh"] = _post(port, request)
        for name, request in WORKER_QUERIES.items():
            answers[f"{name}/cached"] = _post(port, request)
        answers["get"] = _get(
            port, "/query?namespace=web&function=max&assignments=h1,h2"
            "&keys=k3,k41"
        )
        answers["counts"] = _counts(client)
        client.close()
        thread.stop()
        thread = ServiceThread(config, clock=clock)
        port = thread.start()
        client = ServiceClient(port=port)
        for name, request in WORKER_QUERIES.items():
            answers[f"{name}/restart"] = _post(port, request)
        answers["counts/restart"] = _counts(client)
    finally:
        client.close()
        thread.stop()
    return answers


def cluster_answers(root: pathlib.Path) -> dict:
    """A coordinator and two workers, replication 1: one worker stopped
    leaves half the slots unanswered."""
    clock = Clock()
    coordinator_config = CoordinatorConfig(
        root=str(root / "coordinator"), namespaces=(WEB, IDS), port=0,
        n_slots=N_SLOTS, replication=1, salt=SALT, heartbeat_s=3600.0,
        repair_interval_s=0.0,
    )
    coordinator = CoordinatorThread(coordinator_config, clock=clock)
    port = coordinator.start()
    client = ServiceClient(port=port)
    workers: dict = {}
    answers: dict = {}
    try:
        for worker_id in ("w1", "w2"):
            thread = ServiceThread(_worker_config(
                root / worker_id,
                slot_namespace_configs(WEB, N_SLOTS)
                + slot_namespace_configs(IDS, N_SLOTS),
            ), clock=clock)
            workers[worker_id] = (thread, ServiceClient(port=thread.start()))
            client.cluster_join(worker_id, "127.0.0.1", thread.service.port)
        answers["empty/fresh"] = _post(port, CLUSTER_QUERIES["max"])
        answers["empty/cached"] = _post(port, CLUSTER_QUERIES["max"])
        for minute in range(4):
            clock.now = T0 + 60.0 * minute
            for namespace in (WEB, IDS):
                client.ingest(
                    namespace.name, *_batch(namespace, 30 * minute, 30),
                    sync=True,
                )
            if minute < 3:
                for _thread, worker in workers.values():
                    worker.rotate()
        for name, request in CLUSTER_QUERIES.items():
            answers[f"{name}/fresh"] = _post(port, request)
        for name, request in CLUSTER_QUERIES.items():
            answers[f"{name}/cached"] = _post(port, request)
        answers["decay/refused"] = _post(port, WORKER_QUERIES["decay"])
        answers["window/refused"] = _get(
            port, "/query?namespace=web&function=max&assignments=h1,h2"
            "&window=1m"
        )
        answers["get"] = _get(
            port, "/query?namespace=web&function=max&assignments=h1,h2"
            "&keys=k3,k41"
        )
        answers["counts"] = _counts(client)
        client.close()
        coordinator.stop()
        coordinator = CoordinatorThread(coordinator_config, clock=clock)
        port = coordinator.start()
        client = ServiceClient(port=port)
        for name, request in CLUSTER_QUERIES.items():
            answers[f"{name}/restart"] = _post(port, request)
        answers["counts/restart"] = _counts(client)
        thread, worker = workers.pop("w2")
        worker.close()
        thread.stop()
        for name in ("max", "keys", "jaccard"):
            answers[f"{name}/partial"] = _post(port, CLUSTER_QUERIES[name])
        answers["max/partial-again"] = _post(port, CLUSTER_QUERIES["max"])
        answers["counts/partial"] = _counts(client)
    finally:
        client.close()
        coordinator.stop()
        for thread, worker in workers.values():
            worker.close()
            thread.stop()
    return answers


def query_answers(root: pathlib.Path) -> dict:
    return {
        "worker": worker_answers(root / "single"),
        "cluster": cluster_answers(root / "cluster"),
    }


def _jsonable(answers: dict) -> dict:
    return json.loads(json.dumps(answers))


def test_query_reply_bytes_are_pinned(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    served = _jsonable(query_answers(tmp_path))
    assert set(served) == set(expected)
    for daemon in expected:
        assert list(served[daemon]) == list(expected[daemon]), daemon
        for case, reply in expected[daemon].items():
            assert served[daemon][case] == reply, f"{daemon} {case}"
