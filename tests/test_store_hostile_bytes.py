"""Hostile bytes on the store read path: a damaged artifact row.

Artifacts are rows of ``runtime.sqlite``.  Whatever damages one — a
flipped bit, a torn copy, a hand edit — every reader of it must fail with
a typed :class:`~repro.store.CodecError` and never answer:
``SummaryStore.load``, the service planner's first query, a coordinator
decoding the bytes a worker ships, and ``import_bundle`` on the
receiving side of a handoff.  A coordinator over that worker reports the
slot missing (``partial``) instead of answering from it.
"""

from __future__ import annotations

import sqlite3
from datetime import datetime, timezone

import numpy as np
import pytest

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
    slot_namespace,
    slot_namespace_configs,
)
from repro.service.planner import QueryPlanner
from repro.service.windows import LiveWindowManager
from repro.store import CodecError, SummaryStore
from repro.store.codec import decode, encode
from tests.test_ingest_frames import reheader

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=9)
BUCKET = "20260728T1100"
T0 = datetime(2026, 7, 28, 12, 0, 30, tzinfo=timezone.utc).timestamp()


def flipped(blob: bytes) -> bytes:
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0x5A]) + blob[middle + 1:]


def truncated(blob: bytes) -> bytes:
    return blob[: len(blob) * 2 // 3]


@pytest.fixture(params=[flipped, truncated], ids=["flipped", "truncated"])
def damage(request):
    return request.param


def damaged_store(root, damage, namespace: str = "web"):
    """A store whose one bundle row holds damaged bytes: (store, entry,
    the damaged bytes)."""
    summarizer = NS.make_summarizer()
    keys = [f"k{i}" for i in range(60)]
    weights = np.linspace(1.0, 4.0, len(keys))
    summarizer.ingest_multi(keys, {"h1": weights, "h2": weights * 2.0})
    store = SummaryStore(root)
    entry = store.write(namespace, BUCKET, summarizer.sketch_bundle())
    blob = damage(store.read_blob(namespace, BUCKET, entry.part))
    db = sqlite3.connect(store.runtime.path)
    with db:
        db.execute(
            "UPDATE artifacts SET data = ? WHERE namespace = ? AND "
            "bucket = ? AND part = ?",
            (blob, namespace, BUCKET, entry.part),
        )
    db.close()
    return store, entry, blob


@pytest.fixture
def damaged(damage, tmp_path):
    store, entry, blob = damaged_store(tmp_path / "store", damage)
    yield store, entry, blob
    store.runtime.close()


def test_load_refuses(damaged):
    store, entry, _blob = damaged
    with pytest.raises(CodecError):
        store.load(entry)


def test_planner_first_query_refuses_and_caches_nothing(damaged):
    store, _entry, _blob = damaged
    planner = QueryPlanner(LiveWindowManager(store, [NS], clock=lambda: T0))
    for _attempt in range(2):  # nothing was memoized by the failure
        with pytest.raises(CodecError):
            planner.estimate("web", "max", ("h1", "h2"))
    assert store.runtime.cache_stats()["entries"] == 0


def test_worker_bytes_refused_by_the_coordinator(damaged):
    store, entry, blob = damaged
    config = ServiceConfig(
        store_root=str(store.root), namespaces=(NS,), port=0,
        compact_to=None, tick_s=0.05,
    )
    with ServiceThread(config) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        # the handoff source ships the row verbatim; the coordinator's
        # decode is where the damage must surface
        shipped = client.fetch_artifact("web", BUCKET, entry.part)
        assert shipped == blob
        with pytest.raises(CodecError):
            decode(shipped, verify=True)
        # the worker's own views decode the row: a 400, never a frame
        with pytest.raises(ServiceError) as excinfo:
            client.bundles({"web": None})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.estimate("web", "max", ["h1", "h2"])
        assert excinfo.value.status == 400
        client.close()


def test_coordinator_over_that_worker_answers_partial(damage, tmp_path):
    """End to end: the worker's ``GET /bundle`` refuses the damaged slot,
    so the coordinator reports it missing — never an estimate from it."""
    slot_store, _entry, _blob = damaged_store(
        tmp_path / "w1", damage, slot_namespace("web", 0)
    )
    slot_store.runtime.close()
    worker = ServiceThread(ServiceConfig(
        store_root=str(tmp_path / "w1"),
        namespaces=slot_namespace_configs(NS, 1),
        port=0, compact_to=None, tick_s=3600.0,
    ), clock=lambda: T0)
    coordinator = CoordinatorThread(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,), port=0,
        n_slots=1, replication=1, heartbeat_s=3600.0,
    ), clock=lambda: T0)
    with worker, coordinator:
        client = ServiceClient(port=coordinator.service.port)
        client.cluster_join("w1", "127.0.0.1", worker.service.port)
        answer = client.estimate("web", "max", ["h1", "h2"])
        assert answer["partial"] is True
        assert answer["missing_slots"] == [0]
        client.close()


def test_import_bundle_refuses(damaged, tmp_path):
    _store, _entry, blob = damaged
    receiver = SummaryStore(tmp_path / "receiver")
    with pytest.raises(CodecError):
        receiver.import_bundle("web", BUCKET, "ho-0000", blob)
    assert receiver.entries() == []
    assert receiver.version() == "r0"


def test_post_bundle_with_a_lying_header_is_a_400(tmp_path):
    """A ``POST /bundle`` body whose checksum holds but whose header lies
    is the sender's fault: a 400 naming the codec, never a 404 or a 500,
    and nothing is published or counted as the daemon's own failure."""
    summarizer = NS.make_summarizer()
    summarizer.ingest_multi(["a", "b"], {"h1": [1.0, 2.0], "h2": [3.0, 4.0]})
    blob = encode(summarizer.sketch_bundle())
    lies = [
        lambda header: header["meta"].__setitem__("family", 5),
        lambda header: header["meta"].pop("names"),
        lambda header: header["meta"].__setitem__("names", 3),
    ]
    config = ServiceConfig(
        store_root=str(tmp_path / "store"), namespaces=(NS,), port=0,
        compact_to=None, tick_s=3600.0,
    )
    with ServiceThread(config, clock=lambda: T0) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        for index, edit in enumerate(lies):
            with pytest.raises(ServiceError) as excinfo:
                client.put_bundle(
                    "web", BUCKET, f"ho-{index:04d}", reheader(blob, edit)
                )
            assert excinfo.value.status == 400
            assert "sketch_bundle blob does not decode" in str(excinfo.value)
        assert client.status()["stats"]["last_error"] is None
        client.put_bundle("web", BUCKET, "ho-0000", blob)  # the honest one
        client.close()
    assert [entry.part for entry in SummaryStore(
        tmp_path / "store", create=False
    ).entries("web")] == ["ho-0000"]
