"""The bytes a slotted cluster's workers store, pinned per slot.

A coordinator routes ingests for two logical namespaces (integer and
string keys) into two replication-2 workers over 8 slots; a query, a
bucket boundary, a flush and more ingests follow, then a clean shutdown.
Every worker then holds, per slot namespace, its ``live`` bundles and
its ``live-window`` checkpoint.  ``tests/data/slot_artifacts.json`` pins
the SHA-256 of each: how a worker keeps its slots in memory may change,
what it stores per slot may not.

Regenerate only on a deliberate change to the stored bytes:

    PYTHONPATH=src python tests/data/make_slot_artifacts.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.engine.sharded import ShardedSummarizer
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
from repro.service.windows import (
    CHECKPOINT_PART,
    LIVE_PART,
    LiveWindowManager,
)
from repro.store.codec import decode, encode
from repro.store.store import SummaryStore

FIXTURE = pathlib.Path(__file__).parent / "data" / "slot_artifacts.json"

WEB = NamespaceConfig("web", ("h1", "h2"), k=8, salt=21)
DNS = NamespaceConfig("dns", ("q",), k=5, salt=9)
N_SLOTS = 8


class Clock:
    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


def _batch(rng, segment: int, size: int, strings: bool):
    ids = rng.integers(0, size // 2, size=size)
    keys = (
        [f"q{segment}-{key}" for key in ids.tolist()] if strings
        else (ids + segment * 1_000_000).tolist()
    )
    return keys, rng.exponential(3.0, size=size).round(3).tolist()


def slot_artifact_digests(root: pathlib.Path) -> dict[str, str]:
    """Run the fixed cluster scenario under ``root``; return
    ``"<worker>/<namespace>/<bucket>/<part>" -> SHA-256`` of every
    per-slot ``live`` and ``live-window`` artifact it leaves."""
    clock = Clock()
    workers = {}
    for worker_id in ("w1", "w2"):
        thread = ServiceThread(
            ServiceConfig(
                store_root=str(root / worker_id),
                namespaces=(
                    slot_namespace_configs(WEB, N_SLOTS)
                    + slot_namespace_configs(DNS, N_SLOTS)
                ),
                port=0, compact_to=None, tick_s=3600.0,
            ),
            clock=clock,
        )
        thread.start()
        workers[worker_id] = thread
    coordinator = CoordinatorThread(
        CoordinatorConfig(
            root=str(root / "coordinator"), namespaces=(WEB, DNS), port=0,
            n_slots=N_SLOTS, replication=2, heartbeat_s=3600.0,
            repair_interval_s=0.0,
        ),
        clock=clock,
    )
    coordinator.start()
    client = ServiceClient(port=coordinator.service.port)
    rng = np.random.default_rng(49)
    segment = 0

    def ingest(rounds: int) -> None:
        nonlocal segment
        for _ in range(rounds):
            keys, weights = _batch(rng, segment, 400, strings=False)
            client.ingest("web", keys, {
                "h1": weights, "h2": (np.asarray(weights) * 0.5).tolist(),
            }, sync=True)
            keys, weights = _batch(rng, segment, 60, strings=True)
            client.ingest("dns", keys, {"q": weights}, sync=True)
        segment += 1

    try:
        for worker_id, thread in workers.items():
            client.cluster_join(worker_id, "127.0.0.1", thread.service.port)
        ingest(3)
        client.estimate("web", "max", ("h1", "h2"))
        clock.now += 60.0  # into the next minute: the next ingest rotates
        ingest(2)
        for thread in workers.values():
            ServiceClient(port=thread.service.port).rotate()  # a flush
        ingest(2)
    finally:
        client.close()
        coordinator.stop()
        for thread in workers.values():
            thread.stop()
    digests = {}
    for worker_id in workers:
        store = SummaryStore(root / worker_id)
        try:
            for namespace in sorted(store.namespaces()):
                for entry in store.entries(namespace):
                    if entry.part not in (LIVE_PART, CHECKPOINT_PART):
                        continue
                    blob = store.read_blob(namespace, entry.bucket, entry.part)
                    digests[
                        f"{worker_id}/{namespace}/{entry.bucket}/{entry.part}"
                    ] = hashlib.sha256(blob).hexdigest()
        finally:
            store.runtime.close()
    return digests


def test_every_per_slot_artifact_keeps_its_bytes(tmp_path):
    pinned = json.loads(FIXTURE.read_text())
    assert slot_artifact_digests(tmp_path) == pinned


def test_a_read_of_one_slot_stores_its_unread_sibling_folded(tmp_path):
    """The one stored-byte change of the shared slot table: a read of any
    slot folds the whole group, so a flush after it stores an unread
    sibling's checkpoint as its folded table, where a summarizer of that
    slot alone would still hold its raw events.  Both forms restore to
    the same state; the stored one is exactly what that summarizer
    stores after a read of its own."""
    configs = slot_namespace_configs(WEB, 2)
    manager = LiveWindowManager(SummaryStore(tmp_path), configs, clock=Clock())
    alone = [WEB.make_summarizer() for _ in configs]
    rng = np.random.default_rng(49)
    for slot, config in enumerate(configs):
        keys = (rng.integers(0, 50, size=200) * 2 + slot).tolist()
        h1 = rng.exponential(3.0, size=200)
        weights = {"h1": h1, "h2": h1 * 0.5}
        manager.ingest(config.name, keys, weights)
        alone[slot].ingest_multi(keys, weights)
    manager.live_view(configs[0].name)  # slot 1 is never read
    alone[0].finalize()  # what the read does to slot 0 alone
    manager.rotate(force=True)  # a flush: checkpoints and bundles
    bucket = manager.live_info(configs[1].name)["bucket"]
    for slot, config in enumerate(configs):
        stored = manager.store.read_blob(config.name, bucket, CHECKPOINT_PART)
        unshared = encode(alone[slot].checkpoint_state())
        assert (stored == unshared) == (slot == 0)
        alone[slot].finalize()
        assert stored == encode(alone[slot].checkpoint_state())
        assert decode(stored).buffered_events == (
            alone[slot].buffered_events
        )
        raw, held = (
            ShardedSummarizer.from_checkpoint(decode(blob)).sketches()
            for blob in (unshared, stored)
        )
        for name, sketch in raw.items():
            assert sketch.equals(held[name])
