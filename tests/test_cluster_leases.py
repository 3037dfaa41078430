"""Leased version vectors: a warm coordinator query is answered from
memory, and every event that can move a slot token ends the lease first.

A worker's ``GET /bundle?have=`` frame grants ``lease_s``: the time until
its next bucket boundary or compaction, 0 while it holds an accepted,
unapplied ingest batch.  The coordinator keeps the version vector of its
last complete read for the shortest such lease (at most ``heartbeat_s``,
from the fetch's send time) and while its epoch stands; every write it
sends a worker, every membership change and every stale / degraded mark
moves the epoch.  A worker that closes the coordinator's connections
(a stop, a crash) ends its lease too.

Every case runs on a frozen clock, with no sleep: the next answer equals
an offline engine over the applied events, and its ``version`` equals a
fresh read's vector — except for a direct ``/rotate`` (a token moves, the
answer does not) and a foreign ingest (seen once the lease has run out),
which the contract names.
"""

from __future__ import annotations

import contextlib
import json
import threading

import numpy as np
import pytest

from repro.core.predicates import key_in
from repro.service import (
    FaultPlan,
    FaultRule,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.cluster import (
    CoordinatorConfig,
    slot_for_key,
    slot_namespace,
    slot_namespace_configs,
)
from repro.service.cluster.coordinator import CoordinatorService
from repro.store.codec import (
    CodecError,
    _BlobWriter,
    decode_bundle_batch,
    decode_event_batch,
    encode,
    encode_bundle_batch,
)
from tests.test_cluster_query_plane import (
    N_SLOTS,
    NS,
    SALT,
    SPEC,
    Rig,
    event_batch,
    offline_engine,
)

#: the Rig's clock sits 40 s into a minute bucket: a worker lease is the
#: 20 s to the boundary less the 0.5 s margin
LEASE_S = 19.5
HELD = {slot_namespace("web", slot): None for slot in range(N_SLOTS)}


@pytest.fixture
def rig(tmp_path):
    built = Rig(tmp_path)
    yield built
    built.close()


def answer(rig, batches, keys=None) -> tuple[dict, bool]:
    """The coordinator's answer, checked against the offline engine over
    ``batches``, and whether it was served without a worker request."""
    before = rig.bundle_requests()
    served = rig.client.estimate("web", "max", ["h1", "h2"], keys=keys)
    expected = offline_engine(batches).estimate(
        SPEC, predicate=None if keys is None else key_in(keys)
    )
    assert served["partial"] is False, served
    assert served["estimate"] == expected, served
    return served, rig.bundle_requests() == before


def fresh_vector(rig) -> str:
    """The version vector a read of every slot names right now."""
    return rig.service.read("web", None, None).version


def ingest(rig, batch, sync: bool = True) -> dict:
    reply = rig.client.ingest("web", *batch, sync=sync)
    assert reply["ok"], reply
    return reply


def test_a_warm_query_inside_the_lease_contacts_no_worker(rig):
    a = event_batch(0)
    ingest(rig, a)
    first, leased = answer(rig, [a])
    assert not leased and first["version"] == fresh_vector(rig)
    for keys in (["k1", "k7"], ["k3", "nope"], None):
        served, leased = answer(rig, [a], keys)
        assert leased and served["version"] == first["version"]
    frame = rig.clients["w1"].bundles(HELD)
    assert decode_bundle_batch(frame, list(HELD)).lease_s == LEASE_S


def test_a_routed_sync_ingest_ends_the_lease(rig):
    a, b = event_batch(0), event_batch(500)
    ingest(rig, a)
    answer(rig, [a])
    ingest(rig, b)
    served, leased = answer(rig, [a, b], ["k1", "k501"])
    assert not leased and served["version"] == fresh_vector(rig)
    assert answer(rig, [a, b], ["k2"])[1]


def test_no_lease_while_a_worker_holds_an_async_batch(rig):
    a, b, c = event_batch(0), event_batch(500), event_batch(900)
    ingest(rig, a)
    answer(rig, [a])
    gates = []
    for thread in rig.workers.values():
        gate, apply = threading.Event(), thread.service._apply_batch
        gates.append(gate)

        def held(sections, parent, gate=gate, apply=apply):
            assert gate.wait(30), "the test never released the batch"
            return apply(sections, parent)

        thread.service._apply_batch = held
    try:
        assert ingest(rig, b, sync=False)["deliveries"] == 2 * N_SLOTS
        for client in rig.clients.values():
            frame = client.bundles(HELD)
            assert decode_bundle_batch(frame, list(HELD)).lease_s == 0.0
        # acknowledged, not applied: every query reads, and reads A
        for keys in (None, ["k1"]):
            served, leased = answer(rig, [a], keys)
            assert not leased and served["version"] == fresh_vector(rig)
    finally:
        for gate in gates:
            gate.set()
    # a sync batch queues behind B, so its ack means B is applied too
    ingest(rig, c)
    served, leased = answer(rig, [a, b, c])
    assert not leased and served["version"] == fresh_vector(rig)
    assert answer(rig, [a, b, c], ["k1", "k901"])[1]


def test_the_clock_crossing_a_bucket_boundary_ends_the_lease(rig):
    a = event_batch(0)
    ingest(rig, a)
    answer(rig, [a])
    assert answer(rig, [a], ["k1"])[1]
    rig.clock.now += 30.0  # 10 s past the boundary
    served, leased = answer(rig, [a], ["k2"])
    assert not leased and served["version"] == fresh_vector(rig)
    # the reply rotated the closed windows before it read its lease, so
    # the lease runs to the next boundary, not to the ticker's rotation
    assert answer(rig, [a], ["k3"])[1]
    for thread in rig.workers.values():
        assert not thread.service.manager.rotate()  # nothing left to rotate
    assert answer(rig, [a], ["k4"])[1]


class CompactingRig(Rig):
    """A Rig whose workers compact to hours every minute of the clock."""

    def spawn(self, worker_id: str) -> ServiceThread:
        thread = ServiceThread(
            ServiceConfig(
                store_root=str(self.root / worker_id),
                namespaces=slot_namespace_configs(NS, N_SLOTS),
                port=0, compact_to="hour", compact_every_s=60.0,
                tick_s=3600.0,
            ),
            clock=self.clock,
        )
        thread.start()
        self.workers[worker_id] = thread
        self.clients[worker_id] = ServiceClient(port=thread.service.port)
        self.clients[worker_id].wait_ready()
        self.dead.discard(worker_id)
        return thread


def test_a_compaction_falling_due_ends_the_lease(tmp_path):
    rig = CompactingRig(tmp_path)
    try:
        a = event_batch(0)
        ingest(rig, a)
        rig.clock.now += 30.0  # into the next minute; compaction due +30
        for thread in rig.workers.values():
            assert thread.service.manager.rotate()
        answer(rig, [a])
        assert answer(rig, [a], ["k1"])[1]
        rig.clock.now += 30.0  # compaction due, not yet run
        served, leased = answer(rig, [a], ["k2"])
        assert not leased and served["version"] == fresh_vector(rig)
        assert not answer(rig, [a], ["k3"])[1]
        for thread in rig.workers.values():  # the ticker's step
            thread.service._compact_if_due(rig.clock.now)
            assert any(
                len(entry.bucket) == 11  # an hour bucket id
                for entry in thread.service.store.entries(
                    slot_namespace("web", 0)
                )
            )
        served, leased = answer(rig, [a], ["k4"])
        assert not leased and served["version"] == fresh_vector(rig)
        assert answer(rig, [a], ["k5"])[1]
    finally:
        rig.close()


def test_a_direct_rotate_moves_a_token_not_the_answer(rig):
    a = event_batch(0)
    ingest(rig, a)
    first, _ = answer(rig, [a])
    rig.clients["w1"].rotate()  # a flush no coordinator sent
    served, leased = answer(rig, [a], ["k1"])
    assert leased and served["version"] == first["version"]
    rig.clock.now += LEASE_S
    served, leased = answer(rig, [a], ["k2"])
    assert not leased and served["version"] != first["version"]
    assert served["version"] == fresh_vector(rig)


def test_a_foreign_ingest_shows_once_the_lease_has_run_out(tmp_path):
    rig = Rig(tmp_path, replication=1)
    try:
        a = event_batch(0)
        ingest(rig, a)
        first, _ = answer(rig, [a])
        # events for one slot, written straight into its only owner
        keys, weights = event_batch(700)
        slot = slot_for_key(keys[0], N_SLOTS, SALT)
        picked = [
            i for i, key in enumerate(keys)
            if slot_for_key(key, N_SLOTS, SALT) == slot
        ]
        foreign = (
            [keys[i] for i in picked],
            {name: [w[i] for i in picked] for name, w in weights.items()},
        )
        [owner] = rig.service.topology.slot_owners(slot, ["w1", "w2"])
        rig.clients[owner].ingest(
            slot_namespace("web", slot), *foreign, sync=True
        )
        served, leased = answer(rig, [a], ["k1"])
        assert leased and served["version"] == first["version"]
        rig.clock.now += LEASE_S
        served, leased = answer(rig, [a, foreign])
        assert not leased and served["version"] == fresh_vector(rig)
    finally:
        rig.close()


def test_membership_and_health_changes_end_the_lease(rig):
    a, b = event_batch(0), event_batch(500)
    ingest(rig, a)
    answer(rig, [a])
    assert answer(rig, [a], ["k1"])[1]
    rig.join("w3")
    served, leased = answer(rig, [a], ["k2"])
    assert not leased and served["version"] == fresh_vector(rig)
    assert answer(rig, [a], ["k3"])[1]
    rig.leave("w3")
    served, leased = answer(rig, [a], ["k4"])
    assert not leased and served["version"] == fresh_vector(rig)
    # w2 refuses one routed batch: its copies go stale
    rig.workers["w2"].service.install_faults(
        FaultPlan(3, [FaultRule(
            "error", verb="/ingest", status=429, limit=1, scope="w2",
        )]),
        scope="w2",
    )
    assert ingest(rig, b)["missed_replicas"]
    served, leased = answer(rig, [a, b])
    assert not leased and served["version"] == fresh_vector(rig)
    assert served["sources"]["workers"] == 1
    assert answer(rig, [a, b], ["k5"])[1]
    rig.repair()  # clears the stale marks: the epoch moves
    assert not rig.service._stale.get("w2")
    served, leased = answer(rig, [a, b], ["k6"])
    assert not leased and served["version"] == fresh_vector(rig)
    assert served["sources"]["workers"] == 2


def test_promotion_to_failed_ends_the_lease(rig):
    """A worker that misses heartbeats is promoted without any request
    to a worker: the health change alone ends the lease."""
    a = event_batch(0)
    ingest(rig, a)
    answer(rig, [a])
    assert answer(rig, [a], ["k1"])[1]
    rig.service.runtime.cluster_mark("w2", alive=False, now=rig.clock.now)
    rig.clock.now += rig.service.config.fail_after_s  # inside the lease
    assert rig.service.repairs.promote_failed() == ["w2"]
    served, leased = answer(rig, [a], ["k2"])
    assert not leased and served["version"] == fresh_vector(rig)
    assert served["sources"]["workers"] == 1


def test_a_stopped_worker_ends_its_lease(tmp_path):
    """A clean stop closes the coordinator's keep-alive connections: the
    next query reads, and is loudly partial at replication 1."""
    rig = Rig(tmp_path, replication=1)
    try:
        a = event_batch(0)
        ingest(rig, a)
        answer(rig, [a])
        assert answer(rig, [a], ["k1"])[1]
        rig.workers.pop("w2").stop()
        rig.clients.pop("w2").close()
        served = rig.client.estimate("web", "max", ["h1", "h2"], keys=["k1"])
        assert served["partial"] is True and served["missing_slots"]
    finally:
        rig.close()


# -- the gather-vs-ingest race, against stub workers -------------------------


class LeasingStub:
    """A worker client that applies routed frames and grants a lease on
    every bundle frame."""

    def __init__(self) -> None:
        self.events = {name: [] for name in HELD}

    def ingest_frame(self, frame, namespaces) -> dict:
        for section in decode_event_batch(frame).sections:
            keys = section.keys
            self.events[section.namespace].append((
                keys.tolist() if isinstance(keys, np.ndarray) else keys,
                {name: np.array(w) for name, w in section.weights.items()},
            ))
        return {"ok": True}

    def bundles(self, held, since=None, until=None, timeout=None) -> bytes:
        sections = []
        for name, token in held.items():
            version = f"t{len(self.events[name])}"
            if token == version:
                sections.append((name, "unchanged", version, None))
            elif not self.events[name]:
                sections.append((name, "empty", version, None))
            else:
                summarizer = NS.make_summarizer()
                for keys, weights in self.events[name]:
                    summarizer.ingest_multi(keys, weights)
                blob = encode(summarizer.sketch_bundle())
                sections.append((name, "bundle", version, blob))
        return encode_bundle_batch(sections, 30.0)

    def connected(self, blocking: bool = True) -> bool:
        return True

    def close(self) -> None:
        pass


QUERY = {"namespace": "web", "function": "max", "assignments": ["h1", "h2"]}


def routed(batch) -> bytes:
    keys, weights = batch
    return json.dumps({
        "namespace": "web", "keys": keys, "weights": weights, "sync": True,
    }).encode()


@pytest.fixture
def stubbed(tmp_path):
    service = CoordinatorService(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,),
        n_slots=N_SLOTS, replication=2, salt=SALT,
    ), clock=lambda: 1_767_226_000.0)
    for port, worker_id in enumerate(("w1", "w2"), start=1):
        service.runtime.cluster_join(worker_id, "stub", port, now=0.0)
        service._clients[worker_id] = LeasingStub()
    yield service
    service._fanout.shutdown()
    service.runtime.close()


def check_gather_vs_ingest_race(service) -> None:
    """A read that starts once a routed batch's write has begun, and
    reads the workers before the batch reaches them, must not lease the
    state the batch replaced."""
    a, b = event_batch(0), event_batch(500)
    service._route_ingest(routed(a))
    assert service._answer_query(dict(QUERY))["estimate"] == (
        offline_engine([a]).estimate(SPEC)
    )
    began = threading.Event()

    def revoke(revoke=service._revoke) -> None:
        revoke()
        began.set()

    service._revoke = revoke
    acks: list = []
    # the cluster lock held here keeps B's deliveries waiting
    with service._cluster_lock:
        writer = threading.Thread(
            target=lambda: acks.append(service._route_ingest(routed(b)))
        )
        writer.start()
        assert began.wait(30), "the routed write never began"
        overlapped = service._answer_query(dict(QUERY))  # re-entrant lock
        assert overlapped["estimate"] == offline_engine([a]).estimate(SPEC)
    writer.join(30)
    assert acks and acks[0]["deliveries"] == 2 * N_SLOTS
    served = service._answer_query(dict(QUERY))
    assert served["estimate"] == offline_engine([a, b]).estimate(SPEC), (
        "a read that overlapped the ingest leased the state before it"
    )
    assert served["version"] == service.read("web", None, None).version


def test_a_read_overlapping_a_routed_ingest_leases_nothing(stubbed):
    check_gather_vs_ingest_race(stubbed)


def test_mutant_without_the_post_delivery_bump_is_caught(
    stubbed, monkeypatch
):
    @contextlib.contextmanager
    def entry_bump_only(self):
        self._revoke()
        yield

    monkeypatch.setattr(CoordinatorService, "_writing", entry_bump_only)
    with pytest.raises(AssertionError, match="overlapped the ingest"):
        check_gather_vs_ingest_race(stubbed)


# -- the lease on the wire -----------------------------------------------------


def test_the_lease_rides_in_the_frame():
    rows = [("web--s000", "empty", "t0", None)]
    assert decode_bundle_batch(encode_bundle_batch(rows)).lease_s == 0.0
    assert decode_bundle_batch(encode_bundle_batch(rows, 12.25)).lease_s == (
        12.25
    )
    assert encode_bundle_batch(rows, 1.0) != encode_bundle_batch(rows, 2.0)


@pytest.mark.parametrize("lease", [
    np.array([-1.0]), np.array([np.nan]), np.array([np.inf]),
    np.array([1.0, 2.0]), np.array([3], dtype="<i8"),
], ids=["negative", "nan", "inf", "two", "int"])
def test_a_lying_lease_is_a_codec_error(lease):
    writer = _BlobWriter("bundle_batch", {
        "sections": [["web--s000", "empty", "t0"]], "bundles": None,
    })
    writer.add_array("lease_s", lease)
    with pytest.raises(CodecError, match="lease"):
        decode_bundle_batch(writer.render())
