"""Which owner a cluster query reads each slot from, and what a rejoin
forgets.

* **reads spread over the replicas** — each slot's first choice is the
  least-loaded alive owner so far, in slot order, so with every slot on
  both workers a query asks each of them for half the slots, whatever
  the topology salt; the plan is stable, so a query over unchanged slots
  still sends one conditional request per worker and moves no bundle;
* **a rejoin purges the result cache** — a worker that rejoins on a
  wiped root restarts its version tokens, so a cached answer keyed on a
  vector that names it may recur for other data.
"""

from __future__ import annotations

import pytest

from repro.service.cluster import CoordinatorConfig, slot_namespace
from repro.service.cluster.coordinator import CoordinatorService
from tests.test_cluster_query_plane import (
    EXPECT_A,
    EXPECT_B,
    NS,
    QUERY,
    StubWorker,
    event_batch,
    slot_bundles,
    stubbed,  # noqa: F401 - the fixture
)


def empty_cluster(root, salt: int, n_slots: int = 8) -> tuple:
    """A coordinator (never started) over two stub workers at
    replication 2 whose slots are all empty at token ``t1``."""
    service = CoordinatorService(CoordinatorConfig(
        root=str(root), namespaces=(NS,), n_slots=n_slots, replication=2,
        salt=salt,
    ))
    stubs = {"w1": StubWorker(), "w2": StubWorker()}
    for port, (worker_id, stub) in enumerate(stubs.items(), start=1):
        service.runtime.cluster_join(worker_id, "stub", port, now=0.0)
        service._clients[worker_id] = stub
        stub.slots = {
            slot_namespace("web", slot): ("t1", None)
            for slot in range(n_slots)
        }
    return service, stubs


def close(service) -> None:
    service._fanout.shutdown()
    service.runtime.close()


@pytest.mark.parametrize("salt", range(20))
def test_reads_split_evenly_over_two_replicas(tmp_path, salt):
    """Regression: rendezvous order alone sends 7 of 8 slots to one
    worker for some salts (the benchmark topology among them)."""
    service, stubs = empty_cluster(tmp_path, salt)
    try:
        _, missing, _ = service._gather("web", None, None)
        assert missing == []
        first = {name: list(stub.asked[-1]) for name, stub in stubs.items()}
        counts = sorted(len(slots) for slots in first.values())
        assert counts[-1] - counts[0] <= 1, first
        assert sum(counts) == 8

        # unchanged slots: the same plan, one request per worker, every
        # token held, no bundle moved
        _, _, again = service._gather("web", None, None)
        assert again["slots"] == 0
        for worker, stub in stubs.items():
            assert len(stub.asked) == 2
            assert list(stub.asked[-1]) == first[worker]
            assert set(stub.asked[-1].values()) == {"t1"}
    finally:
        close(service)


def test_dead_marked_owners_are_not_first_choices(tmp_path):
    service, stubs = empty_cluster(tmp_path, salt=0)
    try:
        service.runtime.cluster_mark("w2", alive=False, now=0.0)
        service._gather("web", None, None)
        assert len(stubs["w1"].asked[-1]) == 8 and not stubs["w2"].asked
        # the dead-marked owner is still each slot's failover
        stubs["w1"].fail = ConnectionRefusedError("killed")
        _, missing, _ = service._gather("web", None, None)
        assert missing == [] and len(stubs["w2"].asked[-1]) == 8
    finally:
        close(service)


def test_a_rejoin_purges_cached_answers_naming_it(stubbed):  # noqa: F811
    """Regression (the parent answers ``EXPECT_A`` from its cache): w1
    rejoins on a wiped root and mints ``t1`` again, for other data."""
    service, stubs = stubbed
    service.runtime.cluster_mark("w2", alive=False, now=0.0)  # read w1 only
    first = service._answer_query(dict(QUERY))
    assert first["estimate"] == EXPECT_A and first["sources"]["workers"] == 1
    # an answer whose vector names only w2 must outlive w1's rejoin
    service.runtime.cluster_mark("w1", alive=False, now=0.0)
    service.runtime.cluster_mark("w2", alive=True, now=0.0)
    other = {**QUERY, "keys": ["k1", "k2"]}
    assert service._answer_query(dict(other))["cached"] is False

    stubs["w1"].slots = {
        name: ("t1", bundle)
        for name, bundle in slot_bundles([event_batch(500)]).items()
    }
    service._join("w1", "stub", 1)
    service._clients["w1"] = stubs["w1"]
    service._stale.clear()  # as after a completed repair
    service.runtime.cluster_mark("w1", alive=False, now=0.0)
    assert service._answer_query(dict(other))["cached"] is True
    service.runtime.cluster_mark("w1", alive=True, now=0.0)
    service.runtime.cluster_mark("w2", alive=False, now=0.0)
    second = service._answer_query(dict(QUERY))
    assert second["version"] == first["version"]  # the vector recurred
    assert second["cached"] is False
    assert second["estimate"] == EXPECT_B
