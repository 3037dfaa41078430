"""Cluster answers are exact: N workers == one uninterrupted stream.

The acceptance property of cluster mode, driven by hypothesis over
arbitrary interleavings of the cluster lifecycle: routed multi-batch
ingestion, per-worker rotations, worker joins (with bucket handoff),
graceful leaves, and — in the replicated variant — hard worker kills
followed by self-healing **repair** (heartbeat detection, grace-window
promotion, journaled re-replication) and **heal** (the crashed worker
rejoins empty and anti-entropy rebuilds it).  After every plan, the
coordinator's merged answer must be **bit-identical** to a single
offline summarizer fed the union of all ingested events in arrival
order.

With ``replication=2`` a kill must never cost exactness: the surviving
replica holds a bit-identical copy of every lost slot, and the
coordinator must find it (``partial`` stays ``False`` throughout) —
before, during, and after the repair machinery runs.  A second kill is
only drawn once the first was repaired and three members are alive, so
every slot always keeps at least one live copy.

Keys are unique per batch (repeats only within a batch): the cluster
inherits the store's key-disjointness contract, and handed-off bucket
artifacts must never collide with later live ingests of the same keys.
"""

from __future__ import annotations

import shutil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine, jaccard_from_summary
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

NS = NamespaceConfig("web", ("h1", "h2"), k=8, salt=21)
N_SLOTS = 4
SALT = 4  # splits slots across workers (see test_cluster_service)

_weights = st.floats(
    min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def cluster_plans(draw, allow_kill: bool):
    """A cluster lifecycle: routed ingests, rotations, membership churn.

    A small state machine keeps every drawn plan executable: leaves keep
    at least one live member, at most two extra workers join, and in the
    replicated variant kills interleave with the self-healing machinery:
    ``repair`` promotes every dead worker past the grace window and
    drives the journal to quiescence, ``heal`` respawns a repaired
    worker empty and rejoins it (anti-entropy rebuilds its slots).  A
    second kill is only offered once the first was repaired and three
    members are alive, so no slot ever loses its last live copy.  Each
    ingest uses a fresh key segment (repeats only within the batch),
    honoring the key-disjointness contract across handoffs.
    """
    ops = []
    members = ["w1", "w2"]
    killed: list[str] = []   # dead, not yet promoted by a repair
    failed: list[str] = []   # promoted to failed, not yet healed or left
    n_kills = 0
    next_worker = 3
    segment = 0
    for _ in range(draw(st.integers(2, 7))):
        alive = [
            w for w in members if w not in killed and w not in failed
        ]
        choices = ["ingest", "ingest", "rotate"]
        if next_worker <= 4:
            choices.append("join")
        if len(alive) >= 2:
            choices.append("leave")
        if allow_kill and not killed and (
            (n_kills == 0 and len(alive) >= 2)
            or (n_kills == 1 and len(alive) >= 3)
        ):
            choices.append("kill")
        if killed:
            choices.extend(["repair", "repair"])  # bias toward resolving
        if failed:
            choices.append("heal")
        action = draw(st.sampled_from(choices))
        if action == "ingest":
            n = draw(st.integers(1, 10))
            ids = draw(st.lists(st.integers(0, 25), min_size=n, max_size=n))
            keys = [f"s{segment}-{key_id}" for key_id in ids]
            w1 = draw(st.lists(_weights, min_size=n, max_size=n))
            w2 = draw(st.lists(_weights, min_size=n, max_size=n))
            ops.append(("ingest", keys, w1, w2))
            segment += 1
        elif action == "rotate":
            ops.append(("rotate", draw(st.sampled_from(alive))))
        elif action == "join":
            worker = f"w{next_worker}"
            next_worker += 1
            members.append(worker)
            ops.append(("join", worker))
        elif action == "leave":
            # a graceful leave may target a live member or (in the
            # replicated variant) a dead one — the replica covers it
            candidates = [
                w for w in members
                if w in killed or w in failed or len(alive) >= 2
            ]
            worker = draw(st.sampled_from(candidates))
            members.remove(worker)
            if worker in killed:
                killed.remove(worker)
            if worker in failed:
                failed.remove(worker)
            ops.append(("leave", worker))
        elif action == "kill":
            worker = draw(st.sampled_from(alive))
            killed.append(worker)
            n_kills += 1
            ops.append(("kill", worker))
        elif action == "repair":
            failed.extend(killed)
            killed.clear()
            ops.append(("repair",))
        else:  # heal
            worker = draw(st.sampled_from(failed))
            failed.remove(worker)
            ops.append(("heal", worker))
    if not any(op[0] == "ingest" for op in ops):
        ops.append(("ingest", ["s999-0", "s999-1"], [1.0, 2.0], [3.0, 4.0]))
    return ops


class Clock:
    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


def run_plan(root, plan, replication: int):
    clock = Clock()
    workers: dict[str, ServiceThread] = {}
    clients: dict[str, ServiceClient] = {}
    killed: set[str] = set()
    offline = NS.make_summarizer()

    def spawn(worker_id: str) -> ServiceThread:
        thread = ServiceThread(
            ServiceConfig(
                store_root=str(root / worker_id),
                namespaces=slot_namespace_configs(NS, N_SLOTS),
                port=0,
                compact_to=None,
                tick_s=3600.0,
            ),
            clock=clock,
        )
        thread.start()
        workers[worker_id] = thread
        clients[worker_id] = ServiceClient(port=thread.service.port)
        clients[worker_id].wait_ready()
        return thread

    coordinator = CoordinatorThread(
        CoordinatorConfig(
            root=str(root / "coordinator"),
            namespaces=(NS,),
            port=0,
            n_slots=N_SLOTS,
            replication=replication,
            salt=SALT,
            heartbeat_s=3600.0,  # probes driven by the repair op
            probe_timeout_s=2.0,
            fail_after_s=30.0,
            repair_interval_s=0.0,  # ticks driven by the repair op
        ),
        clock=clock,
    )
    coordinator.start()
    client = ServiceClient(port=coordinator.service.port)

    def settle(max_ticks: int = 8) -> None:
        for _ in range(max_ticks):
            tick = coordinator.service.repairs.tick()
            if not (tick["enqueued"] or tick["done"] or tick["requeued"]):
                break

    try:
        for worker_id in ("w1", "w2"):
            thread = spawn(worker_id)
            client.cluster_join(worker_id, "127.0.0.1", thread.service.port)
        for op in plan:
            if op[0] == "ingest":
                _tag, keys, w1, w2 = op
                weights = {"h1": list(w1), "h2": list(w2)}
                client.ingest("web", keys, weights, sync=True)
                offline.ingest_multi(
                    keys,
                    {k: np.asarray(v, dtype=float)
                     for k, v in weights.items()},
                )
            elif op[0] == "rotate":
                if op[1] not in killed:
                    clients[op[1]].rotate()
            elif op[0] == "join":
                thread = spawn(op[1])
                client.cluster_join(
                    op[1], "127.0.0.1", thread.service.port
                )
            elif op[0] == "leave":
                client.cluster_leave(op[1])
                if op[1] not in killed:
                    workers.pop(op[1]).stop()
                    clients.pop(op[1]).close()
            elif op[0] == "kill":
                workers[op[1]].kill()
                killed.add(op[1])
            elif op[0] == "repair":
                # heartbeat marks the corpse, the grace window elapses,
                # then the journal drains: promote + re-replicate
                coordinator.service._heartbeat_round()
                clock.now += (
                    coordinator.service.config.fail_after_s + 1.0
                )
                settle()
            elif op[0] == "heal":
                # the crashed worker comes back empty on a fresh port;
                # rejoin clears the failed flag and anti-entropy
                # rebuilds its slots from the surviving copies
                worker_id = op[1]
                clients.pop(worker_id).close()
                workers.pop(worker_id)
                shutil.rmtree(root / worker_id, ignore_errors=True)
                thread = spawn(worker_id)
                client.cluster_join(
                    worker_id, "127.0.0.1", thread.service.port
                )
                killed.discard(worker_id)
                settle()

        reference = QueryEngine(offline.summary())
        for function in ("max", "l1"):
            served = client.estimate("web", function, ("h1", "h2"))
            assert served["partial"] is False, (
                f"unexpected partial answer under plan {plan!r}: "
                f"{served.get('missing_slots')}"
            )
            assert served["estimate"] == reference.estimate(
                AggregationSpec(function, ("h1", "h2"))
            ), f"{function} diverged under plan {plan!r}"
        assert (
            client.estimate("web", "single", ("h1",))["estimate"]
            == reference.estimate(AggregationSpec("single", ("h1",)))
        )
        assert (
            client.jaccard("web", ("h1", "h2"))["estimate"]
            == jaccard_from_summary(reference.summary, ("h1", "h2"), "l")
        )
    finally:
        client.close()
        coordinator.stop()
        for worker_id, thread in workers.items():
            if worker_id not in killed:
                thread.stop()
        for c in clients.values():
            c.close()


@settings(deadline=None, max_examples=10)
@given(plan=cluster_plans(allow_kill=False))
def test_unreplicated_lifecycle_is_exact(tmp_path_factory, plan):
    """R=1, no failures: joins and leaves hand data off losslessly."""
    run_plan(tmp_path_factory.mktemp("cluster"), plan, replication=1)


@settings(deadline=None, max_examples=10)
@given(plan=cluster_plans(allow_kill=True))
def test_replicated_lifecycle_survives_kills_exactly(
    tmp_path_factory, plan
):
    """R=2: hard kills — with repair and heal interleaved anywhere in
    the plan — never cost exactness."""
    run_plan(tmp_path_factory.mktemp("cluster"), plan, replication=2)


def test_kill_repair_heal_fixed_plan(tmp_path):
    """The canonical self-healing lifecycle, pinned deterministically:
    ingest, kill a primary, ingest into the degraded cluster, repair
    (promote + re-replicate), ingest again, heal the corpse back in,
    and keep ingesting — bit-exact at the end of it all."""
    plan = [
        ("ingest", ["s0-0", "s0-1", "s0-2"],
         [1.5, 2.5, 3.5], [0.5, 4.5, 9.5]),
        ("rotate", "w1"),
        ("kill", "w2"),
        ("ingest", ["s1-0", "s1-1"], [7.0, 0.25], [2.0, 8.0]),
        ("repair",),
        ("ingest", ["s2-0", "s2-1", "s2-2"],
         [0.75, 6.0, 1.25], [3.0, 0.1, 5.0]),
        ("heal", "w2"),
        ("ingest", ["s3-0", "s3-1"], [4.0, 2.0], [1.0, 6.5]),
        ("rotate", "w2"),
    ]
    run_plan(tmp_path, plan, replication=2)
