"""End-to-end cluster mode: routed ingest, exact merged answers, failover.

Real workers (``ServiceThread`` on ephemeral ports, slot-expanded
namespaces) behind a real :class:`CoordinatorThread`.  The acceptance
property throughout: a coordinator answer is **bit-identical** to an
offline single-process engine over the union of every ingested event —
or loudly ``partial``, never silently wrong.  Heartbeats are parked on a
long cadence so failure marking happens deterministically through the
request paths under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.service import (
    ClusterClient,
    ClusterError,
    FaultPlan,
    FaultRule,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    slot_for_key,
    slot_namespace,
    slot_namespace_configs,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
N_SLOTS = 4
#: topology salt under which HRW splits the 4 slots 2/2 between w1 and
#: w2 (and hands w3 a slot on join) — so membership changes move data
SALT = 4


class Clock:
    """A frozen clock: every event lands in one minute bucket, so keys may
    repeat freely across batches (the store's key-disjointness contract
    only binds across buckets)."""

    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


class Cluster:
    """A coordinator plus N workers, joined and ready."""

    def __init__(self, root, n_workers: int, replication: int = 1) -> None:
        self.clock = Clock()
        self.workers: dict[str, ServiceThread] = {}
        self.clients: dict[str, ServiceClient] = {}
        self.killed: set[str] = set()
        self.root = root
        coordinator_config = CoordinatorConfig(
            root=str(root / "coordinator"),
            namespaces=(NS,),
            port=0,
            n_slots=N_SLOTS,
            replication=replication,
            salt=SALT,
            heartbeat_s=3600.0,  # deterministic: no background probes
            probe_timeout_s=2.0,
        )
        self.coordinator = CoordinatorThread(
            coordinator_config, clock=self.clock
        )
        self.coordinator.start()
        self.client = ServiceClient(port=self.coordinator.service.port)
        for i in range(1, n_workers + 1):
            self.add_worker(f"w{i}")

    def spawn_worker(self, worker_id: str) -> ServiceThread:
        config = ServiceConfig(
            store_root=str(self.root / worker_id),
            namespaces=slot_namespace_configs(NS, N_SLOTS),
            port=0,
            compact_to=None,
            tick_s=3600.0,
        )
        thread = ServiceThread(config, clock=self.clock)
        thread.start()
        self.workers[worker_id] = thread
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        self.clients[worker_id] = client
        return thread

    def add_worker(self, worker_id: str) -> dict:
        thread = self.spawn_worker(worker_id)
        return self.client.cluster_join(
            worker_id, "127.0.0.1", thread.service.port
        )

    def kill(self, worker_id: str) -> None:
        self.workers[worker_id].kill()
        self.killed.add(worker_id)

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for worker_id, thread in self.workers.items():
            if worker_id in self.killed:
                continue
            thread.stop()
        for client in self.clients.values():
            client.close()


@pytest.fixture
def cluster2(tmp_path):
    cluster = Cluster(tmp_path, n_workers=2, replication=1)
    yield cluster
    cluster.close()


@pytest.fixture
def replicated2(tmp_path):
    cluster = Cluster(tmp_path, n_workers=2, replication=2)
    yield cluster
    cluster.close()


def event_batch(lo: int, n: int = 60):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo + 1)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def touched_slots(keys) -> list[int]:
    return sorted({slot_for_key(key, N_SLOTS, SALT) for key in keys})


def worker_versions(cluster) -> dict:
    """Every worker's version token for every slot namespace."""
    return {
        worker_id: {
            slot: client.bundle_entries(
                slot_namespace("web", slot)
            )["version"]
            for slot in range(N_SLOTS)
        }
        for worker_id, client in cluster.clients.items()
    }


def offline_engine(batches) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for keys, weights in batches:
        summarizer.ingest_multi(
            keys, {name: np.asarray(w) for name, w in weights.items()}
        )
    return QueryEngine(summarizer.summary())


class TestExactness:
    def test_coordinator_matches_offline_engine(self, cluster2):
        batches = [event_batch(0), event_batch(1000, n=40)]
        for keys, weights in batches:
            result = cluster2.client.ingest("web", keys, weights, sync=True)
            assert result["ok"] and result["events"] == len(keys)
        offline = offline_engine(batches)
        for function in ("max", "min", "l1"):
            served = cluster2.client.estimate("web", function, ["h1", "h2"])
            assert served["partial"] is False
            assert served["estimate"] == offline.estimate(
                AggregationSpec(function, ("h1", "h2"))
            ), f"{function} diverged from the offline engine"
        single = cluster2.client.estimate("web", "single", ["h1"])
        assert single["estimate"] == offline.estimate(
            AggregationSpec("single", ("h1",))
        )
        jac = cluster2.client.jaccard("web", ["h1", "h2"])
        assert jac["estimate"] == jaccard_from_summary(
            offline.summary, ("h1", "h2"), "l"
        )

    def test_subpopulation_selection_is_exact(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        subset = keys[:9] + ["never-seen"]
        served = cluster2.client.estimate(
            "web", "max", ["h1", "h2"], keys=subset
        )
        from repro.core.predicates import key_in

        offline = offline_engine([(keys, weights)])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2")), predicate=key_in(subset)
        )

    def test_version_vector_caching(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        first = cluster2.client.estimate("web", "max", ["h1", "h2"])
        again = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert not first["cached"] and again["cached"]
        assert again["estimate"] == first["estimate"]
        assert again["partial"] is False  # replays keep the marker
        # any ingest moves some slot's version token: the next answer is
        # recomputed, not replayed
        more_keys, more_weights = event_batch(5000, n=10)
        cluster2.client.ingest("web", more_keys, more_weights, sync=True)
        third = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert not third["cached"]
        offline = offline_engine(
            [(keys, weights), (more_keys, more_weights)]
        )
        assert third["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_worker_rotation_preserves_answers(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        before = cluster2.client.estimate("web", "max", ["h1", "h2"])
        for client in cluster2.clients.values():
            client.rotate()
        after = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert after["estimate"] == before["estimate"]

    def test_replicas_hold_interchangeable_data(self, replicated2):
        keys, weights = event_batch(0)
        result = replicated2.client.ingest("web", keys, weights, sync=True)
        # R=2 over 2 workers: every slot delivered twice
        assert result["deliveries"] == 2 * result["slots"]
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        offline = offline_engine([(keys, weights)])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )


class TestFailover:
    def test_replica_failover_is_bit_exact(self, replicated2):
        keys, weights = event_batch(0)
        replicated2.client.ingest("web", keys, weights, sync=True)
        offline_max = offline_engine([(keys, weights)]).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )
        replicated2.kill("w2")
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline_max

    def test_unreplicated_kill_answers_partial_never_wrong(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        cluster2.kill("w2")
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is True
        assert served["missing_slots"]  # loud about what is gone
        assert served["cached"] is False
        # partial answers are never cached: the repeat recomputes too
        again = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert again["partial"] is True and again["cached"] is False
        # the surviving slots still answer exactly: the merged partial
        # must equal the offline engine restricted to the served keys —
        # an under-count of the *missing* slots only, not a wrong merge
        view = cluster2.client.cluster_status()
        alive_slots = [
            int(slot)
            for slot, owners in view["assignment"].items()
            if owners == ["w1"]
        ]
        assert sorted(served["missing_slots"]) == sorted(
            int(slot)
            for slot, owners in view["assignment"].items()
            if owners == ["w2"]
        )
        from repro.service.cluster import slot_for_key

        surviving = [
            (k, i) for i, k in enumerate(keys)
            if slot_for_key(k, N_SLOTS, SALT) in alive_slots
        ]
        summarizer = NS.make_summarizer()
        summarizer.ingest_multi(
            [k for k, _ in surviving],
            {
                name: np.asarray([values[i] for _, i in surviving])
                for name, values in weights.items()
            },
        )
        restricted = QueryEngine(summarizer.summary()).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )
        assert served["estimate"] == restricted

    def test_ingest_past_a_dead_replica_marks_it_stale(self, replicated2):
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        replicated2.kill("w2")
        second = event_batch(1000, n=30)
        result = replicated2.client.ingest("web", *second, sync=True)
        assert result["ok"]
        assert {row["worker"] for row in result["missed_replicas"]} == {"w2"}
        view = replicated2.client.cluster_status()
        assert set(view["stale"]) == {"w2"}
        # w2's copies missed the batch; only w1 may answer — exactly
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        offline = offline_engine([first, second])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_replica_rejection_after_apply_marks_stale(self, replicated2):
        """Regression: an owner that *refuses* its frame (HTTP error,
        e.g. 429 queue-full) while a replica applied the batch holds a
        divergent under-counting copy — it must be marked stale exactly
        like an unreachable owner, persisted, and never serve the slots.
        """
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        # w2's daemon refuses its next frame, as a full ingest queue would
        replicated2.workers["w2"].service.install_faults(
            FaultPlan(0, [FaultRule(
                "error", verb="/ingest", status=429, scope="w2", limit=1,
            )]),
            scope="w2",
        )
        second = event_batch(1000, n=30)
        result = replicated2.client.ingest("web", *second, sync=True)
        touched = touched_slots(second[0])
        # w1 applied every slot; the reply is a 200 that names what w2 missed
        assert result["ok"] and result["slots"] == len(touched)
        assert result["deliveries"] == len(touched)
        assert result["missed_replicas"] == [
            {"worker": "w2", "slot": slot} for slot in touched
        ]
        view = replicated2.client.cluster_status()
        assert view["stale"] == {"w2": touched}
        # only w1 may answer the touched slots — exactly, never partial
        offline = offline_engine([first, second])
        exact = offline.estimate(AggregationSpec("max", ("h1", "h2")))
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == exact
        # the stale marking survives a coordinator restart: it was
        # persisted before the reply went out
        replicated2.client.close()
        replicated2.coordinator.stop()
        replicated2.coordinator = CoordinatorThread(
            replicated2.coordinator.config, clock=replicated2.clock
        )
        replicated2.coordinator.start()
        replicated2.client = ServiceClient(
            port=replicated2.coordinator.service.port
        )
        view = replicated2.client.cluster_status()
        assert view["stale"] == {"w2": touched}
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == exact

    def test_unreachable_owner_goes_stale_and_dead_when_a_replica_acks(
        self, replicated2
    ):
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        service = replicated2.coordinator.service
        service._clients["w1"].install_faults(
            FaultPlan(0, [FaultRule("drop", verb="/ingest", limit=1)]),
            scope="w1",
        )
        second = event_batch(1000, n=30)
        result = replicated2.client.ingest("web", *second, sync=True)
        touched = touched_slots(second[0])
        assert {row["worker"] for row in result["missed_replicas"]} == {"w1"}
        view = replicated2.client.cluster_status()
        assert view["stale"] == {"w1": touched}
        alive = {row["worker_id"]: row["alive"] for row in view["workers"]}
        assert alive == {"w1": False, "w2": True}
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline_engine([first, second]).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_refused_by_every_owner_is_502_with_no_stale_marks(
        self, replicated2
    ):
        """Copies that all refused still agree: nothing goes stale, no
        worker's data moved, and the cluster keeps serving exactly."""
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        before = worker_versions(replicated2)
        for worker_id in ("w1", "w2"):
            replicated2.workers[worker_id].service.install_faults(
                FaultPlan(0, [FaultRule(
                    "error", verb="/ingest", status=503, limit=1,
                )]),
                scope=worker_id,
            )
        second = event_batch(1000, n=30)
        with pytest.raises(ServiceError) as excinfo:
            replicated2.client.ingest("web", *second, sync=True)
        assert excinfo.value.status == 502
        message = str(excinfo.value)
        assert f"slots {touched_slots(second[0])}" in message
        assert "applied slots: []" in message
        assert replicated2.client.cluster_status()["stale"] == {}
        assert worker_versions(replicated2) == before
        # the refused batch can simply be sent again
        assert replicated2.client.ingest("web", *second, sync=True)["ok"]
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline_engine([first, second]).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_unknown_outcome_beside_a_refusal_marks_only_the_unknown(
        self, replicated2
    ):
        """No owner acked: the refusing copy provably holds the pre-batch
        state and keeps serving; the copy whose outcome is unknown may
        have applied the batch and must not."""
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        service = replicated2.coordinator.service
        service._clients["w1"].install_faults(
            FaultPlan(0, [FaultRule("drop", verb="/ingest", limit=1)]),
            scope="w1",
        )
        replicated2.workers["w2"].service.install_faults(
            FaultPlan(0, [FaultRule(
                "error", verb="/ingest", status=429, limit=1,
            )]),
            scope="w2",
        )
        second = event_batch(1000, n=30)
        with pytest.raises(ServiceError) as excinfo:
            replicated2.client.ingest("web", *second, sync=True)
        assert excinfo.value.status == 502
        assert "w1: unknown" in str(excinfo.value)
        assert "w2: refused" in str(excinfo.value)
        view = replicated2.client.cluster_status()
        assert view["stale"] == {"w1": touched_slots(second[0])}
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline_engine([first]).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_no_owner_reachable_fails_ingest_loudly(self, cluster2):
        cluster2.kill("w1")
        cluster2.kill("w2")
        keys, weights = event_batch(0, n=10)
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.ingest("web", keys, weights, sync=True)
        assert excinfo.value.status == 502


class TestIngestValidation:
    """Regression: a malformed client batch used to be sliced and
    delivered until the first worker refused a sub-batch — a 502 with
    the earlier slots already applied on every replica.  The coordinator
    now runs the worker's own validator first: 400/413, nothing sent."""

    @pytest.mark.parametrize("mutate, status", [
        (lambda keys, w: w["h1"].__setitem__(100, -1.0), 400),
        (lambda keys, w: w["h2"].__setitem__(7, float("inf")), 400),
        (lambda keys, w: w.__setitem__("h9", list(w["h1"])), 400),
        (lambda keys, w: keys.__setitem__(150, None), 400),
        (lambda keys, w: keys.__setitem__(3, float("nan")), 400),
        (lambda keys, w: w["h1"].pop(), 400),
        (lambda keys, w: w.__setitem__("h1", "not a list"), 400),
        (lambda keys, w: (
            keys.extend(range(100_001)),
            w.update({name: [1.0] * len(keys) for name in w}),
        ), 413),
    ], ids=[
        "negative-weight", "infinite-weight", "unknown-assignment",
        "null-key", "nan-key", "short-weights", "weights-not-a-list",
        "over-max-batch-events",
    ])
    def test_bad_batch_is_refused_before_anything_is_sent(
        self, replicated2, mutate, status
    ):
        first = event_batch(0)
        replicated2.client.ingest("web", *first, sync=True)
        before = worker_versions(replicated2)
        keys, weights = event_batch(1000, n=200)
        mutate(keys, weights)
        with pytest.raises(ServiceError) as excinfo:
            replicated2.client._request("POST", "/ingest", {
                "namespace": "web", "keys": keys, "weights": weights,
                "sync": True,
            })
        assert excinfo.value.status == status
        assert worker_versions(replicated2) == before
        assert replicated2.client.cluster_status()["stale"] == {}
        served = replicated2.client.estimate("web", "single", ["h2"])
        assert served["estimate"] == offline_engine([first]).estimate(
            AggregationSpec("single", ("h2",))
        )


class TestMembership:
    def test_join_hands_off_and_stays_exact(self, cluster2):
        batches = [event_batch(0)]
        cluster2.client.ingest("web", *batches[0], sync=True)
        joined = cluster2.add_worker("w3")
        assert joined["ok"] and not joined["rejoined"]
        assert joined["handoff"]["degraded"] == []
        if joined["slots"]:  # w3 took over some slots: data must follow
            assert joined["handoff"]["artifacts"] > 0
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        offline = offline_engine(batches)
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )
        # new batches route to the new assignment and remain exact
        batches.append(event_batch(1000, n=30))
        cluster2.client.ingest("web", *batches[1], sync=True)
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        offline = offline_engine(batches)
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_graceful_leave_hands_off_and_stays_exact(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        left = cluster2.client.cluster_leave("w1")
        assert left["ok"] and left["handoff"]["degraded"] == []
        cluster2.workers.pop("w1").stop()
        cluster2.clients.pop("w1").close()
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        offline = offline_engine([(keys, weights)])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_dead_worker_leave_degrades_loudly_and_persists(self, cluster2):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        cluster2.kill("w2")
        left = cluster2.client.cluster_leave("w2")
        degraded = left["handoff"]["degraded"]
        assert degraded  # w2's un-handed-off slots are lost, and said so
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is True
        assert served["missing_slots"] == degraded
        view = cluster2.client.cluster_status()
        assert view["degraded_slots"] == degraded
        # degradation survives a coordinator restart: it lives in the
        # runtime tier, not in process memory
        cluster2.client.close()
        cluster2.coordinator.stop()
        cluster2.coordinator = CoordinatorThread(
            cluster2.coordinator.config, clock=cluster2.clock
        )
        cluster2.coordinator.start()
        cluster2.client = ServiceClient(
            port=cluster2.coordinator.service.port
        )
        view = cluster2.client.cluster_status()
        assert view["degraded_slots"] == degraded
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is True
        assert served["missing_slots"] == degraded

    def test_rejoin_after_crash_is_treated_as_stale(self, replicated2):
        keys, weights = event_batch(0)
        replicated2.client.ingest("web", keys, weights, sync=True)
        offline_max = offline_engine([(keys, weights)]).estimate(
            AggregationSpec("max", ("h1", "h2"))
        )
        replicated2.kill("w2")
        # the crashed worker comes back empty on a fresh port
        import shutil

        shutil.rmtree(replicated2.root / "w2")
        thread = replicated2.spawn_worker("w2")
        rejoined = replicated2.client.cluster_join(
            "w2", "127.0.0.1", thread.service.port
        )
        replicated2.killed.discard("w2")
        assert rejoined["rejoined"] and rejoined["stale_slots"]
        # its empty copies must never serve: answers still come from w1,
        # bit-exact
        served = replicated2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline_max

    def test_ownership_round_trip_churn_stays_exact(self, cluster2):
        """Regression: a slot returning to a former owner must not
        double-count.

        join(w3) + join(w4) displace earlier owners whose artifacts stay
        on disk; leave(w4) hands slots *back* to a former holder.  The
        handoff purges the target before copying — without the purge the
        returning worker's leftovers collide with the fresh copy and the
        duplicate-key guard turns the query into a 500.  Found by the
        hypothesis lifecycle suite (tests/test_cluster_exactness.py).
        """
        batches = [event_batch(0), event_batch(1000, n=30)]
        cluster2.client.ingest("web", *batches[0], sync=True)
        cluster2.client.ingest("web", *batches[1], sync=True)
        cluster2.add_worker("w3")
        cluster2.add_worker("w4")
        left = cluster2.client.cluster_leave("w4")
        assert left["ok"] and left["handoff"]["degraded"] == []
        cluster2.workers.pop("w4").stop()
        cluster2.clients.pop("w4").close()
        offline = offline_engine(batches)
        for function in ("max", "l1"):
            served = cluster2.client.estimate("web", function, ["h1", "h2"])
            assert served["partial"] is False
            assert served["estimate"] == offline.estimate(
                AggregationSpec(function, ("h1", "h2"))
            )
        # churn must also leave ingest routing consistent
        batches.append(event_batch(2000, n=20))
        cluster2.client.ingest("web", *batches[2], sync=True)
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        offline = offline_engine(batches)
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_leave_unknown_worker_404(self, cluster2):
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.cluster_leave("ghost")
        assert excinfo.value.status == 404


class TestCoordinatorConfig:
    def test_a_removed_key_is_an_unknown_key(self):
        """A config file written for an earlier version fails loudly."""
        payload = CoordinatorConfig(root="/tmp/x", namespaces=(NS,)).to_json()
        assert CoordinatorConfig.from_json(payload).to_json() == payload
        with pytest.raises(
            ValueError,
            match="unknown coordinator config keys: result_cache_size",
        ):
            CoordinatorConfig.from_json({**payload, "result_cache_size": 1024})

    @pytest.mark.parametrize("cls,what,root,key", [
        (ServiceConfig, "service", "store_root", "max_body_bytes"),
        (CoordinatorConfig, "coordinator", "root", "max_body_bytes"),
        (CoordinatorConfig, "coordinator", "root", "worker_retries"),
    ])
    def test_constant_knobs_are_unknown_keys(self, cls, what, root, key):
        """The body limit and the worker retry count are module constants
        now; a config file that still sets one is refused, not ignored."""
        payload = cls(**{root: "/tmp/x", "namespaces": (NS,)}).to_json()
        with pytest.raises(
            ValueError, match=f"unknown {what} config keys: {key}"
        ):
            cls.from_json({**payload, key: 7})


class TestCoordinatorApi:
    def test_health_and_cluster_view(self, cluster2):
        health = cluster2.client.liveness()
        assert health["ok"] and health["role"] == "coordinator"
        view = cluster2.client.cluster_status()
        assert view["topology"]["n_slots"] == N_SLOTS
        assert sorted(
            row["worker_id"] for row in view["workers"]
        ) == ["w1", "w2"]
        assert set(view["assignment"]) == {str(s) for s in range(N_SLOTS)}
        assert view["namespaces"] == ["web"]

    def test_empty_cluster_answers_empty(self, cluster2):
        served = cluster2.client.estimate("web", "max", ["h1", "h2"])
        assert served["estimate"] is None and served["empty"]

    def test_temporal_queries_rejected_with_400(self, cluster2):
        keys, weights = event_batch(0, n=10)
        cluster2.client.ingest("web", keys, weights, sync=True)
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.window_series(
                "web", "max", ["h1", "h2"], window="15m"
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.estimate("web", "max", ["h1", "h2"], decay="1h")
        assert excinfo.value.status == 400

    def test_unknown_namespace_and_function_rejected(self, cluster2):
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.estimate("ghost", "max", ["h1"])
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            cluster2.client.estimate("web", "median", ["h1"])
        assert excinfo.value.status == 400

    def test_query_get_is_curlable(self, cluster2):
        import json
        import urllib.request

        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        port = cluster2.coordinator.service.port
        url = (
            f"http://127.0.0.1:{port}/query?"
            "namespace=web&function=max&assignments=h1,h2"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.load(response)
        assert payload["estimate"] == cluster2.client.estimate(
            "web", "max", ["h1", "h2"]
        )["estimate"]

    def test_query_get_splits_keys_like_the_worker(self, cluster2):
        """Regression: ``GET /query?keys=a,b`` on the coordinator must
        select the listed keys, not filter on the string's characters.
        """
        import json
        import urllib.request

        from repro.core.predicates import key_in

        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        subset = keys[:9] + ["never-seen"]
        port = cluster2.coordinator.service.port
        url = (
            f"http://127.0.0.1:{port}/query?"
            "namespace=web&function=max&assignments=h1,h2&keys="
            + ",".join(subset)
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.load(response)
        offline = offline_engine([(keys, weights)])
        assert payload["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2")), predicate=key_in(subset)
        )
        # the GET and POST surfaces parse to the same request — same
        # answer, and the second form replays the first's cache entry
        posted = cluster2.client.estimate(
            "web", "max", ["h1", "h2"], keys=subset
        )
        assert posted["estimate"] == payload["estimate"]
        assert posted["cached"] is True


class TestClusterClient:
    def test_plan_batch_partitions_in_stream_order(self):
        from repro.service.cluster import ClusterTopology

        client = ClusterClient({}, ClusterTopology(n_slots=N_SLOTS))
        keys = [f"k{i}" for i in range(50)]
        plan = client.plan_batch("web", keys)
        covered = sorted(i for indices in plan.values() for i in indices)
        assert covered == list(range(50))
        for indices in plan.values():
            assert indices == sorted(indices)  # stream order preserved

    def test_ingest_routes_through_the_coordinator(self, replicated2):
        keys, weights = event_batch(0)
        with ClusterClient.from_coordinator(
            port=replicated2.coordinator.service.port
        ) as router:
            result = router.ingest("web", keys, weights, sync=True)
            assert result["events"] == len(keys)
            assert result["deliveries"] == 2 * result["slots"]
            served = router.estimate("web", "max", ["h1", "h2"])
        offline = offline_engine([(keys, weights)])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_ingest_without_a_coordinator_raises(self, cluster2):
        before = worker_versions(cluster2)
        router = ClusterClient(
            {
                worker_id: ("127.0.0.1", thread.service.port)
                for worker_id, thread in cluster2.workers.items()
            },
            cluster2.coordinator.service.topology,
        )
        with router, pytest.raises(ClusterError, match="coordinator"):
            router.ingest("web", *event_batch(0), sync=True)
        assert worker_versions(cluster2) == before


class TestCli:
    """``repro-serve`` against a coordinator: empty, partial, stats."""

    @staticmethod
    def query(cluster, *extra) -> int:
        from repro.service.cli import main

        return main([
            "query", "--port", str(cluster.coordinator.service.port),
            "--namespace", "web", "--assignments", "h1", "h2", *extra,
        ])

    def test_empty_cluster_prints_no_data(self, tmp_path, capsys):
        cluster = Cluster(tmp_path, n_workers=1)
        try:
            served = cluster.client.estimate("web", "max", ["h1", "h2"])
            assert served["empty"] is True and served["estimate"] is None
            assert self.query(cluster, "--function", "max") == 0
        finally:
            cluster.close()
        out = capsys.readouterr().out
        assert out == (
            f"web: max(h1,h2) no data [version {served['version']}, "
            "cached]\n"
        )

    @pytest.mark.parametrize("kind", [["--function", "max"], ["--jaccard"]])
    def test_partial_answer_is_loud_and_exits_3(self, kind, cluster2, capsys):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        cluster2.kill("w2")
        missing = cluster2.client.estimate(
            "web", "max", ["h1", "h2"]
        )["missing_slots"]
        assert missing
        assert self.query(cluster2, *kind) == 3
        line = capsys.readouterr().out.strip()
        label = "jaccard" if kind == ["--jaccard"] else "max"
        assert line.startswith(f"web: {label}(h1,h2) ~= ")
        assert line.endswith(f"computed] PARTIAL, missing slots {missing}")

    def test_exact_answer_exits_0(self, cluster2, capsys):
        keys, weights = event_batch(0)
        cluster2.client.ingest("web", keys, weights, sync=True)
        assert self.query(cluster2, "--function", "max") == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("web: max(h1,h2) ~= ")
        assert "PARTIAL" not in line

    def test_stats_prints_only_the_coordinator_sections(self, cluster2,
                                                        capsys):
        import json

        from repro.service.cli import main

        port = cluster2.coordinator.service.port
        assert main(["stats", "--port", str(port)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == {"stats", "runtime", "repairs"}
        assert None not in stats.values()
