"""Self-healing cluster: promotion, re-replication, anti-entropy, faults.

The contract under test extends PR 8's exactness bar to the repair
machinery: every answer served during and after a repair is bit-exact
against the offline engine or loudly ``partial`` — and with
``replication=2`` a SIGKILLed primary is detected, promoted to failed,
and re-replicated onto survivors *autonomously*, no operator join.

Time is a frozen :class:`Clock` everywhere except the acceptance test,
so the ``fail_after_s`` grace window and the repair cadence are driven
deterministically; the acceptance test runs the real background loops
against the wall clock to prove the loop closes without any test-side
driving.
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import (
    ClusterClient,
    ClusterError,
    FaultPlan,
    FaultRule,
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    slot_for_key,
    slot_namespace_configs,
)
from repro.service.cluster import coordinator as coordinator_module

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
N_SLOTS = 4
SALT = 4  # splits the 4 slots 2/2 between w1 and w2 (see PR 8 suite)


class Clock:
    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


class Cluster:
    """Coordinator + N workers with the repair loop on manual ticks."""

    def __init__(
        self,
        root,
        n_workers: int,
        replication: int = 2,
        fail_after_s: float = 30.0,
        **config_overrides,
    ) -> None:
        self.clock = Clock()
        self.workers: dict[str, ServiceThread] = {}
        self.killed: set[str] = set()
        self.root = root
        settings = dict(
            root=str(root / "coordinator"),
            namespaces=(NS,),
            port=0,
            n_slots=N_SLOTS,
            replication=replication,
            salt=SALT,
            heartbeat_s=3600.0,  # probes driven by hand
            probe_timeout_s=2.0,
            fail_after_s=fail_after_s,
            repair_interval_s=0.0,  # ticks driven by hand
        )
        settings.update(config_overrides)
        config = CoordinatorConfig(**settings)
        self.coordinator = CoordinatorThread(config, clock=self.clock)
        self.coordinator.start()
        self.client = ServiceClient(port=self.coordinator.service.port)
        for i in range(1, n_workers + 1):
            self.add_worker(f"w{i}")

    @property
    def service(self):
        return self.coordinator.service

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
        with ServiceClient(port=thread.service.port) as probe:
            probe.wait_ready()
        return thread

    def add_worker(self, worker_id: str) -> dict:
        thread = self.spawn_worker(worker_id)
        self.killed.discard(worker_id)
        return self.client.cluster_join(
            worker_id, "127.0.0.1", thread.service.port
        )

    def kill(self, worker_id: str) -> None:
        self.workers[worker_id].kill()
        self.killed.add(worker_id)

    def fail(self, worker_id: str) -> dict:
        """SIGKILL + heartbeat + grace window + one tick: promote."""
        self.kill(worker_id)
        self.service._heartbeat_round()
        self.clock.now += self.service.config.fail_after_s + 1.0
        return self.service.repairs.tick()

    def settle(self, max_ticks: int = 6) -> dict:
        """Tick until the journal stops moving; return the last view."""
        for _ in range(max_ticks):
            tick = self.service.repairs.tick()
            if not (tick["enqueued"] or tick["done"] or tick["requeued"]):
                break
        return self.service.repairs.view()

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for worker_id, thread in self.workers.items():
            if worker_id not in self.killed:
                thread.stop()


@pytest.fixture
def healing3(tmp_path):
    cluster = Cluster(tmp_path, n_workers=3, replication=2)
    yield cluster
    cluster.close()


@pytest.fixture
def mirrored2(tmp_path):
    cluster = Cluster(tmp_path, n_workers=2, replication=2)
    yield cluster
    cluster.close()


@pytest.fixture
def fragile2(tmp_path):
    cluster = Cluster(tmp_path, n_workers=2, replication=1)
    yield cluster
    cluster.close()


def event_batch(lo: int, n: int = 60):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo + 1)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def offline_engine(batches) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for keys, weights in batches:
        summarizer.ingest_multi(
            keys, {name: np.asarray(w) for name, w in weights.items()}
        )
    return QueryEngine(summarizer.summary())


def assert_exact(cluster, batches) -> None:
    offline = offline_engine(batches)
    for function in ("max", "l1"):
        served = cluster.client.estimate("web", function, ["h1", "h2"])
        assert served["partial"] is False
        assert served["estimate"] == offline.estimate(
            AggregationSpec(function, ("h1", "h2"))
        ), f"{function} diverged after repair"


class TestPromotion:
    def test_grace_window_blocks_early_promotion(self, healing3):
        healing3.kill("w2")
        healing3.service._heartbeat_round()
        tick = healing3.service.repairs.tick()
        assert tick["promoted"] == []  # dead but inside the grace window
        view = healing3.service.repairs.view()
        assert view["failed_workers"] == []
        healing3.clock.now += healing3.service.config.fail_after_s + 1.0
        tick = healing3.service.repairs.tick()
        assert tick["promoted"] == ["w2"]
        assert healing3.service.repairs.view()["failed_workers"] == ["w2"]

    def test_promotion_survives_coordinator_restart(self, healing3):
        healing3.fail("w2")
        healing3.client.close()
        healing3.coordinator.stop()
        healing3.coordinator = CoordinatorThread(
            healing3.coordinator.config, clock=healing3.clock
        )
        healing3.coordinator.start()
        healing3.client = ServiceClient(
            port=healing3.coordinator.service.port
        )
        view = healing3.service.repairs.view()
        assert view["failed_workers"] == ["w2"]  # persisted, not in-memory

    def test_failed_worker_leave_skips_handoff(self, healing3):
        healing3.fail("w2")
        left = healing3.client.cluster_leave("w2")
        assert left["ok"] and left.get("was_failed")
        view = healing3.client.cluster_status()
        assert "w2" not in [row["worker_id"] for row in view["workers"]]

    def test_rejoin_clears_failed_and_heals(self, healing3):
        batch = event_batch(0)
        healing3.client.ingest("web", *batch, sync=True)
        healing3.fail("w2")
        healing3.settle()
        # the crashed worker returns empty on a fresh port
        shutil.rmtree(healing3.root / "w2")
        thread = healing3.spawn_worker("w2")
        rejoined = healing3.client.cluster_join(
            "w2", "127.0.0.1", thread.service.port
        )
        healing3.killed.discard("w2")
        assert rejoined["ok"]
        view = healing3.settle()
        assert view["failed_workers"] == []
        assert view["fully_replicated"], view
        assert_exact(healing3, [batch])


class TestReReplication:
    def test_killed_primary_re_replicates_and_stays_exact(self, healing3):
        batches = [event_batch(0), event_batch(1000, n=40)]
        for batch in batches:
            healing3.client.ingest("web", *batch, sync=True)
        before = healing3.service.repairs.view()
        assert before["fully_replicated"]
        tick = healing3.fail("w1")
        assert tick["promoted"] == ["w1"]
        view = healing3.settle()
        assert view["fully_replicated"], view
        assert view["degraded_slots"] == []
        # every surviving owner now holds a complete, healthy copy
        for info in view["replication"].values():
            assert len(info["healthy"]) == info["want"] == 2
            assert "w1" not in info["owners"]
        assert_exact(healing3, batches)
        # the journal shows the work, done, with sources named
        ops = [op for op in view["ops"] if op["status"] == "done"]
        assert ops and all(op["source"] for op in ops
                           if op["kind"] == "re_replicate")

    def test_repaired_copy_actually_serves(self, healing3):
        """Kill the repair *source* afterwards: answers must now come
        from the re-replicated copies, proving real bytes moved."""
        batch = event_batch(0)
        healing3.client.ingest("web", *batch, sync=True)
        healing3.fail("w1")
        view = healing3.settle()
        assert view["fully_replicated"]
        healing3.fail("w2")
        view = healing3.settle()
        # only w3 remains: replication target degrades to 1 copy
        assert view["failed_workers"] == ["w1", "w2"]
        assert view["degraded_slots"] == []
        assert_exact(healing3, [batch])

    def test_ingest_after_repair_routes_only_to_members(self, healing3):
        first = event_batch(0)
        healing3.client.ingest("web", *first, sync=True)
        healing3.fail("w2")
        healing3.settle()
        second = event_batch(1000, n=30)
        result = healing3.client.ingest("web", *second, sync=True)
        assert result["ok"] and not result.get("missed_replicas")
        assert_exact(healing3, [first, second])

    def test_unreplicated_kill_degrades_loudly(self, fragile2):
        batch = event_batch(0)
        fragile2.client.ingest("web", *batch, sync=True)
        tick = fragile2.fail("w2")
        assert tick["promoted"] == ["w2"]
        view = fragile2.settle()
        assert not view["fully_replicated"]
        assert view["degraded_slots"]  # data died with its only copy
        failed_ops = [
            op for op in view["ops"] if op["status"] == "failed"
        ]
        assert failed_ops
        assert any("degraded" in (op["detail"] or "") for op in failed_ops)
        served = fragile2.client.estimate("web", "max", ["h1", "h2"])
        assert served["partial"] is True
        assert sorted(served["missing_slots"]) == view["degraded_slots"]


class TestAntiEntropy:
    def test_stale_rejoined_copy_is_repaired(self, healing3):
        """A worker that crashes, misses a batch, and rejoins empty gets
        its slots rebuilt by anti-entropy — then serves them exactly."""
        first = event_batch(0)
        healing3.client.ingest("web", *first, sync=True)
        healing3.kill("w2")
        second = event_batch(1000, n=30)
        healing3.client.ingest("web", *second, sync=True)  # w2 misses this
        shutil.rmtree(healing3.root / "w2")
        thread = healing3.spawn_worker("w2")
        rejoined = healing3.client.cluster_join(
            "w2", "127.0.0.1", thread.service.port
        )
        assert rejoined["rejoined"] and rejoined["stale_slots"]
        view = healing3.settle()
        assert view["fully_replicated"], view
        assert view["stale"] == {}
        anti = [op for op in view["ops"] if op["kind"] == "anti_entropy"]
        assert anti and all(op["status"] == "done" for op in anti)
        # burn the other holders: w2's repaired copies must serve exactly
        healing3.fail("w1")
        healing3.fail("w3")
        view = healing3.settle()
        assert view["degraded_slots"] == []
        assert_exact(healing3, [first, second])

    def test_missed_replica_is_marked_stale_then_repaired(self, mirrored2):
        """Regression: a batch that one replica of a slot applied and the
        other refused used to leave the copies divergent with no record
        of it (the client routed the batch itself).  Through the
        coordinator the miss is named, the copy is stale until repair,
        and every answer is exact."""
        first, second = event_batch(0), event_batch(1000, n=30)
        touched = sorted({slot_for_key(k, N_SLOTS, SALT) for k in second[0]})
        assert 1 in touched
        with ClusterClient.from_coordinator(
            port=mirrored2.service.port
        ) as router:
            router.ingest("web", *first, sync=True)
            mirrored2.workers["w2"].service.install_faults(
                FaultPlan(0, [FaultRule(
                    "error", verb="/ingest", status=500, slot=1, limit=1,
                )]),
                scope="w2",
            )
            result = router.ingest("web", *second, sync=True)
        assert result["missed_replicas"] == [
            {"worker": "w2", "slot": slot} for slot in touched
        ]
        assert mirrored2.client.cluster_status()["stale"] == {"w2": touched}
        assert not mirrored2.client.repairs()["fully_replicated"]
        assert_exact(mirrored2, [first, second])  # from w1 alone
        mirrored2.service._heartbeat_round()  # w2 answers again
        view = mirrored2.settle()
        assert view["stale"] == {} and view["fully_replicated"], view
        # burn w1: w2's repaired copies must serve exactly
        mirrored2.fail("w1")
        assert mirrored2.settle()["degraded_slots"] == []
        assert_exact(mirrored2, [first, second])

    def test_anti_entropy_can_be_disabled(self, tmp_path):
        cluster = Cluster(
            tmp_path, n_workers=3, replication=2, anti_entropy=False
        )
        try:
            first = event_batch(0)
            cluster.client.ingest("web", *first, sync=True)
            cluster.kill("w2")
            cluster.client.ingest("web", *event_batch(1000, n=30), sync=True)
            shutil.rmtree(cluster.root / "w2")
            thread = cluster.spawn_worker("w2")
            cluster.client.cluster_join(
                "w2", "127.0.0.1", thread.service.port
            )
            view = cluster.settle()
            assert view["stale"].get("w2")  # left stale: planning is off
            assert not view["fully_replicated"]
        finally:
            cluster.close()


class TestJournal:
    def test_active_ops_requeue_on_restart(self, healing3):
        runtime = healing3.service.runtime
        op_id = runtime.repair_enqueue(
            "re_replicate", 0, target="w2", reason="test",
            now=healing3.clock(),
        )
        claimed = runtime.repair_claim(op_id, now=healing3.clock())
        assert claimed and claimed["status"] == "active"
        healing3.client.close()
        healing3.coordinator.stop()
        healing3.coordinator = CoordinatorThread(
            healing3.coordinator.config, clock=healing3.clock
        )
        healing3.coordinator.start()
        healing3.client = ServiceClient(
            port=healing3.coordinator.service.port
        )
        rows = healing3.service.runtime.repairs(status="queued")
        assert [row["id"] for row in rows] == [op_id]  # resumed, not lost

    def test_dedupe_suppresses_queued_duplicates(self, healing3):
        runtime = healing3.service.runtime
        now = healing3.clock()
        first = runtime.repair_enqueue("anti_entropy", 1, target="w2",
                                       now=now)
        dupe = runtime.repair_enqueue("anti_entropy", 1, target="w2",
                                      now=now)
        assert first is not None and dupe is None
        other = runtime.repair_enqueue("anti_entropy", 2, target="w2",
                                       now=now)
        assert other is not None

    def test_repair_stats_surface_everywhere(self, healing3):
        healing3.client.ingest("web", *event_batch(0), sync=True)
        healing3.fail("w1")
        healing3.settle()
        journal = healing3.service.runtime.repair_stats()
        assert journal["done"] > 0
        # /cluster, /repairs, /status, and the runtime tier all agree
        assert healing3.client.cluster_status()["repairs"] == journal
        assert healing3.client.repairs()["journal"] == journal
        status = healing3.client.status()
        assert status["repairs"] == journal
        counters = status["runtime"]["counters"]
        assert counters.get("repairs_completed", 0) == journal["done"]


class TestConcurrentHeartbeat:
    def test_blackholed_worker_does_not_serialize_the_round(
        self, tmp_path, monkeypatch
    ):
        """Regression for the serial-probe stall: with three workers
        black-holing ``/health``, a concurrent round costs ~one probe
        budget, not three stacked ones — and marks exactly the
        black-holed workers dead."""
        monkeypatch.setattr(coordinator_module, "WORKER_RETRIES", 0)
        cluster = Cluster(
            tmp_path, n_workers=4, replication=2,
            probe_timeout_s=0.5, probe_concurrency=8,
        )
        try:
            for worker_id in ("w1", "w2", "w3"):
                cluster.workers[worker_id].service.install_faults(
                    FaultPlan(0, [FaultRule(
                        "blackhole", verb="/health", delay_s=30.0,
                    )]),
                    scope=worker_id,
                )
            started = time.monotonic()
            cluster.service._heartbeat_round()
            elapsed = time.monotonic() - started
            # serial probing would cost >= 3 * 0.5s before w4's probe
            assert elapsed < 1.4, f"round took {elapsed:.2f}s (serialized?)"
            rows = cluster.service._worker_rows()
            assert not rows["w1"]["alive"]
            assert not rows["w2"]["alive"]
            assert not rows["w3"]["alive"]
            assert rows["w4"]["alive"]
        finally:
            cluster.close()


class TestRouterRefresh:
    def test_from_coordinator_builds_live_membership(self, healing3):
        router = ClusterClient.from_coordinator(port=healing3.service.port)
        with router:
            assert router.worker_ids == ("w1", "w2", "w3")
            assert router.topology.replication == 2
            assert router.topology.n_slots == N_SLOTS

    def test_refresh_drops_failed_workers(self, healing3):
        router = ClusterClient.from_coordinator(port=healing3.service.port)
        with router:
            healing3.fail("w2")
            result = router.refresh()
            assert result["removed"] == ["w2"]
            assert router.worker_ids == ("w1", "w3")

    def test_refresh_without_coordinator_raises(self):
        with pytest.raises(ClusterError, match="coordinator"):
            ClusterClient({}).refresh()


class TestAcceptance:
    def test_autonomous_detection_and_re_replication(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 9 acceptance: replication=2, SIGKILL a primary, and the
        background loops alone — real clock, no test-side driving — must
        detect, promote, and restore full replication within a bounded
        window, with answers bit-exact throughout."""
        monkeypatch.setattr(coordinator_module, "WORKER_RETRIES", 0)
        clock = Clock()  # workers may share a frozen ingest clock ...
        workers: dict[str, ServiceThread] = {}
        config = CoordinatorConfig(
            root=str(tmp_path / "coordinator"),
            namespaces=(NS,),
            port=0,
            n_slots=N_SLOTS,
            replication=2,
            salt=SALT,
            heartbeat_s=0.2,  # ... but the coordinator runs in real time
            probe_timeout_s=0.5,
            fail_after_s=0.6,
            repair_interval_s=0.2,
        )
        coordinator = CoordinatorThread(config)
        coordinator.start()
        client = ServiceClient(port=coordinator.service.port)
        try:
            for i in (1, 2, 3):
                worker_id = f"w{i}"
                thread = ServiceThread(ServiceConfig(
                    store_root=str(tmp_path / worker_id),
                    namespaces=slot_namespace_configs(NS, N_SLOTS),
                    port=0,
                    compact_to=None,
                    tick_s=3600.0,
                ), clock=clock)
                thread.start()
                workers[worker_id] = thread
                with ServiceClient(port=thread.service.port) as probe:
                    probe.wait_ready()
                client.cluster_join(
                    worker_id, "127.0.0.1", thread.service.port
                )
            batch = event_batch(0)
            client.ingest("web", *batch, sync=True)
            workers["w1"].kill()
            deadline = time.monotonic() + 20.0
            view = None
            while time.monotonic() < deadline:
                view = client.repairs()
                if view["fully_replicated"] and "w1" in view[
                    "failed_workers"
                ]:
                    break
                time.sleep(0.1)
            assert view is not None and view["fully_replicated"], view
            assert view["failed_workers"] == ["w1"]
            offline = offline_engine([batch])
            served = client.estimate("web", "max", ["h1", "h2"])
            assert served["partial"] is False
            assert served["estimate"] == offline.estimate(
                AggregationSpec("max", ("h1", "h2"))
            )
        finally:
            client.close()
            coordinator.stop()
            for worker_id, thread in workers.items():
                if worker_id != "w1":
                    thread.stop()
