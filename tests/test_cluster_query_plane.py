"""The cluster query data plane: one conditional fetch per worker, a
version-keyed slot memo, exact-or-``partial`` re-proved where the new
state lives.

Four contracts:

* **exactness under interleaving** — a seeded walk over ingest, repeated
  and unseen-predicate queries, ``since``/``until`` selections, rotation,
  a hard kill, a rejoin, repair and handoff: every coordinator answer is
  bit-identical to an offline :class:`QueryEngine` over the acknowledged
  events of the selection, or loudly ``partial``;
* **two mutants the suite is shown to catch** — a worker that answers
  ``unchanged`` for a token it no longer holds, and a memo that drops
  the worker from its key;
* **an owner that did not answer is failed over, never the answer** —
  an error reply, an undecodable frame, an ``unchanged`` for a token
  nobody sent; and reads spread over a slot's replicas;
* **request counts are exact** — a query inside a lease makes no worker
  request, the one after a routed ingest one per contacted worker;
  **hostile bytes** in a ``bundle_batch`` frame are a typed
  :class:`CodecError`, never an allocation sized by a count the bytes do
  not back.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import tracemalloc
from urllib.parse import urlencode

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.core.predicates import key_in
from repro.engine.queries import QueryEngine, jaccard_from_summary
from repro.obs import parse_prometheus_text
from repro.service import (
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
from repro.service.cluster.coordinator import CoordinatorService
from repro.service.server import SummaryService
from repro.store.codec import (
    BUNDLE_STATES,
    CodecError,
    _BlobReader,
    _BlobWriter,
    decode,
    decode_bundle_batch,
    encode,
    encode_bundle_batch,
)
from repro.store.store import bucket_for
from tests.test_ingest_frames import reheader

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
N_SLOTS = 4
#: splits the 4 slots' top HRW scorers 2/2 between w1 and w2
SALT = 4
SPEC = AggregationSpec("max", ("h1", "h2"))


class Clock:
    def __init__(self) -> None:
        self.now = 1_767_226_000.0

    def __call__(self) -> float:
        return self.now


def event_batch(lo: int, n: int = 40):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo + 1)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def offline_engine(batches) -> "QueryEngine | None":
    if not batches:
        return None
    summarizer = NS.make_summarizer()
    for keys, weights in batches:
        summarizer.ingest_multi(
            keys, {name: np.asarray(w) for name, w in weights.items()}
        )
    return QueryEngine(summarizer.summary())


class Rig:
    """A coordinator and real workers on one frozen clock; workers can be
    killed and respawned on their own store root."""

    def __init__(self, root, workers=("w1", "w2"), replication=2) -> None:
        self.root = root
        self.clock = Clock()
        self.workers: dict[str, ServiceThread] = {}
        self.clients: dict[str, ServiceClient] = {}
        self.dead: set[str] = set()
        self.coordinator = CoordinatorThread(
            CoordinatorConfig(
                root=str(root / "coordinator"),
                namespaces=(NS,),
                port=0,
                n_slots=N_SLOTS,
                replication=replication,
                salt=SALT,
                heartbeat_s=3600.0,  # no background probes
                probe_timeout_s=2.0,
                repair_interval_s=0.0,  # ticks driven by the test
            ),
            clock=self.clock,
        )
        self.coordinator.start()
        self.service = self.coordinator.service
        self.client = ServiceClient(port=self.service.port)
        for worker_id in workers:
            self.join(worker_id)

    def spawn(self, worker_id: str) -> ServiceThread:
        thread = ServiceThread(
            ServiceConfig(
                store_root=str(self.root / worker_id),
                namespaces=slot_namespace_configs(NS, N_SLOTS),
                port=0,
                compact_to=None,
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

    def join(self, worker_id: str) -> dict:
        old = self.clients.pop(worker_id, None)
        if old is not None:
            old.close()
        thread = self.spawn(worker_id)
        return self.client.cluster_join(
            worker_id, "127.0.0.1", thread.service.port
        )

    def kill(self, worker_id: str) -> None:
        self.workers[worker_id].kill()
        self.dead.add(worker_id)

    def leave(self, worker_id: str) -> None:
        self.client.cluster_leave(worker_id)
        self.workers.pop(worker_id).stop()
        self.clients.pop(worker_id).close()

    def repair(self, max_ticks: int = 8) -> None:
        for _ in range(max_ticks):
            tick = self.service.repairs.tick()
            if not (tick["enqueued"] or tick["done"] or tick["requeued"]):
                break

    def fetch_counts(self) -> dict:
        """``outcome -> slots`` of the coordinator's fetch counter."""
        samples = parse_prometheus_text(self.client.metrics())
        return {
            outcome: samples.get((
                "repro_cluster_slot_fetch_total", (("outcome", outcome),)
            ), 0.0)
            for outcome in (*BUNDLE_STATES, "failed")
        }

    def bundle_requests(self) -> dict:
        """``worker -> GET /bundle`` requests it has answered 200."""
        return {
            worker_id: parse_prometheus_text(client.metrics()).get((
                "repro_http_requests_total",
                (("path", "/bundle"), ("status", "200")),
            ), 0.0)
            for worker_id, client in self.clients.items()
            if worker_id not in self.dead
        }

    def close(self) -> None:
        self.client.close()
        self.coordinator.stop()
        for worker_id, thread in self.workers.items():
            if worker_id not in self.dead:
                thread.stop()
        for client in self.clients.values():
            client.close()


@pytest.fixture
def rig(tmp_path):
    built = Rig(tmp_path)
    yield built
    built.close()


# -- exact or partial, under interleaving -------------------------------------


def run_interleaving(root, seed: int, steps: int = 60) -> dict:
    """One seeded walk; raises AssertionError on any answer that is
    neither bit-identical to the offline reference nor ``partial``.
    Returns how often each kind of answer was seen."""
    rng = random.Random(seed)
    rig = Rig(root, workers=("w1", "w2", "w3"), replication=2)
    acked: list[tuple[str, list, dict]] = []  # (bucket, keys, weights)
    seen = {"exact": 0, "partial": 0, "empty": 0}
    spare = ["w4"]
    left = False
    healed = True  # no copy is stale: the cluster can afford a loss
    segment = 0

    def reference(since=None, until=None):
        return offline_engine([
            (keys, weights) for bucket, keys, weights in acked
            if (since is None or bucket >= since)
            and (until is None or bucket <= until)
        ])

    def check(served, expected) -> None:
        context = f"seed {seed}, after {len(acked)} batches: {served}"
        if served["partial"]:
            assert served["missing_slots"], context
            assert served["cached"] is False, context
            # loud loss is only acceptable while a worker is down
            assert rig.dead, f"partial with every worker up — {context}"
            seen["partial"] += 1
        elif expected is None:
            assert served.get("empty") and served["estimate"] is None, context
            seen["empty"] += 1
        else:
            assert served["estimate"] == expected, context
            seen["exact"] += 1

    def query(since=None, until=None, keys=None) -> None:
        engine = reference(since, until)
        expected = None if engine is None else engine.estimate(
            SPEC, predicate=None if keys is None else key_in(keys)
        )
        check(
            rig.client.estimate(
                "web", "max", ["h1", "h2"], keys=keys,
                since=since, until=until,
            ),
            expected,
        )

    try:
        for _step in range(steps):
            alive = sorted(set(rig.workers) - rig.dead)
            op = rng.choices(
                ["ingest", "repeat", "unseen", "window", "jaccard",
                 "rotate", "tick", "kill", "rejoin", "repair",
                 "join", "leave"],
                weights=[6, 4, 4, 3, 1, 2, 2, 1, 2, 2, 1, 1],
            )[0]
            if op == "ingest":
                n = rng.randint(1, 12)
                keys = [
                    f"s{segment}-{rng.randint(0, 30)}" for _ in range(n)
                ]
                weights = {
                    name: [rng.uniform(0.01, 1e3) for _ in range(n)]
                    for name in NS.assignments
                }
                segment += 1
                rig.client.ingest("web", keys, weights, sync=True)
                acked.append(
                    (bucket_for(rig.clock.now, "minute"), keys, weights)
                )
            elif op == "repeat":
                query()
            elif op == "unseen":
                pool = [key for _, keys, _ in acked for key in keys]
                picked = rng.sample(pool, min(len(pool), 5)) + [
                    f"unseen-{rng.random()}"
                ]
                query(keys=picked)
            elif op == "window":
                buckets = sorted({bucket for bucket, _, _ in acked})
                if not buckets:
                    continue
                lo, hi = sorted(rng.choices(buckets, k=2))
                query(
                    since=rng.choice([lo, None]),
                    until=rng.choice([hi, None]),
                )
            elif op == "jaccard":
                engine = reference()
                check(
                    rig.client.jaccard("web", ["h1", "h2"]),
                    None if engine is None else jaccard_from_summary(
                        engine.summary, ("h1", "h2"), "l"
                    ),
                )
            elif op == "rotate":
                rig.clients[rng.choice(alive)].rotate()
            elif op == "tick":
                rig.clock.now += 60.0 * rng.randint(1, 3)
            elif op == "kill":
                if healed and len(alive) >= 3:
                    rig.kill(rng.choice(alive))
                    healed = False
            elif op == "rejoin":
                for worker_id in sorted(rig.dead):
                    rig.join(worker_id)  # same store root: stale, then healed
            elif op == "repair":
                if not rig.dead:
                    rig.repair()
                    healed = True
            elif op == "join":
                if spare and healed:
                    rig.join(spare.pop())
            elif op == "leave":
                if not left and healed and len(alive) >= 3:
                    rig.leave(rng.choice(alive))
                    left = True
        # every walk ends on a full-population answer from a healed cluster
        for worker_id in sorted(rig.dead):
            rig.join(worker_id)
        rig.repair()
        query()
        query()
        return seen
    finally:
        rig.close()


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
def test_every_answer_is_exact_or_loudly_partial(tmp_path, seed):
    seen = run_interleaving(tmp_path, seed)
    assert seen["exact"] >= 5, seen


def lying_bundle_frame(self, held, since, until) -> bytes:
    """Mutant worker: ``unchanged`` for whatever token the caller holds,
    whether or not this worker still holds it."""
    sections = []
    for namespace, token in held.items():
        if token is not None:
            sections.append((namespace, "unchanged", token, None))
            continue
        blob, version, _ = self._merged_bundle_blob(namespace, since, until)
        sections.append(
            (namespace, "empty" if blob is None else "bundle", version, blob)
        )
    return encode_bundle_batch(sections)


def test_mutant_worker_answering_unchanged_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(SummaryService, "_bundle_frame", lying_bundle_frame)
    with pytest.raises(AssertionError, match="seed 1"):
        run_interleaving(tmp_path, seed=1)


# -- the memo, against stub workers -------------------------------------------


class StubWorker:
    """A worker client whose slots are ``(token, bundle | None)`` pairs
    the test sets directly."""

    def __init__(self) -> None:
        self.slots: dict[str, tuple] = {}
        self.asked: list[dict] = []
        self.fail: "Exception | None" = None
        self.reply: "bytes | None" = None  # overrides the honest frame

    def bundles(self, held, since=None, until=None, timeout=None) -> bytes:
        self.asked.append(dict(held))
        if self.fail is not None:
            raise self.fail
        if self.reply is not None:
            return self.reply
        sections = []
        for namespace, token in held.items():
            version, bundle = self.slots[namespace]
            if token == version:
                sections.append((namespace, "unchanged", version, None))
            elif bundle is None:
                sections.append((namespace, "empty", version, None))
            else:
                sections.append((namespace, "bundle", version, encode(bundle)))
        return encode_bundle_batch(sections)

    def close(self) -> None:
        pass


def slot_bundles(batches) -> dict:
    """``slot namespace -> bundle | None`` of the events, sliced by slot."""
    out = {}
    for slot in range(N_SLOTS):
        summarizer = NS.make_summarizer()
        events = 0
        for keys, weights in batches:
            picked = [
                i for i, key in enumerate(keys)
                if slot_for_key(key, N_SLOTS, SALT) == slot
            ]
            summarizer.ingest_multi(
                [keys[i] for i in picked],
                {n: np.asarray(w)[picked] for n, w in weights.items()},
            )
            events += len(picked)
        out[slot_namespace("web", slot)] = (
            summarizer.sketch_bundle() if events else None
        )
    return out


@pytest.fixture
def stubbed(tmp_path):
    """A coordinator (never started: queries are called directly) over
    two stub workers at replication 2, each holding batch ``A``."""
    service = CoordinatorService(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,),
        n_slots=N_SLOTS, replication=2, salt=SALT,
    ))
    stubs = {"w1": StubWorker(), "w2": StubWorker()}
    for port, (worker_id, stub) in enumerate(stubs.items(), start=1):
        service.runtime.cluster_join(worker_id, "stub", port, now=0.0)
        service._clients[worker_id] = stub
        stub.slots = {
            name: ("t1", bundle)
            for name, bundle in slot_bundles([event_batch(0)]).items()
        }
    yield service, stubs
    service._fanout.shutdown()
    service.runtime.close()


QUERY = {"namespace": "web", "function": "max", "assignments": ["h1", "h2"]}
EXPECT_A = offline_engine([event_batch(0)]).estimate(SPEC)
EXPECT_B = offline_engine([event_batch(500)]).estimate(SPEC)


def check_memo_is_keyed_by_worker(service, stubs) -> None:
    """Both owners mint token ``t1``, for different data; the first
    owner dies.  The survivor must be asked with no token and its own
    data answered."""
    stubs["w2"].slots = {
        name: ("t1", bundle)
        for name, bundle in slot_bundles([event_batch(500)]).items()
    }
    service.runtime.cluster_mark("w2", alive=False, now=0.0)  # read w1 first
    first = service._answer_query(dict(QUERY))
    assert first["estimate"] == EXPECT_A and first["sources"]["workers"] == 1
    stubs["w1"].fail = ConnectionRefusedError("killed")
    second = service._answer_query(dict(QUERY))
    assert second["partial"] is False
    assert set(stubs["w2"].asked[-1].values()) == {None}
    assert second["estimate"] == EXPECT_B, "answered another worker's data"


def test_memo_is_keyed_by_worker(stubbed):
    check_memo_is_keyed_by_worker(*stubbed)
    assert stubbed[0].stats["failovers"] == N_SLOTS


def test_mutant_memo_without_worker_in_its_key_is_caught(
    stubbed, monkeypatch
):
    monkeypatch.setattr(
        CoordinatorService, "_memo_key", staticmethod(
            lambda namespace, slot, worker, since, until:
            (namespace, slot, None, since, until)
        ),
    )
    with pytest.raises(AssertionError):
        check_memo_is_keyed_by_worker(*stubbed)


def test_unchanged_slots_reuse_the_engine_and_changed_ones_swap_in(stubbed):
    service, stubs = stubbed
    first = service._answer_query(dict(QUERY))
    assert first["estimate"] == EXPECT_A and first["sources"]["workers"] == 2
    assert service.stats["memo_rebuilds"] == 1
    # unseen predicate, unchanged slots: tokens out, markers back
    subset = service._answer_query({**QUERY, "keys": ["k1", "k2", "nope"]})
    assert subset["cached"] is False
    assert subset["estimate"] == offline_engine([event_batch(0)]).estimate(
        SPEC, predicate=key_in(["k1", "k2", "nope"])
    )
    assert (service.stats["memo_hits"], service.stats["memo_rebuilds"]) == (1, 1)
    for stub in stubs.values():
        assert len(stub.asked) == 2  # one request per worker per query
        assert set(stub.asked[-1].values()) == {"t1"}
    # one slot moves on every owner: only it is swapped in
    name = slot_namespace("web", 2)
    both = slot_bundles([event_batch(0), event_batch(500)])
    for stub in stubs.values():
        stub.slots[name] = ("t2", both[name])
    moved = service._answer_query(dict(QUERY))
    mixed = {**slot_bundles([event_batch(0)]), name: both[name]}
    assert moved["estimate"] == QueryEngine.from_bundles(
        [mixed[slot_namespace("web", slot)] for slot in range(N_SLOTS)]
    ).estimate(SPEC)
    assert service.stats["memo_rebuilds"] == 2
    assert len(service._slot_memo) == N_SLOTS  # t2 replaced t1, not joined it


def test_a_rejoining_worker_is_asked_afresh(stubbed):
    """A worker that lost its store restarts its token sequence: after a
    rejoin nothing the memo held of it may be offered back."""
    service, stubs = stubbed
    service._answer_query(dict(QUERY))
    service._join("w1", "stub", 1)
    service._clients["w1"] = stubs["w1"]
    service._stale.clear()  # as after a completed repair
    service._answer_query({**QUERY, "keys": ["k3"]})
    assert set(stubs["w1"].asked[-1].values()) == {None}
    assert set(stubs["w2"].asked[-1].values()) == {"t1"}


def test_concurrent_queries_share_the_memo_safely(stubbed):
    """More query threads than cores, a shortened switch interval, and a
    writer flipping one slot between two versions: every answer is the
    exact answer of one of the two states, and the memo stays bounded."""
    service, stubs = stubbed
    name = slot_namespace("web", 2)
    plain = slot_bundles([event_batch(0)])[name]
    grown = slot_bundles([event_batch(0), event_batch(500)])[name]
    rest = slot_bundles([event_batch(0)])
    predicates = [None, ["k1", "k2"], ["k3", "k501"], ["k7", "k520", "no"]]
    allowed = []
    for keys in predicates:
        predicate = None if keys is None else key_in(keys)
        allowed.append({
            QueryEngine.from_bundles([
                {**rest, name: state}[slot_namespace("web", slot)]
                for slot in range(N_SLOTS)
            ]).estimate(SPEC, predicate=predicate)
            for state in (plain, grown)
        })
    stop = threading.Event()
    failures: list = []

    def writer() -> None:
        flip = 0
        while not stop.is_set():
            flip += 1
            state = (f"v{flip}", grown if flip % 2 else plain)
            for stub in stubs.values():
                stub.slots[name] = state

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(40):
                pick = rng.randrange(len(predicates))
                request = dict(QUERY)
                if predicates[pick] is not None:
                    request["keys"] = predicates[pick]
                served = service._answer_query(request)
                assert served["partial"] is False
                assert served["estimate"] in allowed[pick], served
        except Exception as err:  # surfaced on the main thread below
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    flipper = threading.Thread(target=writer)
    try:
        flipper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        flipper.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (*threads, flipper))
    assert not failures, failures[0]
    assert len(service._slot_memo) <= 2 * N_SLOTS
    assert len(service.planner._engines) == 1  # one engine per selection


@pytest.mark.parametrize("sabotage", [
    lambda stub: setattr(stub, "fail", ServiceError(503, {"error": "busy"})),
    lambda stub: setattr(stub, "fail", ServiceError(500, {"error": "boom"})),
    lambda stub: setattr(stub, "reply", b"not a frame"),
    lambda stub: setattr(stub, "reply", encode_bundle_batch(
        [(slot_namespace("web", 0), "empty", "t9", None)]
    )),
    lambda stub: setattr(stub, "reply", encode_bundle_batch([
        (slot_namespace("web", slot), "unchanged", "t1", None)
        for slot in range(N_SLOTS)
    ])),
], ids=[
    "error-503", "error-500", "junk-bytes", "answers-for-other-slots",
    "unchanged-for-a-token-never-sent",
])
def test_an_owner_that_did_not_answer_is_failed_over(stubbed, sabotage):
    service, stubs = stubbed
    sabotage(stubs["w1"])
    served = service._answer_query(dict(QUERY))
    assert served["partial"] is False and served["estimate"] == EXPECT_A
    assert served["sources"]["workers"] == 1
    assert service.stats["failovers"] == 2  # w1's two first-choice slots
    # answering badly is not being unreachable: w1 stays alive-marked
    assert service._worker_rows()["w1"]["alive"]
    stubs["w2"].fail = ServiceError(503, {"error": "busy"})
    lost = service._answer_query(dict(QUERY))
    assert lost["partial"] is True
    assert lost["missing_slots"] == list(range(N_SLOTS))
    assert lost["estimate"] is None


# -- against real workers -----------------------------------------------------


def test_error_reply_from_one_owner_does_not_sink_the_query(rig):
    """Regression (fails at the parent): ``HTTP 500: HTTP 503: injected
    fault`` although w2 holds every slot."""
    batch = event_batch(0)
    rig.client.ingest("web", *batch, sync=True)
    rig.workers["w1"].service.install_faults(
        FaultPlan(7, [
            FaultRule("error", verb="/bundle", status=503, scope="w1"),
        ]),
        scope="w1",
    )
    served = rig.client.estimate("web", "max", ["h1", "h2"])
    assert served["partial"] is False
    assert served["estimate"] == offline_engine([batch]).estimate(SPEC)
    assert served["sources"]["workers"] == 1
    view = rig.client.cluster_status()
    assert view["stats"]["failovers"] == 2
    assert all(row["alive"] for row in view["workers"])
    assert rig.fetch_counts()["failed"] == 2


def test_slot_scoped_fault_rules_see_a_multi_slot_fetch(rig):
    rig.client.ingest("web", *event_batch(0), sync=True)
    plan = FaultPlan(7, [
        FaultRule("error", verb="/bundle", status=503, slot=3, scope="w"),
    ])
    for thread in rig.workers.values():
        thread.service.install_faults(plan, scope="w")
    served = rig.client.estimate("web", "max", ["h1", "h2"])
    # whichever worker was asked for slot 3 refused its whole request;
    # then the other owner refused it too: slot 3's group ends up missing
    assert served["partial"] is True and 3 in served["missing_slots"]
    assert [event["slot"] for event in plan.events][0] != []
    assert all(3 in event["slot"] for event in plan.events)


def test_reads_spread_over_the_replicas(rig):
    """Regression (fails at the parent, which reads every slot from its
    lexicographically first alive owner)."""
    batch = event_batch(0)
    rig.client.ingest("web", *batch, sync=True)
    served = rig.client.estimate("web", "max", ["h1", "h2"])
    assert served["partial"] is False
    assert served["estimate"] == offline_engine([batch]).estimate(SPEC)
    assert served["sources"]["workers"] == 2


def test_request_counts_are_exact(rig):
    rig.client.ingest("web", *event_batch(0), sync=True)
    before = rig.bundle_requests()
    rig.client.estimate("web", "max", ["h1", "h2"])
    after_first = rig.bundle_requests()
    assert all(after_first[w] - before[w] == 1 for w in before)
    counts = rig.fetch_counts()
    assert counts["bundle"] + counts["empty"] == N_SLOTS

    # unseen predicate, unchanged slots, inside the first read's lease:
    # no worker request, no fetch outcome, no gather — the loop answers
    rig.client.estimate("web", "max", ["h1", "h2"], keys=["k1", "k7"])
    assert rig.bundle_requests() == after_first
    assert rig.fetch_counts() == counts
    spans = rig.client.trace_recent(limit=50)["spans"]
    query = next(span for span in spans if span["name"] == "POST /query")
    assert query["tags"]["path"] == "loop"
    assert not [
        span for span in spans
        if span["trace"] == query["trace"]
        and span["name"] in ("plan", "gather", "slot-fetch")
    ]
    status = rig.client.status()
    assert status["stats"]["memo_hits"] == 1
    assert status["stats"]["memo_rebuilds"] == 1

    # a routed batch ends the lease: one request per contacted worker
    rig.client.ingest("web", *event_batch(500), sync=True)
    rig.client.estimate("web", "max", ["h1", "h2"])
    after_batch = rig.bundle_requests()
    assert all(after_batch[w] - after_first[w] == 1 for w in before)


def test_single_namespace_form_and_frame_form_agree(rig):
    """``GET /bundle?namespace=`` keeps its reply; the frame form is the
    same view, per namespace, built by the same code."""
    rig.client.ingest("web", *event_batch(0), sync=True)
    worker = rig.clients["w1"]
    names = [slot_namespace("web", slot) for slot in range(N_SLOTS)]
    singles = [worker.bundle(name) for name in names]
    frame = worker.bundles(dict.fromkeys(names))
    sections = decode_bundle_batch(frame, names)
    for (blob, version), section in zip(singles, sections):
        assert section.version == version
        if blob is None:
            assert section.state == "empty" and section.bundle is None
        else:
            assert section.state == "bundle"
            assert encode(section.bundle) == blob
    held = {s.namespace: s.version for s in sections}
    again = decode_bundle_batch(worker.bundles(held), names)
    assert {s.state for s in again} == {"unchanged"}
    assert len(worker.bundles(held)) < 1024
    for bad in ("[]", "{}", "5", '{"web--s000": 7}', "{"):
        with pytest.raises(ServiceError) as err:
            worker._request("GET", "/bundle?" + urlencode({"have": bad}))
        assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        worker.bundles({"web--s999": None})
    assert err.value.status == 404


# -- hostile bytes ------------------------------------------------------------


def bundle_of(lo: int = 0, n: int = 12):
    summarizer = NS.make_summarizer()
    keys, weights = event_batch(lo, n)
    summarizer.ingest_multi(
        keys, {name: np.asarray(w) for name, w in weights.items()}
    )
    return summarizer.sketch_bundle()


def good_frame() -> bytes:
    return encode_bundle_batch([
        ("web--s000", "unchanged", "t1", None),
        ("web--s001", "bundle", "t2", encode(bundle_of())),
        ("web--s002", "empty", "t3", None),
    ])


class TestBundleBatchCodec:
    def test_round_trip_keeps_order_states_and_bits(self):
        sections = decode_bundle_batch(
            good_frame(), ["web--s000", "web--s001", "web--s002"]
        )
        assert [(s.namespace, s.state, s.version) for s in sections] == [
            ("web--s000", "unchanged", "t1"),
            ("web--s001", "bundle", "t2"),
            ("web--s002", "empty", "t3"),
        ]
        assert sections[0].bundle is None and sections[2].bundle is None
        assert encode(sections[1].bundle) == encode(bundle_of())
        keys = sections[1].bundle.sketches["h1"].keys
        assert isinstance(keys, np.ndarray)
        generic = decode(good_frame())  # the generic entry point
        assert [s.state for s in generic] == [s.state for s in sections]
        assert good_frame() == good_frame()  # deterministic

    def test_states_and_bytes_must_agree_at_encode_time(self):
        with pytest.raises(CodecError, match="needs bundle bytes"):
            encode_bundle_batch([("a", "bundle", "t", None)])
        with pytest.raises(CodecError, match="carries no bundle bytes"):
            encode_bundle_batch([("a", "empty", "t", b"x")])

    def test_every_truncation_is_a_codec_error(self):
        frame = good_frame()
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_bundle_batch(frame[:cut])

    def test_any_flipped_payload_byte_fails_the_checksum(self):
        frame = bytearray(good_frame())
        frame[-9] ^= 0x40
        with pytest.raises(CodecError, match="checksum"):
            decode_bundle_batch(bytes(frame))

    @pytest.mark.parametrize("mutate", [
        lambda h: h["meta"].update(sections=[]),
        lambda h: h["meta"].update(sections="web--s001"),
        lambda h: h["meta"].pop("sections"),
        lambda h: h["meta"]["sections"].append(["web--s003", "bundle", "t"]),
        lambda h: h["meta"]["sections"].pop(1),
        lambda h: h["meta"]["sections"].__setitem__(
            2, ["web--s000", "empty", "t3"]),
        lambda h: h["meta"]["sections"].__setitem__(
            0, ["web--s000", "bundle", "t1"]),
        lambda h: h["meta"]["sections"].__setitem__(
            1, ["web--s001", "unchanged", "t2"]),
        lambda h: h["meta"]["sections"].__setitem__(
            1, ["web--s001", "deleted", "t2"]),
        lambda h: h["meta"]["sections"].__setitem__(
            1, ["web--s001", "bundle"]),
        lambda h: h["meta"]["sections"].__setitem__(
            1, ["web--s001", "bundle", 2]),
        lambda h: h["meta"]["sections"].__setitem__(
            1, [None, "bundle", "t2"]),
        lambda h: h["arrays"].pop("lens"),
        lambda h: h["arrays"].update(part0=dict(h["arrays"]["ranks"])),
        lambda h: h["arrays"]["keys"].update(enc="blob"),
        lambda h: h["arrays"]["ranks"].update(nbytes=2**40),
        lambda h: h["arrays"]["ranks"].update(offset=-16),
        lambda h: h.update(kind="event_batch"),
        lambda h: h.update(crc32="x"),
        lambda h: h.pop("crc32"),
        lambda h: h["meta"].update(bundles=None),
        lambda h: h["meta"].pop("bundles"),
    ], ids=[
        "zero-sections", "sections-not-a-list", "no-sections",
        "state-without-bytes", "bytes-without-section",
        "duplicate-namespace", "bundle-state-no-part", "part-for-unchanged",
        "unknown-state", "short-row", "version-not-a-string",
        "null-namespace", "no-lens", "extra-buffer", "keys-not-a-column",
        "ranks-past-the-end", "negative-offset", "wrong-kind",
        "crc-not-an-int", "no-crc", "null-bundles", "no-bundles",
    ])
    def test_frame_headers_that_lie_are_codec_errors(self, mutate):
        with pytest.raises(CodecError):
            decode_bundle_batch(reheader(good_frame(), mutate))

    def test_a_reply_for_other_namespaces_is_refused(self):
        names = ["web--s000", "web--s001", "web--s002"]
        decode_bundle_batch(good_frame(), names)
        for expect in (names[:2], names[::-1], names + ["web--s003"], []):
            with pytest.raises(CodecError, match="the request named"):
                decode_bundle_batch(good_frame(), expect)

    @pytest.mark.parametrize("mutate", [
        lambda h: h["arrays"]["ranks"].update(shape=[2**40]),
        lambda h: h["arrays"]["ranks"].update(shape="3"),
        lambda h: h["arrays"]["ranks"].update(nbytes=2**40),
        lambda h: h["arrays"]["ranks"].update(nbytes=-8),
        lambda h: h["arrays"]["ranks"].update(offset="0"),
        lambda h: h["arrays"]["ranks"].update(dtype="|O"),
        lambda h: h["arrays"]["ranks"].update(dtype="no-such-dtype"),
        lambda h: h["arrays"]["ranks"].update(enc="blob"),
        lambda h: h["arrays"].pop("ranks"),
        lambda h: h["arrays"].update(ranks=[1, 2]),
        lambda h: h["arrays"]["scalars"].update(shape=[3], nbytes=24),
        lambda h: h["arrays"].pop("k"),
        lambda h: h["meta"]["bundles"].update(kind="poisson"),
        lambda h: h["meta"]["bundles"].update(names=["h1", "h1"]),
        lambda h: h["meta"]["bundles"].update(names=["h1"]),
        lambda h: h["meta"]["bundles"].update(salt="21"),
        lambda h: h["meta"]["bundles"].update(family="uniform"),
        lambda h: h["meta"]["bundles"].pop("method"),
        lambda h: h.update(kind="no-such-kind"),
        lambda h: h.update(meta=[]),
        lambda h: h.update(arrays=None),
        lambda h: h.pop("kind"),
    ])
    def test_column_headers_that_lie_are_codec_errors(self, mutate):
        with pytest.raises(CodecError):
            decode_bundle_batch(reheader(good_frame(), mutate))

    @pytest.mark.parametrize("column,lie", [
        ("lens", lambda lens, k: [lens[0], lens[1] - 1]),
        ("lens", lambda lens, k: [-1, lens[0] + lens[1] + 1]),
        ("lens", lambda lens, k: [2**62, 2**62]),
        ("k", lambda lens, k: [k[0], 0]),
        ("k", lambda lens, k: [k[0], lens[1] - 1]),
        ("seeded", lambda lens, k: [False, False]),
    ], ids=[
        "lens-short-of-the-columns", "negative-len", "lens-past-the-columns",
        "k-zero", "k-below-its-length", "seeds-nobody-owns",
    ])
    def test_part_counts_that_lie_are_codec_errors(self, column, lie):
        """Per-part entries a header states consistently — right dtype,
        right count — that the concatenated columns do not back."""
        reader = _BlobReader(good_frame(), writable=False, verify=False)
        columns = {
            name: np.frombuffer(
                bytes(reader.blob(name)), dtype=spec["dtype"]
            ).reshape(spec["shape"])
            for name, spec in reader.arrays.items() if spec["enc"] == "raw"
        }
        columns[column] = np.asarray(
            lie(columns["lens"].tolist(), columns["k"].tolist()),
            dtype=columns[column].dtype,
        )
        writer = _BlobWriter("bundle_batch", reader.meta)
        for name in ("lens", "k", "scalars", "seeded"):
            writer.add_array(name, columns[name])
        writer._append("keys", bytes(reader.blob("keys")),
                       dict(reader.arrays["keys"]))
        for name in ("ranks", "weights", "seeds"):
            writer.add_array(name, columns[name])
        with pytest.raises(CodecError, match="bundle_batch"):
            decode_bundle_batch(writer.render())

    def test_a_blob_of_another_kind_is_refused(self):
        sketch = encode(bundle_of().sketches["h1"])
        with pytest.raises(CodecError, match="sketch_bundle"):
            encode_bundle_batch([("web--s001", "bundle", "t", sketch)])

    def test_bundles_of_another_configuration_share_no_frame(self):
        other = NamespaceConfig("web", ("h1", "h2"), k=8, salt=22)
        summarizer = other.make_summarizer()
        summarizer.ingest_multi([1], {"h1": [1.0], "h2": [1.0]})
        with pytest.raises(CodecError, match="one kind, family, salt"):
            encode_bundle_batch([
                ("web--s000", "bundle", "t", bundle_of()),
                ("web--s001", "bundle", "t", summarizer.sketch_bundle()),
            ])

    @pytest.mark.parametrize("form", [
        lambda ids: ids + 0.5,
        lambda ids: ids % 2 == 0,
        lambda ids: np.array([f"k{i}" for i in ids], dtype=object),
        lambda ids: ids.astype(np.uint64) + np.uint64(2**63),
    ], ids=["float64", "bool", "str", "uint64"])
    def test_every_part_reads_back_as_its_own_blob(self, form):
        def keyed(lo, n):
            bundle = bundle_of(lo)
            sketches = {
                name: dataclasses.replace(
                    sketch, keys=form(np.arange(lo, lo + len(sketch.keys)))[:n],
                    ranks=sketch.ranks[:n], weights=sketch.weights[:n],
                    seeds=sketch.seeds[:n],
                )
                for name, sketch in bundle.sketches.items()
            }
            return dataclasses.replace(bundle, sketches=sketches)

        # one full part, one cut short, one empty
        bundles = [keyed(0, 99), keyed(40, 3), keyed(80, 0)]
        sections = decode_bundle_batch(encode_bundle_batch([
            (f"web--s00{at}", "bundle", "t", bundle)
            for at, bundle in enumerate(bundles)
        ]))
        for section, bundle in zip(sections, bundles):
            own = decode(encode(bundle))
            for name, sketch in own.sketches.items():
                got = section.bundle.sketches[name]
                assert got.equals(sketch)
                assert got.keys.dtype == sketch.keys.dtype
                assert got.keys.tolist() == sketch.keys.tolist()

    def test_a_kept_bundle_keeps_no_frame_alive(self):
        sections = decode_bundle_batch(good_frame())
        sketch = sections[1].bundle.sketches["h1"]
        for column in (sketch.keys, sketch.ranks, sketch.weights,
                       sketch.seeds):
            assert column.base is None or not isinstance(
                column.base, (bytes, memoryview)
            )
            assert column.flags.owndata

    def test_not_a_frame(self):
        for junk in (b"", b"CWSS", b"{}", b"CWSS" + b"\xff" * 64):
            with pytest.raises(CodecError):
                decode_bundle_batch(junk)
        with pytest.raises(CodecError, match="bundle_batch"):
            decode_bundle_batch(encode(bundle_of()))

    def test_declared_sizes_allocate_nothing(self):
        liars = [
            reheader(good_frame(), mutate) for mutate in (
                lambda h: h["arrays"]["ranks"].update(shape=[2**40]),
                lambda h: h["arrays"]["keys"].update(nbytes=2**40),
                lambda h: h["arrays"]["keys"].update(count=2**40),
                lambda h: h["arrays"]["lens"].update(nbytes=2**40),
            )
        ]
        tracemalloc.start()
        try:
            for frame in liars:
                with pytest.raises(CodecError):
                    decode_bundle_batch(frame)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
