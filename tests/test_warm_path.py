"""The warm query path: answered on the event loop, result cache written
behind.

A worker answers a query whose answer (result cache) or engine (engine
memo) is already in memory on its event-loop thread, taking every lock
without waiting; anything else — a plan, a temporal spec, a busy lock —
goes to the executor, which runs the same memo step before it plans.  The
result cache is an in-memory index over ``runtime.sqlite``'s
``query_cache`` rows: probes and puts run no SQL, and the changes reach
the database in one batched transaction per flush (ticker, checkpoint,
``close``).  The contracts pinned here: the loop never waits, the JSON is
byte-identical whichever way an answer is served, and a kill loses only
unflushed rows — recomputed afterwards, never served stale.
"""

from __future__ import annotations

import http.client
import json
import sqlite3
import sys
import threading
import time

import numpy as np
import pytest

from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    httpbase,
)
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorThread,
    slot_namespace_configs,
)
from repro.store.runtime import RuntimeStore
from repro.store.store import bucket_for

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)
#: a frozen clock: no bucket boundary passes mid-test, so two daemons fed
#: the same batches hold the same version tokens
T0 = 1_767_226_000.0
MAX = {"namespace": "web", "function": "max", "assignments": ["h1", "h2"]}


def make_thread(root, tick_s: float = 0.05) -> ServiceThread:
    return ServiceThread(ServiceConfig(
        store_root=str(root), namespaces=(NS,), port=0, compact_to=None,
        tick_s=tick_s,
    ), clock=lambda: T0)


def event_batch(lo: int, n: int = 50):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo)
    return keys, {
        "h1": (rng.pareto(1.3, n) + 0.05).tolist(),
        "h2": (rng.pareto(1.5, n) + 0.05).tolist(),
    }


def post_query(port: int, body: dict) -> tuple[bytes, str]:
    """One ``POST /query``: the raw reply body and its trace id."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/query", body=json.dumps(body).encode())
        reply = conn.getresponse()
        raw = reply.read()
        assert reply.status == 200, raw
        return raw, reply.getheader("X-Repro-Trace").split("-")[0]
    finally:
        conn.close()


def spans_of(service, trace: str) -> dict:
    """Span name -> tags, for the spans one request left in the ring."""
    return {
        row["name"]: row.get("tags", {})
        for row in service.tracer.recent(512) if row["trace"] == trace
    }


def path_of(service, trace: str) -> str:
    return spans_of(service, trace)["POST /query"]["path"]


def ingest(port: int, lo: int = 0) -> None:
    client = ServiceClient(port=port)
    try:
        client.ingest("web", *event_batch(lo), sync=True)
    finally:
        client.close()


class TestResultCacheInMemory:
    def test_a_full_cache_keeps_caching_new_answers(self, tmp_path):
        """Eviction by fewest hits evicted the row just put once every
        other row had a hit, so a full cache stopped caching for good —
        across restarts too.  Least recently used goes first now, never
        the row being put."""
        runtime = RuntimeStore(tmp_path)
        for name in "abcd":
            runtime.cache_put(name, "web", "r1", {"q": name}, max_entries=4)
            runtime.cache_get(name)
        runtime.cache_put("new", "web", "r1", {"q": "new"}, max_entries=4)
        assert runtime.cache_get("new") == {"q": "new"}
        assert runtime.cache_get("a") is None  # least recently used
        runtime.close()
        reopened = RuntimeStore(tmp_path)
        assert reopened.cache_stats()["entries"] == 4
        reopened.cache_put("newer", "web", "r1", {"q": "newer"}, max_entries=4)
        assert reopened.cache_get("newer") == {"q": "newer"}
        assert reopened.cache_get("b") is None
        reopened.close()

    def test_probes_and_puts_run_no_sql(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        statements = []

        class Recording:
            def __init__(self, conn) -> None:
                self.conn = conn

            def execute(self, sql, *args):
                statements.append(sql)
                return self.conn.execute(sql, *args)

            def executemany(self, sql, rows):
                statements.append(sql)
                return self.conn.executemany(sql, rows)

            def close(self) -> None:
                self.conn.close()

        runtime._conn = Recording(runtime._conn)
        runtime.cache_put("q1", "web", "r1", {"estimate": 1.0})
        runtime.cache_put("q2", "web", "r1", {"estimate": 2.0})
        assert runtime.cache_get("q1") == {"estimate": 1.0}
        assert runtime.cache_get("missing") is None
        assert runtime.cache_stats() == {"entries": 2, "hits": 1}
        assert statements == []
        assert runtime.cache_flush() == 2
        # one transaction carries every pending row
        assert statements[0] == "BEGIN IMMEDIATE"
        assert statements[-1] == "COMMIT"
        assert statements.count("BEGIN IMMEDIATE") == 1
        statements.clear()
        assert runtime.cache_flush() == 0  # nothing pending: no SQL
        assert statements == []
        runtime.close()

    def test_rows_and_hits_reach_the_database_at_a_flush(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        runtime.cache_put("q", "web", "r1", {"estimate": 1.5})
        runtime.cache_get("q")
        reader = RuntimeStore(tmp_path)
        assert reader.cache_stats() == {"entries": 0, "hits": 0}
        reader.close()
        assert runtime.cache_flush() == 1
        runtime.cache_get("q")  # a hit after the flush is pending again
        reader = RuntimeStore(tmp_path)
        assert reader.cache_stats() == {"entries": 1, "hits": 1}
        reader.close()
        runtime.close()  # close flushes
        reader = RuntimeStore(tmp_path)
        assert reader.cache_stats() == {"entries": 1, "hits": 2}
        assert reader.cache_get("q") == {"estimate": 1.5}
        reader.close()

    def test_a_failed_flush_keeps_its_rows_pending(self, tmp_path):
        runtime = RuntimeStore(tmp_path, timeout=0.05)
        runtime.cache_put("q", "web", "r1", {"estimate": 1.0})
        holder = sqlite3.connect(
            str(tmp_path / "runtime.sqlite"), isolation_level=None
        )
        holder.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(TimeoutError):
                runtime.cache_flush()
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert runtime.cache_flush() == 1
        runtime.close()
        reader = RuntimeStore(tmp_path)
        assert reader.cache_get("q") == {"estimate": 1.0}
        reader.close()

    def test_concurrent_probes_puts_and_flushes_lose_no_hit(self, tmp_path):
        """Threads put, probe and flush one cache with a tiny switch
        interval; every hit a probe returned is counted, in memory and
        after the last flush in the database."""
        runtime = RuntimeStore(tmp_path)
        keys = [f"q{i}" for i in range(32)]
        for key in keys:
            runtime.cache_put(key, "web", "r1", {"key": key})
        served = [0] * 6

        def work(number: int) -> None:
            rng = np.random.default_rng(number)
            for step in range(400):
                key = keys[rng.integers(len(keys))]
                if number == 0 and step % 20 == 0:
                    runtime.cache_flush()
                elif step % 7 == 0:
                    runtime.cache_put(key, "web", "r1", {"key": key})
                elif runtime.cache_get(key) == {"key": key}:
                    served[number] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(number,))
                for number in range(len(served))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert runtime.cache_stats() == {
            "entries": len(keys), "hits": sum(served),
        }
        runtime.close()
        reader = RuntimeStore(tmp_path)
        assert reader.cache_stats() == {
            "entries": len(keys), "hits": sum(served),
        }
        reader.close()

    def test_a_purge_reaches_the_database_at_once(self, tmp_path):
        runtime = RuntimeStore(tmp_path)
        runtime.cache_put("old", "web", "v[s0:w1:t1]", {"estimate": 1.0})
        runtime.cache_flush()
        runtime.cache_put("new", "web", "v[s0:w1:t2]", {"estimate": 2.0})
        runtime.cache_put("kept", "web", "v[s0:w2:t1]", {"estimate": 3.0})
        runtime.cache_purge(":w1:")
        assert runtime.cache_get("old") is None
        assert runtime.cache_get("new") is None
        reader = RuntimeStore(tmp_path)
        assert reader.cache_stats()["entries"] == 0
        reader.close()
        runtime.cache_flush()  # a later flush resurrects nothing
        reader = RuntimeStore(tmp_path)
        assert reader.cache_get("old") is None
        assert reader.cache_get("kept") == {"estimate": 3.0}
        reader.close()
        runtime.close()


@pytest.fixture
def twins(tmp_path):
    """Two workers over identical histories: ``loop`` answers from
    memory on its event loop, ``executor`` never does.  No ticker runs,
    so no lock is ever busy when a query arrives."""
    with make_thread(tmp_path / "a", tick_s=3600.0) as loop, \
            make_thread(tmp_path / "b", tick_s=3600.0) as executor:
        executor.service.planner.answer_in_memory = (
            lambda spec, max_work: None
        )
        for thread in (loop, executor):
            ingest(thread.service.port)
        yield loop.service, executor.service


def test_loop_and_executor_answers_are_byte_identical(twins, monkeypatch):
    loop, executor = twins
    bucket = bucket_for(T0)
    window = {"since": bucket, "until": bucket}
    queries = [
        (MAX, "executor"),  # builds the engine
        ({**MAX, "keys": ["k1", "k7", "k30"]}, "loop"),
        ({**MAX, "function": "single", "assignments": ["h2"]}, "loop"),
        ({**MAX, "estimator": "lset", "keys": ["k2", 9]}, "loop"),
        ({"namespace": "web", "kind": "jaccard",
          "assignments": ["h1", "h2"]}, "loop"),
        ({**MAX, **window}, "executor"),  # its own engine
        ({**MAX, **window, "keys": ["k3", "k4"]}, "loop"),
        ({**MAX, "keys": ["k1", "k7", "k30"]}, "loop"),  # a result hit
        ({**MAX, "window": "30s"}, "executor"),
        ({**MAX, "window": "30s"}, "executor"),  # temporal hits too
        ({**MAX, "decay": "5m"}, "executor"),
        ({**MAX, "decay": "5m"}, "executor"),
    ]
    for body, path in queries:
        raw, trace = post_query(loop.port, body)
        assert raw == post_query(executor.port, body)[0], body
        assert path_of(loop, trace) == path, body
    # the kernel is one named span under the request
    raw, trace = post_query(loop.port, {**MAX, "keys": ["k5"]})
    spans = spans_of(loop, trace)
    assert spans["POST /query"]["path"] == "loop"
    assert "estimate" in spans and spans["cache-probe"]["outcome"] == "miss"
    # more union rows plus keys than the loop may take: the executor
    monkeypatch.setattr(httpbase, "LOOP_WORK_ROWS", 3)
    body = {**MAX, "keys": ["k6", "k8"]}
    raw, trace = post_query(loop.port, body)
    assert raw == post_query(executor.port, body)[0]
    assert path_of(loop, trace) == "executor"


def test_the_loop_never_waits_on_a_daemon_lock(tmp_path):
    """While another thread holds the manager's, the planner's or the
    result cache's lock, ``/health`` answers at once and a warm query
    waits on the executor — then answers with the bytes an uncontended
    daemon gives."""
    with make_thread(tmp_path / "busy") as busy, \
            make_thread(tmp_path / "calm") as calm:
        service = busy.service
        for thread in (busy, calm):
            ingest(thread.service.port)
            post_query(thread.service.port, MAX)  # the engine memo
        client = ServiceClient(port=service.port, timeout=10.0, retries=0)
        locks = {
            "manager": service.manager.lock,
            "planner": service.planner._lock,
            "runtime": service.runtime.cache_lock,
        }
        for number, (name, lock) in enumerate(locks.items()):
            body = {**MAX, "keys": [f"k{number}", f"k{number + 10}"]}
            held, release = threading.Event(), threading.Event()

            def hold(lock=lock, held=held, release=release) -> None:
                with lock:
                    held.set()
                    release.wait(10.0)

            holder = threading.Thread(target=hold)
            holder.start()
            reply = {}
            asker = threading.Thread(
                target=lambda body=body, reply=reply: reply.update(
                    answer=post_query(service.port, body)
                )
            )
            try:
                assert held.wait(5.0)
                queries = service.stats["queries"]
                asker.start()
                # counted just before the loop tries the memo step; the
                # loop answers /health only after the handler moved on
                deadline = time.monotonic() + 5.0
                while service.stats["queries"] == queries:
                    assert time.monotonic() < deadline, name
                    time.sleep(0.001)
                started = time.monotonic()
                assert client.health()["ok"]
                assert time.monotonic() - started < 0.5, name
                assert asker.is_alive(), name  # parked on the lock
            finally:
                release.set()
                holder.join()
            asker.join(10.0)
            raw, trace = reply["answer"]
            assert raw == post_query(calm.service.port, body)[0], name
            assert path_of(service, trace) == "executor", name
        client.close()


class TestWriteBehind:
    def test_clean_restart_replays_the_same_bytes(self, tmp_path):
        root = tmp_path / "store"
        body = {**MAX, "keys": ["k1", "k2"]}
        with make_thread(root) as thread:
            ingest(thread.service.port)
            first = json.loads(post_query(thread.service.port, body)[0])
            hit, _trace = post_query(thread.service.port, body)
            client = ServiceClient(port=thread.service.port)
            hits = client.status()["runtime"]["cache"]["hits"]
            client.close()
        assert first["cached"] is False and json.loads(hit)["cached"]
        with make_thread(root) as thread:
            replay, _trace = post_query(thread.service.port, body)
            client = ServiceClient(port=thread.service.port)
            assert client.status()["runtime"]["cache"]["hits"] > hits
            client.close()
        assert replay == hit

    def test_a_kill_loses_only_unflushed_rows(self, tmp_path):
        root = tmp_path / "store"
        flushed = {**MAX, "keys": ["k1", "k2"]}
        unflushed = {**MAX, "keys": ["k3"]}
        thread = make_thread(root, tick_s=3600.0)  # no ticker flush
        port = thread.start()
        ingest(port)
        client = ServiceClient(port=port)
        client.rotate()  # durable at the stream head
        client.close()
        first = json.loads(post_query(port, flushed)[0])
        thread.service.runtime.cache_flush()
        lost, _trace = post_query(port, unflushed)
        thread.kill()

        thread = make_thread(root, tick_s=3600.0)
        port = thread.start()
        again = json.loads(post_query(port, flushed)[0])
        assert again["cached"] is True
        assert again["estimate"] == first["estimate"]
        assert again["version"] == first["version"]
        # the unflushed row is recomputed — to the very same bytes
        assert post_query(port, unflushed)[0] == lost
        # events the kill loses move the token: nothing cached under the
        # pre-kill version is served afterwards
        ingest(port, lo=500)
        ahead = json.loads(post_query(port, flushed)[0])
        thread.service.runtime.cache_flush()
        thread.kill()

        thread = make_thread(root, tick_s=3600.0)
        port = thread.start()
        after = json.loads(post_query(port, flushed)[0])
        client = ServiceClient(port=port)
        current = client.status()["namespaces"]["web"]["version"]
        client.close()
        thread.stop()
        assert after["cached"] is False
        assert after["version"] == current
        assert current not in (ahead["version"], first["version"])
        assert after["estimate"] == first["estimate"]  # the lost batch


def test_coordinator_warm_repeat_is_a_hit_written_behind(tmp_path):
    n_slots = 4
    worker = ServiceThread(ServiceConfig(
        store_root=str(tmp_path / "w1"),
        namespaces=slot_namespace_configs(NS, n_slots), port=0,
        compact_to=None, tick_s=3600.0,
    ), clock=lambda: T0)
    worker.start()
    coordinator = CoordinatorThread(CoordinatorConfig(
        root=str(tmp_path / "coordinator"), namespaces=(NS,), port=0,
        n_slots=n_slots, replication=1, salt=4, heartbeat_s=3600.0,
    ), clock=lambda: T0)
    coordinator.start()
    client = ServiceClient(port=coordinator.service.port)
    try:
        client.cluster_join("w1", "127.0.0.1", worker.service.port)
        client.ingest("web", *event_batch(0), sync=True)
        first = client.estimate("web", "max", ["h1", "h2"], keys=["k1"])
        again = client.estimate("web", "max", ["h1", "h2"], keys=["k1"])
        assert not first["cached"] and again["cached"]
        assert again["estimate"] == first["estimate"]
    finally:
        client.close()
        coordinator.stop()  # closing the runtime tier flushes it
        worker.stop()
    runtime = RuntimeStore(tmp_path / "coordinator")
    assert runtime.cache_stats() == {"entries": 1, "hits": 1}
    runtime.close()
