"""End-to-end HTTP tests for the always-on daemon (SummaryService).

A real server on an ephemeral port, a real stdlib client: ingest with
backpressure (429 when the bounded queue is full), bit-exact query
answers over HTTP JSON, forced rotation, status/health introspection,
error mapping, and the graceful shutdown → checkpoint → resume cycle.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec
from repro.engine.queries import QueryEngine
from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)


def make_config(root, **overrides):
    base = dict(
        store_root=str(root),
        namespaces=(NS,),
        port=0,
        compact_to=None,
        tick_s=0.05,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def event_batch(lo: int, n: int = 50):
    keys = [f"k{i}" for i in range(lo, lo + n)]
    rng = np.random.default_rng(lo)
    w1 = (rng.pareto(1.3, n) + 0.05).tolist()
    w2 = (rng.pareto(1.5, n) + 0.05).tolist()
    return keys, {"h1": w1, "h2": w2}


def offline_engine(batches) -> QueryEngine:
    summarizer = NS.make_summarizer()
    for keys, weights in batches:
        summarizer.ingest_multi(
            keys, {name: np.asarray(w) for name, w in weights.items()}
        )
    return QueryEngine(summarizer.summary())


#: 2026-01-01T00:10:30Z, mid-minute: the ``service`` fixture's clock
#: stands still there, so no bucket boundary can rotate the live window
#: between two requests of a test
MID_BUCKET = 1_767_226_230.0


@pytest.fixture
def service(tmp_path):
    with ServiceThread(
        make_config(tmp_path / "store"), clock=lambda: MID_BUCKET
    ) as thread:
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        yield thread, client
        client.close()


class TestEndpoints:
    def test_health_and_status(self, service):
        _thread, client = service
        health = client.health()
        assert health["ok"] and health["namespaces"] == ["web"]
        status = client.status()
        assert status["ok"]
        assert status["namespaces"]["web"]["bucket"]
        assert status["queue"]["capacity"] == 64
        assert status["store"]["namespaces"] == []  # nothing rotated yet
        assert status["stats"]["requests"] >= 1

    def test_ingest_then_query_is_bit_exact_over_http(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        result = client.ingest("web", keys, weights, sync=True)
        assert result["applied"] and result["events"] == 50

        offline = offline_engine([(keys, weights)])
        for function in ("max", "min", "single"):
            assignments = ["h1"] if function == "single" else ["h1", "h2"]
            served = client.estimate("web", function, assignments)
            assert served["estimate"] == offline.estimate(
                AggregationSpec(function, tuple(assignments))
            )
        jaccard = client.jaccard("web", ["h1", "h2"])
        from repro.engine.queries import jaccard_from_summary

        assert jaccard["estimate"] == jaccard_from_summary(
            offline.summary, ("h1", "h2"), "l"
        )

    def test_query_get_is_curlable(self, service):
        thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        url = (
            f"http://127.0.0.1:{thread.service.port}/query?"
            "namespace=web&function=max&assignments=h1,h2"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.load(response)
        assert payload["ok"]
        assert payload["estimate"] == client.estimate(
            "web", "max", ["h1", "h2"]
        )["estimate"]

    def test_subpopulation_and_cache_flags(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        subset = keys[:10]
        first = client.estimate("web", "max", ["h1", "h2"], keys=subset)
        again = client.estimate("web", "max", ["h1", "h2"], keys=subset)
        assert not first["cached"] and again["cached"]
        offline = offline_engine([(keys, weights)])
        from repro.core.predicates import key_in

        assert first["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2")), predicate=key_in(subset)
        )

    def test_flush_rotation_preserves_answers(self, service):
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        before = client.estimate("web", "max", ["h1", "h2"])
        rotated = client.rotate()
        assert [w["part"] for w in rotated["written"]] == ["live"]
        after = client.estimate("web", "max", ["h1", "h2"])
        assert after["estimate"] == before["estimate"]
        assert not after["cached"]  # version moved with the flush
        # a flush is durability, not a reset: the live view supersedes
        # the window's own flushed artifact
        assert after["sources"]["stored_entries"] == 0
        assert after["sources"]["live_events"] == 100
        status = client.status()
        assert status["store"]["namespaces"][0]["namespace"] == "web"
        assert status["namespaces"]["web"]["buffered_events"] == 100

    def test_flush_then_same_keys_stays_exact_over_http(self, service):
        # Regression for the /rotate mid-bucket hazard: repeated keys
        # after a flush must keep every later query exact, not brick the
        # namespace with an unmergeable duplicate-key artifact pair.
        _thread, client = service
        keys, weights = event_batch(0)
        client.ingest("web", keys, weights, sync=True)
        client.rotate()
        client.ingest("web", keys, weights, sync=True)  # same keys again
        served = client.estimate("web", "max", ["h1", "h2"])
        offline = offline_engine([(keys, weights), (keys, weights)])
        assert served["estimate"] == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )

    def test_get_query_coerces_numeric_keys(self, service):
        # GET /query carries keys as text; numeric-looking ones must fold
        # to numbers so they match integer-keyed summaries like POST does.
        thread, client = service
        # 10 keys < k=16, so every key is in the sample and the
        # subpopulation estimate is an exact positive sum
        keys = list(range(100, 110))
        weights = {"h1": [float(i + 1) for i in range(10)],
                   "h2": [1.0] * 10}
        client.ingest("web", keys, weights, sync=True)
        posted = client.estimate("web", "max", ["h1", "h2"],
                                 keys=[100, 101, 102])
        url = (
            f"http://127.0.0.1:{thread.service.port}/query?"
            "namespace=web&function=max&assignments=h1,h2&keys=100,101,102"
        )
        with urllib.request.urlopen(url, timeout=10) as response:
            got = json.load(response)
        assert got["estimate"] == posted["estimate"]
        assert posted["estimate"] > 0.0

    def test_async_ingest_applies_eventually(self, service):
        _thread, client = service
        keys, weights = event_batch(0, n=10)
        result = client.ingest("web", keys, weights)  # fire and forget
        assert result["queued"] == 10 and not result["applied"]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if client.status()["stats"]["ingested_events"] >= 10:
                break
            time.sleep(0.02)
        else:
            pytest.fail("async batch was never applied")


class TestErrorMapping:
    def test_unknown_namespace_404(self, service):
        _thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.ingest("ghost", ["a"], {"h1": [1.0]})
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.estimate("ghost", "max", ["h1"])
        assert excinfo.value.status == 404

    def test_no_data_404_and_bad_request_400(self, service):
        _thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.estimate("web", "max", ["h1", "h2"])  # empty service
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.estimate("web", "median", ["h1"])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query", {"kind": "estimate"})
        assert excinfo.value.status == 400

    def test_repeated_assignment_name_400(self, service):
        # a repeated name enters an inclusion probability twice; the
        # query is refused, not answered from the distinct names
        _thread, client = service
        client.ingest("web", ["a", "b"], {"h1": [1.0, 2.0]}, sync=True)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query", {
                "kind": "estimate", "namespace": "web", "function": "max",
                "assignments": ["h1", "h1"],
            })
        assert excinfo.value.status == 400
        assert "duplicate" in str(excinfo.value)

    def test_malformed_ingest_bodies_400(self, service):
        _thread, client = service
        for body in (
            {"namespace": "web", "keys": "nope", "weights": {}},
            {"namespace": "web", "keys": ["a"], "weights": {"h1": [1, 2]}},
            {"namespace": "web", "keys": ["a"],
             "weights": {"ghost": [1.0]}},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/ingest", body)
            assert excinfo.value.status in (400, 404)

    def test_sync_ingest_surfaces_apply_errors(self, service):
        _thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.ingest("web", ["a"], {"h1": [-5.0]}, sync=True)
        assert excinfo.value.status == 400
        assert "non-negative" in str(excinfo.value)

    def test_unknown_route_and_method(self, service):
        thread, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/ingest")
        assert excinfo.value.status == 405

    def test_async_ingest_rejects_unappliable_batches_upfront(self, service):
        # An async batch is acknowledged before it is applied, so anything
        # that cannot apply must be rejected at accept time — never a 200
        # for data that silently fails in the worker.
        _thread, client = service
        for body in (
            {"namespace": "web", "keys": ["a"],
             "weights": {"h1": ["oops"]}},
            {"namespace": "web", "keys": ["a"],
             "weights": {"h1": [float("nan")]}},
            {"namespace": "web", "keys": ["a"],
             "weights": {"h1": [float("inf")]}},
            {"namespace": "web", "keys": ["a"], "weights": {"h1": [-1.0]}},
            {"namespace": "web", "keys": [None], "weights": {"h1": [1.0]}},
            {"namespace": "web", "keys": [["nested"]],
             "weights": {"h1": [1.0]}},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/ingest", body)
            assert excinfo.value.status == 400
        assert client.status()["stats"]["ingest_errors"] == 0

    def test_nan_key_is_refused_at_accept_sync_or_async(self, service):
        # Regression: an async JSON batch with a NaN key was acked 200 and
        # then failed at apply (ingest_errors went up, nothing landed);
        # the sync form answered 400 only after it had been queued.
        _thread, client = service
        for sync in (False, True):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/ingest", {
                    "namespace": "web", "keys": [1.5, float("nan")],
                    "weights": {"h1": [1.0, 2.0]}, "sync": sync,
                })
            assert excinfo.value.status == 400
        # a sync batch applies only after everything queued before it
        client.ingest("web", ["ok"], {"h1": [1.0]}, sync=True)
        stats = client.status()["stats"]
        assert stats["ingest_errors"] == 0
        assert stats["ingest_batches"] == 1

    def test_malformed_content_length_400(self, service):
        import socket as socket_module

        thread, _client = service
        for bad in ("abc", "-5"):
            with socket_module.create_connection(
                ("127.0.0.1", thread.service.port), timeout=10
            ) as sock:
                sock.sendall(
                    (
                        "POST /ingest HTTP/1.1\r\n"
                        f"Content-Length: {bad}\r\n\r\n"
                    ).encode()
                )
                response = sock.recv(4096).decode()
            assert response.startswith("HTTP/1.1 400")
            assert "Content-Length" in response

    def test_overlong_request_line_400(self, service):
        # Past the StreamReader's 64 KiB buffer limit readline raises
        # ValueError; the handler must answer 400, not die silently.
        import socket as socket_module

        thread, _client = service
        with socket_module.create_connection(
            ("127.0.0.1", thread.service.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /" + b"a" * 100_000)  # no newline in sight
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "request line too long" in response

    def test_overlong_header_line_431(self, service):
        import socket as socket_module

        thread, _client = service
        with socket_module.create_connection(
            ("127.0.0.1", thread.service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 20_000
                + b"\r\n\r\n"
            )
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 431")
        assert "byte limit" in response

    def test_too_many_header_lines_431(self, service):
        import socket as socket_module

        thread, _client = service
        headers = b"".join(
            b"x-%d: a\r\n" % i for i in range(150)
        )
        with socket_module.create_connection(
            ("127.0.0.1", thread.service.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 431")
        assert "header lines" in response

    def test_invalid_json_400(self, service):
        thread, _client = service
        conn_client = ServiceClient(port=thread.service.port)
        conn = conn_client._connection(conn_client.timeout)
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400 and "invalid JSON" in payload["error"]
        conn_client.close()


class TestBackpressure:
    def test_queue_full_answers_429(self, tmp_path):
        config = make_config(
            tmp_path / "store", ingest_queue_batches=1, tick_s=5.0
        )
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            service = thread.service
            release = threading.Event()
            entered = threading.Event()
            original = service.manager.ingest_sections

            def blocked(*args, **kwargs):
                entered.set()
                release.wait(10.0)
                return original(*args, **kwargs)

            service.manager.ingest_sections = blocked
            try:
                keys, weights = event_batch(0, n=5)
                # batch 1: picked up by the worker, blocks in apply
                client.ingest("web", keys, weights)
                assert entered.wait(5.0)
                # batch 2: sits in the queue (capacity 1)
                deadline = time.monotonic() + 5.0
                while True:
                    try:
                        client.ingest("web", keys, weights)
                        break
                    except ServiceError as err:  # pragma: no cover - timing
                        if err.status != 429 or time.monotonic() > deadline:
                            raise
                # batch 3: queue full -> backpressure
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest("web", keys, weights)
                assert excinfo.value.status == 429
                assert "retry" in str(excinfo.value)
                assert client.status()["stats"]["ingest_rejected"] >= 1
            finally:
                release.set()
                service.manager.ingest_sections = original
            client.close()

    def test_event_loop_never_waits_on_sqlite(self, tmp_path):
        """Regression: the 429 branch counted the rejection with a SQLite
        write on the event-loop thread.  While another process held the
        runtime tier's write lock, the ingest worker's apply waited on
        it holding the store's lock, the loop waited on the worker, and
        the whole daemon froze — the 429 and ``/health`` included."""
        import sqlite3

        config = make_config(tmp_path / "store", ingest_queue_batches=1)
        with ServiceThread(config) as thread:
            service = thread.service
            client = ServiceClient(port=service.port, timeout=10.0, retries=0)
            client.wait_ready()
            holder = sqlite3.connect(
                str(tmp_path / "store" / "runtime.sqlite"),
                isolation_level=None,
            )
            holder.execute("BEGIN IMMEDIATE")
            try:
                keys, weights = event_batch(0, n=5)
                # batch 1: dequeued; its apply waits on the held lock
                client.ingest("web", keys, weights)
                deadline = time.monotonic() + 5.0
                while service._queue.qsize():
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                client.ingest("web", keys, weights)  # fills the queue
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest("web", keys, weights)
                assert excinfo.value.status == 429
                assert time.monotonic() - started < 1.0
                started = time.monotonic()
                assert client.health()["ok"]
                assert time.monotonic() - started < 1.0
            finally:
                holder.execute("ROLLBACK")
                holder.close()
            assert client.status()["stats"]["ingest_rejected"] == 1
            client.close()

    def test_oversized_body_413(self, tmp_path, monkeypatch):
        # The Content-Length gate fires before the body is even read.
        from repro.service import httpbase

        monkeypatch.setattr(httpbase, "MAX_BODY_BYTES", 100)
        config = make_config(tmp_path / "store")
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            with pytest.raises(ServiceError) as excinfo:
                client.ingest("web", [f"k{i}" for i in range(50)],
                              {"h1": [1.0] * 50})
            assert excinfo.value.status == 413
            assert "byte limit" in str(excinfo.value)
            client.close()

    def test_oversized_batch_413(self, tmp_path):
        config = make_config(tmp_path / "store", max_batch_events=3)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            keys, weights = event_batch(0, n=5)
            with pytest.raises(ServiceError) as excinfo:
                client.ingest("web", keys, weights)
            assert excinfo.value.status == 413
            client.close()


class TestShutdownResume:
    def test_ingest_after_shutdown_begins_is_refused(self, service):
        # A batch accepted behind the drain sentinel would be acked but
        # never applied; once stopping, ingest must answer 503.
        thread, client = service
        thread.service._stopping = True
        # once stopping, the server may close idle keep-alive connections
        # at any moment; reconnect like a real client would
        client.close()
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.ingest("web", ["a"], {"h1": [1.0]})
            assert excinfo.value.status == 503
            assert "shutting down" in str(excinfo.value)
        finally:
            thread.service._stopping = False

    def test_clean_shutdown_checkpoints_and_resumes_exactly(self, tmp_path):
        from repro.service.windows import CHECKPOINT_PART
        from repro.store import SummaryStore

        root = tmp_path / "store"
        config = make_config(root)
        batch1, batch2 = event_batch(0), event_batch(1000)

        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            client.ingest("web", *batch1, sync=True)
            client.rotate()
            client.ingest("web", *batch2, sync=True)
            before = client.estimate("web", "max", ["h1", "h2"])["estimate"]
            client.shutdown()  # graceful: drains and checkpoints

        store = SummaryStore(root, create=False)
        checkpoints = store.entries("web", kind="checkpoint")
        assert [entry.part for entry in checkpoints] == [CHECKPOINT_PART]

        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            status = client.status()
            # rotate() is a flush, not a reset: both batches (2 x 50
            # events x 2 assignments) are live again after the resume
            assert status["namespaces"]["web"]["buffered_events"] == 200
            after = client.estimate("web", "max", ["h1", "h2"])["estimate"]
            client.close()
        assert after == before
        offline = offline_engine([batch1, batch2])
        assert after == offline.estimate(AggregationSpec("max", ("h1", "h2")))

    def test_shutdown_completes_with_an_idle_keepalive_client(self, tmp_path):
        # On Python 3.12+ Server.wait_closed() also waits for active
        # client handlers; an idle keep-alive connection must not hang
        # the graceful shutdown (connections are closed before the wait).
        config = make_config(tmp_path / "store")
        thread = ServiceThread(config)
        thread.start()
        client = ServiceClient(port=thread.service.port)
        client.wait_ready()
        idle = ServiceClient(port=thread.service.port)
        idle.health()  # establish a keep-alive connection, leave it open
        try:
            thread.stop(timeout=10.0)  # raises TimeoutError on a hang
        finally:
            idle.close()
            client.close()

    def test_queued_batches_drain_into_the_checkpoint(self, tmp_path):
        root = tmp_path / "store"
        config = make_config(root)
        keys, weights = event_batch(0, n=20)
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            client.ingest("web", keys, weights)  # async: may still be queued
            client.close()
        # ServiceThread.stop() drove the graceful path: the batch must be
        # in the checkpoint even though nothing waited for it.
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            served = client.estimate("web", "max", ["h1", "h2"])["estimate"]
            client.close()
        offline = offline_engine([(keys, weights)])
        assert served == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )


class TestBackgroundRotation:
    def test_ticker_compacts_on_cadence(self, tmp_path):
        class Clock:
            def __init__(self) -> None:
                self.now = 1_767_225_540.0

            def __call__(self) -> float:
                return self.now

        clock = Clock()
        config = make_config(
            tmp_path / "store", tick_s=0.05, compact_to="hour",
            compact_every_s=0.1,
        )
        with ServiceThread(config, clock=clock) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            before = None
            for lo in (0, 1000):  # two minute buckets, key-disjoint
                client.ingest("web", *event_batch(lo, n=10), sync=True)
                clock.now += 60.0
                client.rotate()
            before = client.estimate("web", "max", ["h1", "h2"])["estimate"]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = client.status()
                buckets = status["store"]["namespaces"][0]["buckets"]
                if any(len(bucket) == 11 for bucket in buckets):  # hour id
                    break
                time.sleep(0.05)
            else:
                pytest.fail("ticker never compacted the minute buckets")
            after = client.estimate("web", "max", ["h1", "h2"])
            assert after["estimate"] == before  # compaction is exact
            client.close()

    def test_ticker_rotates_on_bucket_boundary(self, tmp_path):
        # A fake clock parked just before a minute boundary: the ticker
        # must publish the window without any client call.
        class Clock:
            def __init__(self) -> None:
                self.now = 1_767_225_540.0  # 2026-01-01T00:39:00Z

            def __call__(self) -> float:
                return self.now

        clock = Clock()
        config = make_config(tmp_path / "store", tick_s=0.05)
        with ServiceThread(config, clock=clock) as thread:
            client = ServiceClient(port=thread.service.port)
            client.wait_ready()
            keys, weights = event_batch(0, n=10)
            client.ingest("web", keys, weights, sync=True)
            clock.now += 60.0  # cross the boundary; ticker does the rest
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = client.status()
                if status["store"]["namespaces"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("ticker never rotated the live window")
            assert status["namespaces"]["web"]["buffered_events"] == 0
            served = client.estimate("web", "max", ["h1", "h2"])["estimate"]
            client.close()
        offline = offline_engine([(keys, weights)])
        assert served == offline.estimate(
            AggregationSpec("max", ("h1", "h2"))
        )
