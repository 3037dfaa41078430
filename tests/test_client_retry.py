"""ServiceClient resilience: bounded retry, full-jitter backoff, /health.

The cluster's liveness story rests on three client-side contracts:

* **idempotent verbs retry, bounded** — every GET and the read-only
  query POSTs survive connection-level blips (refused, reset, dropped
  keep-alive) with at most ``retries`` retries and full-jitter
  exponential backoff, ``min(backoff_cap_s, backoff_s * 2**i) * rng()``;
* **non-idempotent verbs never retry** — re-sending ``POST /ingest``
  after an ambiguous failure could double-apply a batch and silently
  break exactness, and HTTP-level errors (a server answered) are never
  retried for any verb;
* **``GET /health`` is lock-free** — it answers while the window
  manager's lock is held, so a coordinator heartbeat never declares a
  busy-but-alive worker dead.

The retry policy is tested with injected fake connections, rng, and
sleep — no real sockets, no real time.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import (
    NamespaceConfig,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

NS = NamespaceConfig("web", ("h1", "h2"), k=16, salt=4)


class FakeResponse:
    def __init__(self, status=200, payload=None):
        self.status = status
        self.headers = {}
        self._body = json.dumps(payload or {"ok": True}).encode()

    def read(self):
        return self._body


class FakeConn:
    """One scripted connection: raises its outcome or serves a response."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.requests = []

    def request(self, method, path, body=None, headers=None):
        self.requests.append((method, path))
        if isinstance(self.outcome, Exception):
            raise self.outcome

    def getresponse(self):
        return self.outcome

    def close(self):
        pass


def scripted_client(outcomes, retries=3, backoff_s=0.1, backoff_cap_s=0.4):
    """A client whose connections play out ``outcomes`` in order.

    Checkout timeouts are recorded on ``client.checkout_timeouts`` (the
    pool hands every call a connection built with the effective per-call
    timeout).
    """
    sleeps = []
    conns = [FakeConn(outcome) for outcome in outcomes]
    pool = iter(conns)
    client = ServiceClient(
        retries=retries,
        backoff_s=backoff_s,
        backoff_cap_s=backoff_cap_s,
        rng=lambda: 0.5,
        sleep=sleeps.append,
    )
    client.checkout_timeouts = []

    def checkout(timeout):
        client.checkout_timeouts.append(timeout)
        return next(pool)

    client._connection = checkout
    return client, conns, sleeps


class TestRetryPolicy:
    def test_get_retries_then_succeeds_with_jittered_backoff(self):
        client, conns, sleeps = scripted_client([
            ConnectionResetError("boom"),
            ConnectionRefusedError("boom"),
            FakeResponse(payload={"ok": True, "stopping": False}),
        ])
        assert client.liveness() == {"ok": True, "stopping": False}
        assert [len(c.requests) for c in conns] == [1, 1, 1]
        # full jitter at rng()=0.5: min(cap, 0.1 * 2**i) * 0.5
        assert sleeps == [0.05, 0.1]

    def test_backoff_is_capped(self):
        client, _conns, sleeps = scripted_client(
            [ConnectionResetError("boom")] * 4 + [FakeResponse()],
            retries=4,
        )
        assert client.status() == {"ok": True}
        assert sleeps == [0.05, 0.1, 0.2, 0.2]  # 0.4 cap * 0.5 jitter

    def test_retries_are_bounded(self):
        client, conns, sleeps = scripted_client(
            [ConnectionResetError("down")] * 10, retries=2
        )
        with pytest.raises(ConnectionResetError):
            client.status()
        assert sum(len(c.requests) for c in conns) == 3  # 1 try + 2 retries
        assert len(sleeps) == 2

    def test_query_posts_are_retried(self):
        client, _conns, sleeps = scripted_client([
            ConnectionResetError("blip"),
            FakeResponse(payload={"estimate": 4.0}),
        ])
        assert client.estimate("web", "max", ["h1"]) == {"estimate": 4.0}
        assert len(sleeps) == 1

    def test_ingest_is_never_retried(self):
        client, conns, sleeps = scripted_client([
            ConnectionResetError("ambiguous"),
            FakeResponse(),
        ])
        with pytest.raises(ConnectionResetError):
            client.ingest("web", ["k1"], {"h1": [1.0]})
        assert sleeps == []
        assert len(conns[1].requests) == 0  # the second conn was never used

    def test_http_errors_are_never_retried(self):
        client, conns, sleeps = scripted_client([
            FakeResponse(status=400, payload={"error": "bad request"}),
            FakeResponse(),
        ])
        with pytest.raises(ServiceError) as excinfo:
            client.status()
        assert excinfo.value.status == 400
        assert sleeps == []
        assert len(conns[1].requests) == 0

    def test_per_call_timeout_is_scoped_to_the_call(self):
        client, _conns, _sleeps = scripted_client(
            [FakeResponse(), FakeResponse()]
        )
        assert client.timeout == 30.0
        client.liveness(timeout=2.0)
        client.status()
        # the override selects the checked-out connection; the client's
        # own timeout (shared, read by other threads) never changes
        assert client.checkout_timeouts == [2.0, 30.0]
        assert client.timeout == 30.0


class TestThreadSafety:
    """One shared client across threads: the coordinator's usage pattern.

    The coordinator shares one :class:`ServiceClient` per worker between
    its heartbeat loop, query plane, and ingest router.  Before the
    connection pool, a per-call timeout override mutated the client's
    shared timeout and closed the one shared connection — a heartbeat
    could kill an in-flight bundle fetch, and interleaved
    request/getresponse pairs could hand one caller another caller's
    response body.  Every call now runs its full exchange on its own
    checked-out connection, so hammering mixed verbs with mixed timeout
    overrides must yield only correct, endpoint-matching answers.
    """

    def test_shared_client_concurrent_mixed_timeouts(self, tmp_path):
        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=(NS,),
            port=0,
            compact_to=None,
            tick_s=3600.0,
        )
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port, timeout=10.0)
            client.wait_ready()
            errors = []
            start = threading.Barrier(6)

            def prober(override):
                try:
                    start.wait(timeout=10.0)
                    for _ in range(20):
                        health = client.liveness(timeout=override)
                        assert health["ok"] is True
                        assert "queue" not in health  # a /health body
                        status = client.status()
                        assert status["ok"] is True
                        assert "queue" in status  # a /status body
                except Exception as err:  # surfaced after the join
                    errors.append(err)

            threads = [
                threading.Thread(target=prober, args=(override,), daemon=True)
                for override in (None, None, 2.0, 3.0, 5.0, None)
            ]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=60.0)
            client.close()
            assert errors == []


class TestLockFreeHealth:
    def test_health_answers_while_manager_lock_is_held(self, tmp_path):
        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            namespaces=(NS,),
            port=0,
            compact_to=None,
            tick_s=3600.0,
        )
        with ServiceThread(config) as thread:
            client = ServiceClient(port=thread.service.port, timeout=5.0)
            client.wait_ready()
            manager = thread.service.manager
            hold = threading.Event()
            release = threading.Event()

            def holder():
                with manager.lock:
                    hold.set()
                    release.wait(timeout=30.0)

            blocker = threading.Thread(target=holder, daemon=True)
            blocker.start()
            try:
                assert hold.wait(timeout=10.0)
                # the probe must answer despite the held manager lock
                health = client.liveness(timeout=5.0)
                assert health["ok"] is True and health["stopping"] is False
            finally:
                release.set()
                blocker.join(timeout=10.0)
                client.close()
