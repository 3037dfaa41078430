"""Thin Python client for the ``repro-serve`` HTTP JSON API.

:class:`ServiceClient` wraps the daemon's endpoints in typed methods over
a keep-alive :class:`http.client.HTTPConnection` (stdlib only).  Ingest
batches travel as binary codec ``event_batch`` frames (raw ``<f8``
weights), answers as JSON doubles; both round-trip IEEE-754 exactly —
so an estimate fetched through the client is bit-identical to one
computed in-process over the same data.

>>> client = ServiceClient("127.0.0.1", 8765)      # doctest: +SKIP
>>> client.ingest("web", ["k1", "k2"],             # doctest: +SKIP
...               {"h1": [3.0, 1.5]}, sync=True)
>>> client.estimate("web", "max", ["h1", "h2"])    # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from typing import Callable, Sequence
from urllib.parse import urlencode

from repro.obs import TRACE_HEADER, current_trace_header
from repro.ranks.hashing import as_key_array
from repro.service.jsonutil import restore_non_finite
from repro.store.codec import encode_event_batch, encode_event_section

__all__ = ["ServiceClient", "ServiceError"]

#: connection-level failures: the request may never have reached a server
_TRANSIENT = (http.client.HTTPException, ConnectionError, socket.timeout,
              OSError)


class ServiceError(Exception):
    """A non-2xx response from the service, with its status and payload.

    When the error body carries the request's trace ID (every daemon
    error does), it is appended to the message and exposed as
    ``.trace`` — the handle that makes one failed request grep-able
    across the coordinator's and workers' trace logs.
    """

    def __init__(self, status: int, payload: dict) -> None:
        message = (
            payload.get("error", payload)
            if isinstance(payload, dict)
            else payload
        )
        self.trace = (
            payload.get("trace") if isinstance(payload, dict) else None
        )
        suffix = f" [trace {self.trace}]" if self.trace else ""
        super().__init__(f"HTTP {status}: {message}{suffix}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Synchronous client for one ``repro-serve`` daemon.

    Idempotent verbs (every GET, plus the read-only query POSTs) are
    retried on *connection-level* failures — refused, reset, timed out,
    dropped keep-alive — with bounded exponential backoff and full
    jitter: attempt ``i`` sleeps ``backoff_s * 2**i * uniform(0, 1)``,
    capped at ``backoff_cap_s``, for at most ``retries`` retries.
    Non-idempotent POSTs (``/ingest`` above all) are never retried:
    re-sending a batch the server may already have applied would
    silently break the exactness contract.  HTTP-level errors
    (:class:`ServiceError`) are never retried either — a server
    answered; retrying cannot change its mind.

    The client is **thread-safe**: keep-alive connections live in a
    small pool keyed by socket timeout, every call checks out its own
    connection for the full request/response exchange, and a per-call
    timeout override never touches shared state — so the coordinator's
    heartbeat, query, and ingest threads can share one client per worker
    without a probe killing an in-flight bundle fetch or two callers
    interleaving on one socket.

    ``rng`` and ``sleep`` are injectable for tests.
    """

    #: keep-alive connections retained per client; extras close on release
    _MAX_IDLE = 4

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8765,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        rng: Callable[[], float] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.random if rng is None else rng
        self._sleep = sleep
        self._pool_lock = threading.Lock()
        self._idle: list[tuple[float, http.client.HTTPConnection]] = []
        self._fault_plan = None
        self._fault_scope = "client"

    def install_faults(self, plan, scope: str = "client") -> None:
        """Inject a :class:`~repro.service.faults.FaultPlan` into every
        request attempt this client makes (``None`` uninstalls).

        Client-side faults fire *before* anything touches the socket:
        a ``drop``/``blackhole`` provably never reached a server, so the
        normal transient-failure retry policy applies to them unchanged.
        """
        self._fault_plan = plan
        self._fault_scope = scope

    # -- plumbing -------------------------------------------------------------

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """Check out a keep-alive connection built with ``timeout``.

        Concurrent callers each get their own connection — one
        :class:`~http.client.HTTPConnection` cannot interleave two
        request/response pairs — and pooling by timeout means a per-call
        override simply uses a different connection instead of rebuilding
        (and racing on) a shared one.
        """
        with self._pool_lock:
            for index, (built_with, conn) in enumerate(self._idle):
                if built_with == timeout:
                    del self._idle[index]
                    return conn
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )

    def _release(
        self, timeout: float, conn: http.client.HTTPConnection
    ) -> None:
        """Return a healthy connection to the idle pool (or close it)."""
        with self._pool_lock:
            if len(self._idle) < self._MAX_IDLE:
                self._idle.append((timeout, conn))
                return
        conn.close()

    def connected(self, blocking: bool = True) -> bool:
        """Whether the server still holds the connections this client
        keeps idle: ``True`` when there is at least one and the server
        has closed (or written to) none of them.  One zero-timeout
        ``select``, nothing sent; ``False`` too when, without
        ``blocking``, the pool is busy."""
        if not self._pool_lock.acquire(blocking):
            return False
        try:  # held: no idle connection is checked out meanwhile
            sockets = [conn.sock for _timeout, conn in self._idle]
            if not sockets or None in sockets:
                return False
            readable, _, _ = select.select(sockets, [], [], 0)
        except (OSError, ValueError):
            return False
        finally:
            self._pool_lock.release()
        return not readable

    def close(self) -> None:
        """Close idle connections (in-flight ones close as they finish)."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for _timeout, conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff(self, attempt: int) -> float:
        """Full-jitter exponential delay before retry ``attempt`` (0-based)."""
        return min(self.backoff_cap_s, self.backoff_s * (2 ** attempt)) \
            * self._rng()

    def _raw_request(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict,
        idempotent: bool,
        timeout: float | None = None,
        namespace: "str | Sequence[str] | None" = None,
    ) -> tuple[int, "http.client.HTTPMessage", bytes]:
        """One HTTP exchange with the retry policy; returns the raw reply.

        ``timeout`` overrides the client-level socket timeout for this
        call only (per-verb override: a heartbeat probe wants 2s, a big
        bundle fetch may want 120s) by checking out a connection built
        with that timeout — no shared state changes, so overlapping
        calls from other threads are undisturbed.  ``namespace`` (one,
        or an ingest frame's several) only feeds slot matching in an
        installed fault plan.
        """
        effective = self.timeout if timeout is None else timeout
        # Propagate the caller's active span: a coordinator answering a
        # query fans out with its request span current, so every worker
        # request joins that trace (child spans on the worker side).
        trace = current_trace_header()
        if trace is not None and TRACE_HEADER not in headers:
            headers = {**headers, TRACE_HEADER: trace}
        attempts = (self.retries + 1) if idempotent else 1
        for attempt in range(attempts):
            if self._fault_plan is not None:
                decision = self._fault_plan.decide(
                    self._fault_scope, method, path, namespace=namespace
                )
                if decision is not None:
                    if decision.action == "error":
                        data = json.dumps({
                            "error": "injected fault", "fault": True,
                        }).encode("utf-8")
                        return (
                            decision.status,
                            {"Content-Type": "application/json"},
                            data,
                        )
                    if decision.action == "delay":
                        self._sleep(decision.delay_s)
                    else:
                        # drop / blackhole: nothing touched the socket, so
                        # the request provably never reached a server and
                        # the normal transient retry policy applies
                        if decision.action == "blackhole":
                            self._sleep(effective)
                            exc: OSError = socket.timeout(
                                "injected fault: black hole"
                            )
                        else:
                            exc = ConnectionRefusedError(
                                "injected fault: connection dropped"
                            )
                        if attempt + 1 >= attempts:
                            raise exc
                        self._sleep(self._backoff(attempt))
                        continue
            conn = self._connection(effective)
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except _TRANSIENT:
                conn.close()
                if attempt + 1 >= attempts:
                    raise
                self._sleep(self._backoff(attempt))
                continue
            self._release(effective, conn)
            return response.status, response.headers, data
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        idempotent: bool | None = None,
        timeout: float | None = None,
    ) -> dict:
        payload = (
            None if body is None else json.dumps(body).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        if idempotent is None:
            idempotent = method == "GET"
        namespace = (
            body.get("namespace") if isinstance(body, dict) else None
        )
        status, _headers, data = self._raw_request(
            method, path, payload, headers, idempotent, timeout,
            namespace=namespace,
        )
        return self._json_reply(status, data)

    @staticmethod
    def _json_reply(status: int, data: bytes) -> dict:
        """Decode a JSON reply body; a status >= 400 raises."""
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"error": data.decode("utf-8", "replace")}
        if status >= 400:
            raise ServiceError(status, decoded)
        # The wire is RFC 8259-strict: non-finite estimates travel as
        # null plus a "non_finite" marker map.  Put the floats back so
        # callers see the same nan/inf values an in-process engine
        # would have returned.
        if isinstance(decoded, dict):
            decoded = restore_non_finite(decoded)
        return decoded

    def wait_ready(self, timeout: float = 10.0) -> dict:
        """Poll ``/healthz`` until the daemon answers (or raise).

        Only *connection-level* failures (socket refused/reset/timeout,
        dropped keep-alive) are retried — they mean the daemon is not up
        yet.  An HTTP-level error (:class:`ServiceError`) means a server
        answered and is telling us something is wrong; it re-raises
        immediately with the decoded body instead of being retried
        silently until the caller's deadline.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, http.client.HTTPException):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    # -- endpoints ------------------------------------------------------------

    def health(self, timeout: float | None = None) -> dict:
        return self._request("GET", "/healthz", timeout=timeout)

    def liveness(self, timeout: float | None = None) -> dict:
        """The lock-free ``GET /health`` probe (coordinator heartbeats)."""
        return self._request("GET", "/health", timeout=timeout)

    def status(self, timeout: float | None = None) -> dict:
        return self._request("GET", "/status", timeout=timeout)

    def metrics(self, timeout: float | None = None) -> str:
        """The daemon's Prometheus text exposition (``GET /metrics``)."""
        status, _headers, data = self._raw_request(
            "GET", "/metrics", None, {}, idempotent=True, timeout=timeout
        )
        if status >= 400:
            try:
                decoded = json.loads(data)
            except json.JSONDecodeError:
                decoded = {"error": data.decode("utf-8", "replace")}
            raise ServiceError(status, decoded)
        return data.decode("utf-8")

    def trace_recent(
        self, limit: int = 50, timeout: float | None = None
    ) -> dict:
        """The daemon's most recently finished spans, newest first."""
        return self._request(
            "GET", f"/trace/recent?limit={int(limit)}", timeout=timeout
        )

    def ingest(
        self,
        namespace: str,
        keys: Sequence,
        weights: dict,
        sync: bool = False,
    ) -> dict:
        """POST one event batch as a one-section frame; ``sync=True``
        waits until it is applied."""
        section = encode_event_section(namespace, as_key_array(keys), weights)
        return self.ingest_frame(
            encode_event_batch([(namespace, section)], sync), [namespace]
        )

    def ingest_frame(
        self, frame: bytes, namespaces: Sequence[str] = ()
    ) -> dict:
        """POST one codec-encoded ingest frame
        (:func:`repro.store.codec.encode_event_batch`): several
        namespaces' events in one request, accepted or refused whole.

        Never retried: a resent ``/ingest`` could double-count.
        ``namespaces`` — the frame's section namespaces — only feeds
        slot matching in an installed fault plan.
        """
        status, _headers, data = self._raw_request(
            "POST", "/ingest", frame,
            {"Content-Type": "application/octet-stream"}, False,
            namespace=tuple(namespaces),
        )
        return self._json_reply(status, data)

    def query(
        self, namespace: str, timeout: float | None = None, **fields
    ) -> dict:
        """POST one ``/query`` body: ``namespace`` plus ``fields``.

        A field that is ``None`` is left out, so the daemon applies its
        default.  A query is a read: safe to retry on connection failures.
        """
        body = {"namespace": namespace}
        body.update(
            (name, value) for name, value in fields.items()
            if value is not None
        )
        return self._request("POST", "/query", body, idempotent=True,
                             timeout=timeout)

    def estimate(
        self,
        namespace: str,
        function: str,
        assignments: Sequence[str],
        estimator: str = "auto",
        ell: int | None = None,
        keys: Sequence | None = None,
        since: str | None = None,
        until: str | None = None,
        decay: "str | float | None" = None,
        anchor: float | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One aggregate estimate over the merged live + stored view.

        ``decay`` applies an exponential half-life (e.g. ``"1h"``) to the
        stored buckets' weights, anchored at ``anchor`` (POSIX seconds;
        defaults to the end of the available data).
        """
        return self.query(
            namespace, timeout, kind="estimate", function=function,
            assignments=list(assignments), estimator=estimator, ell=ell,
            keys=None if keys is None else list(keys), since=since,
            until=until, decay=decay,
            anchor=None if anchor is None else float(anchor),
        )

    def window_series(
        self,
        namespace: str,
        function: str,
        assignments: Sequence[str],
        window: "str | float",
        step: "str | float | None" = None,
        decay: "str | float | None" = None,
        anchor: float | None = None,
        estimator: str = "auto",
        ell: int | None = None,
        keys: Sequence | None = None,
        since: str | None = None,
        until: str | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Sliding/tumbling window estimates, one row per window.

        ``window``/``step``/``decay`` are duration specs (``"15m"``,
        ``900``...).  Omitting ``step`` gives tumbling windows; ``step``
        smaller than ``window`` gives overlapping sliding windows, served
        from the planner's shared per-bucket partial merges.
        """
        return self.query(
            namespace, timeout, kind="estimate", function=function,
            assignments=list(assignments), estimator=estimator,
            window=window, step=step, decay=decay,
            anchor=None if anchor is None else float(anchor), ell=ell,
            keys=None if keys is None else list(keys), since=since,
            until=until,
        )

    def jaccard(
        self,
        namespace: str,
        assignments: Sequence[str],
        variant: str = "l",
        since: str | None = None,
        until: str | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Weighted Jaccard ratio estimate between assignments."""
        return self.query(
            namespace, timeout, kind="jaccard",
            assignments=list(assignments), variant=variant, since=since,
            until=until,
        )

    # -- sketch-bundle transport (cluster) -------------------------------------

    def bundle(
        self,
        namespace: str,
        since: str | None = None,
        until: str | None = None,
        timeout: float | None = None,
    ) -> tuple[bytes | None, str]:
        """The namespace's merged view as codec bytes, plus its version.

        Returns ``(blob, version)``; ``blob`` is ``None`` when the
        namespace holds no data (the version token still identifies the
        empty state for coordinator caching).
        """
        params = {"namespace": namespace}
        if since is not None:
            params["since"] = since
        if until is not None:
            params["until"] = until
        status, headers, data = self._raw_request(
            "GET", f"/bundle?{urlencode(params)}", None, {}, True, timeout
        )
        content_type = (headers.get("Content-Type") or "").split(";")[0]
        if content_type == "application/octet-stream":
            if status >= 400:  # defensive: errors are always JSON
                raise ServiceError(status, {"error": "binary error body"})
            return data, headers.get("X-Repro-Version", "")
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"error": data.decode("utf-8", "replace")}
        if status >= 400:
            raise ServiceError(status, decoded)
        return None, decoded.get("version", "")

    def bundles(
        self,
        held: "dict[str, str | None]",
        since: str | None = None,
        until: str | None = None,
        timeout: float | None = None,
    ) -> bytes:
        """Several namespaces' merged views in one conditional request.

        ``held`` maps each namespace to the version token the caller
        already holds a bundle for (``None``: nothing held).  Returns
        the worker's codec ``bundle_batch`` frame — decode it with
        :func:`repro.store.codec.decode_bundle_batch`, passing
        ``list(held)`` as ``expect``; a namespace whose token still
        matches comes back ``unchanged``, without its bytes.
        """
        params = {"have": json.dumps(held, separators=(",", ":"))}
        if since is not None:
            params["since"] = since
        if until is not None:
            params["until"] = until
        status, _headers, data = self._raw_request(
            "GET", f"/bundle?{urlencode(params)}", None, {}, True, timeout,
            namespace=tuple(held),
        )
        if status >= 400:
            self._json_reply(status, data)  # raises ServiceError
        return data

    def bundle_entries(
        self, namespace: str, timeout: float | None = None
    ) -> dict:
        """JSON listing of a namespace's sketch-bundle artifacts."""
        params = urlencode({"namespace": namespace, "list": 1})
        return self._request("GET", f"/bundle?{params}", timeout=timeout)

    def fetch_artifact(
        self,
        namespace: str,
        bucket: str,
        part: str,
        timeout: float | None = None,
    ) -> bytes:
        """One stored artifact's raw codec bytes (bucket handoff source)."""
        params = urlencode({
            "namespace": namespace, "bucket": bucket, "part": part,
        })
        status, headers, data = self._raw_request(
            "GET", f"/bundle?{params}", None, {}, True, timeout
        )
        content_type = (headers.get("Content-Type") or "").split(";")[0]
        if status >= 400 or content_type != "application/octet-stream":
            try:
                decoded = json.loads(data) if data else {}
            except json.JSONDecodeError:
                decoded = {"error": data.decode("utf-8", "replace")}
            raise ServiceError(status, decoded)
        return data

    def reset_bundles(
        self, namespace: str, timeout: float | None = None
    ) -> dict:
        """Purge one namespace on the worker: live window plus artifacts.

        The coordinator's pre-handoff purge.  Destructive but idempotent
        (a repeat purges an already-empty namespace), so connection-level
        failures are retried like the read verbs.
        """
        return self._request(
            "POST", "/bundle/reset", {"namespace": namespace},
            idempotent=True, timeout=timeout,
        )

    def put_bundle(
        self,
        namespace: str,
        bucket: str,
        part: str,
        blob: bytes,
        overwrite: bool = False,
        timeout: float | None = None,
    ) -> dict:
        """Upload one codec-encoded bundle artifact (handoff destination).

        Not retried automatically (a replay could race a concurrent
        writer); with ``overwrite=True`` the upload is idempotent and
        callers may re-send on failure.
        """
        params = {"namespace": namespace, "bucket": bucket, "part": part}
        if overwrite:
            params["overwrite"] = 1
        status, _headers, data = self._raw_request(
            "POST", f"/bundle?{urlencode(params)}", blob,
            {"Content-Type": "application/octet-stream"}, False, timeout,
        )
        return self._json_reply(status, data)

    # -- cluster coordinator verbs ---------------------------------------------

    def cluster_status(self, timeout: float | None = None) -> dict:
        """Membership, topology, and health from a coordinator's /cluster."""
        return self._request("GET", "/cluster", timeout=timeout)

    def cluster_join(
        self, worker_id: str, host: str, port: int,
        timeout: float | None = None,
    ) -> dict:
        """Register a worker with a coordinator (synchronous handoff)."""
        return self._request("POST", "/cluster/join", {
            "worker_id": worker_id, "host": host, "port": int(port),
        }, timeout=timeout)

    def cluster_leave(
        self, worker_id: str, timeout: float | None = None
    ) -> dict:
        """Deregister a worker (handoff away first, when possible)."""
        return self._request("POST", "/cluster/leave", {
            "worker_id": worker_id,
        }, timeout=timeout)

    def repairs(
        self, limit: int | None = None, timeout: float | None = None
    ) -> dict:
        """The coordinator's repair view: replication map + journal."""
        path = "/repairs" if limit is None else f"/repairs?limit={int(limit)}"
        return self._request("GET", path, timeout=timeout)

    def repairs_run(self, timeout: float | None = None) -> dict:
        """Run one synchronous repair tick (promote, plan, drain).

        Idempotent by construction — promotion, planning, and the
        purge-then-copy executor all converge — so it is safe to retry.
        """
        return self._request(
            "POST", "/repairs/run", {}, idempotent=True, timeout=timeout
        )

    # -- continuous queries ----------------------------------------------------

    @staticmethod
    def _restore_watch(watch: dict) -> dict:
        if isinstance(watch.get("last_answer"), dict):
            watch["last_answer"] = restore_non_finite(watch["last_answer"])
        return watch

    def watch_register(
        self,
        namespace: str,
        query: dict,
        threshold: dict,
        cadence_s: float,
    ) -> dict:
        """Register a continuous query; returns its materialized row.

        ``query`` is a ``/query`` request body (without ``namespace``,
        which is taken from the ``namespace`` argument); ``threshold`` is
        ``{"above": x}`` or ``{"below": x}``; the service re-evaluates the
        query every ``cadence_s`` seconds on its rotation ticker.  The
        registration persists in ``runtime.sqlite`` and survives daemon
        restarts.
        """
        result = self._request("POST", "/watch", {
            "namespace": namespace,
            "query": dict(query),
            "threshold": dict(threshold),
            "cadence_s": float(cadence_s),
        })
        if isinstance(result.get("watch"), dict):
            self._restore_watch(result["watch"])
        return result

    def watches(self, namespace: str | None = None) -> list[dict]:
        """List registered continuous queries with their last answers."""
        path = "/watch"
        if namespace is not None:
            path += "?" + urlencode({"namespace": namespace})
        result = self._request("GET", path)
        return [self._restore_watch(w) for w in result.get("watches", [])]

    def watch_remove(self, watch_id: int) -> dict:
        """Delete a registration (also stops its evaluations)."""
        return self._request("POST", "/watch/remove", {"id": int(watch_id)})

    def watch_poll(
        self,
        watch_id: int,
        after: int = 0,
        timeout: float = 30.0,
    ) -> dict:
        """Long-poll one registration for an update newer than ``after``.

        Returns ``{"watch": ..., "timed_out": bool}``; when not timed
        out, ``watch["update_seq"]`` is the new cursor to pass as
        ``after`` on the next poll.  The HTTP socket timeout is padded
        above the server-side poll deadline so a quiet watch times out
        gracefully server-side instead of dropping the connection.
        """
        timeout = max(0.0, float(timeout))
        params = urlencode({
            "id": int(watch_id), "after": int(after), "timeout": timeout,
        })
        result = self._request(
            "GET", f"/watch/poll?{params}",
            timeout=max(self.timeout, timeout + 10.0),
        )
        if isinstance(result.get("watch"), dict):
            self._restore_watch(result["watch"])
        return result

    def rotate(self) -> dict:
        """Flush every live window's current state into the store.

        A durability aid, not a reset: windows keep accumulating, and the
        flush artifact is overwritten at the natural bucket boundary.
        """
        return self._request("POST", "/rotate")

    def shutdown(self) -> dict:
        """Request a graceful stop (drain + checkpoint)."""
        result = self._request("POST", "/shutdown")
        self.close()
        return result

    def __repr__(self) -> str:
        return f"ServiceClient(host={self.host!r}, port={self.port})"
